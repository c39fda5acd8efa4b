import random
from itertools import combinations

import pytest

from stingycolor import (
    Coloring,
    ColoringProperty,
    PartitionError,
    SwapError,
    all_graphs,
    b_r,
    complete,
    cycle,
    empty,
    enumerate_colorings,
    enumerate_optimal_colorings,
    is_lonely,
    is_proper,
    lonely_digraph,
    path,
    swap,
    doubly_critical_edges,
)
from stingycolor.bounds import (
    VERDICT_CHECKED,
    VERDICT_VACUOUS,
    VERDICT_VIOLATION,
    format_t,
    stream_claims,
    stream_record,
)
from stingycolor.coloring import DEFAULT_GUARDS, chromatic_number, enumerate_p_optimal
from stingycolor.graphs import EXHAUSTIVE_MAX_N, er_random, max_clique_mask
from stingycolor.lonely import (
    ColoredGraph,
    PropertyNotApplicableError,
    check_path_join_property,
    join_failures,
    optimal_views,
)

from oracles import enumerate_lonely_path_pairs


# --- frames ------------------------------------------------------------------


def test_frame_examples():
    assert Coloring.of([[0, 2], [1, 3], [4]]).frame() == (1, 2, 2)
    assert Coloring.of([[0], [1], [2], [3]]).frame() == (1, 1, 1, 1)
    assert Coloring.of([]).frame() == ()


def test_frame_m():
    assert Coloring.of([[0, 2], [1, 3], [4]]).frame_m(3) == ()
    c = Coloring.of([[0], [1, 2], [3, 4, 5], [6, 7, 8]])
    assert c.frame_m(3) == (3, 3)
    assert c.frame_m(2) == (2, 3, 3)
    assert c.frame_m(1) == (1, 2, 3, 3)
    with pytest.raises(ValueError):
        c.frame_m(0)


def test_frame_m_characterizes_b_r():
    for n in range(0, 5):
        for g in all_graphs(n):
            for c in enumerate_colorings(g):
                for r in (1, 2, 3):
                    assert (c.frame_m(r + 1) == ()) == b_r(r)(c)


def test_small_examples():
    assert Coloring.of([[0, 2], [1, 3], [4]]).small() == 5
    assert Coloring.of([[0, 1, 2]]).small() == 0
    assert Coloring.of([[0], [1], [2], [3]]).small() == 4


# --- lonely edges ------------------------------------------------------------


def test_is_lonely_p3():
    p3 = path(3)
    c = Coloring.of([[0, 2], [1]])
    assert is_lonely(p3, c, 0, 1)
    assert not is_lonely(p3, c, 1, 0)  # N(1) meets {0,2} twice
    assert not is_lonely(p3, c, 0, 2)  # same class
    with pytest.raises(ValueError, match="out of range"):
        is_lonely(p3, c, 0, 7)


def lonely_edges(ld):
    """The arcs of a lonely digraph given as out-rows, in (v, w) order."""
    return [(v, w) for v, row in enumerate(ld) for w in range(len(ld)) if row >> w & 1]


def test_lonely_digraph_c5_hand_checked(c5):
    c = Coloring.of([[0, 2], [1, 3], [4]])
    ld = lonely_digraph(c5, c)
    assert lonely_edges(ld) == [(0, 1), (0, 4), (3, 2), (3, 4), (4, 0), (4, 3)]
    assert ld[4].bit_count() == 2
    assert not ld[1] >> 0 & 1


def test_lonely_digraph_discrete_complete():
    for n in (2, 3, 4):
        g = complete(n)
        ld = lonely_digraph(g, Coloring.of([[v] for v in range(n)]))
        assert lonely_edges(ld) == [
            (v, w) for v in range(n) for w in range(n) if v != w
        ]


def test_lonely_digraph_empty_graph():
    g = empty(4)
    ld = lonely_digraph(g, Coloring.of([[0, 1], [2, 3]]))
    assert ld == (0, 0, 0, 0)
    assert lonely_edges(ld) == []


def test_lonely_digraph_rejects_improper(c5):
    with pytest.raises(ValueError, match="not proper"):
        lonely_digraph(c5, Coloring.of([[0, 1], [2, 3], [4]]))


def test_colored_graph_rejects_non_partition(c5):
    # missing vertex 4, then a vertex outside 0..4: structural, not "improper"
    with pytest.raises(PartitionError, match=r"missing \[4\]"):
        ColoredGraph(c5, Coloring.of([[0, 2], [1, 3]]))
    with pytest.raises(PartitionError, match=r"extra \[5\]"):
        ColoredGraph(c5, Coloring.of([[0, 2], [1, 3], [4, 5]]))


def test_lonely_digraph_agrees_with_is_lonely():
    for n in range(1, 5):
        for g in all_graphs(n):
            for c in enumerate_colorings(g):
                ld = lonely_digraph(g, c)
                for v in range(n):
                    for w in range(n):
                        if v != w:
                            assert bool(ld[v] >> w & 1) == is_lonely(g, c, v, w)


# --- swaps ---------------------------------------------------------------------


def test_swap_k2_discrete_is_identity():
    k2 = complete(2)
    c = Coloring.of([[0], [1]])
    assert swap(k2, c, 0, 1).classes == c.classes


def test_swap_c5_example(c5):
    c = Coloring.of([[0, 2], [1, 3], [4]])
    assert is_lonely(c5, c, 4, 0) and is_lonely(c5, c, 0, 4)
    swapped = swap(c5, c, 4, 0)
    assert swapped.classes == Coloring.of([[2, 4], [1, 3], [0]]).classes
    assert is_proper(c5, swapped)
    assert swapped.frame() == c.frame()


def test_swap_rejects_with_direction(c5):
    c = Coloring.of([[0, 2], [1, 3], [4]])
    with pytest.raises(SwapError, match=r"\(1, 0\)"):
        swap(c5, c, 1, 0)
    # (0, 1) is lonely but (1, 0) is not: the second direction is named
    with pytest.raises(SwapError, match=r"\(1, 0\)"):
        swap(c5, c, 0, 1)


def test_swap_safety_exhaustive():
    # all proper colorings of all graphs up to six vertices
    for n in range(1, 7):
        for g in all_graphs(n):
            for c in enumerate_colorings(g):
                for v in range(n):
                    for w in range(v + 1, n):
                        if is_lonely(g, c, v, w) and is_lonely(g, c, w, v):
                            swapped = swap(g, c, v, w)
                            assert is_proper(g, swapped)
                            assert swapped.frame() == c.frame()


# --- lonely path pairs ----------------------------------------------------------


def test_pairs_k3_single_vertex_paths():
    k3 = complete(3)
    c = Coloring.of([[0], [1], [2]])
    got = [(p.pa, p.pb) for p in enumerate_lonely_path_pairs(k3, c, 1)]
    assert got == [((0,), (1,)), ((0,), (2,)), ((1,), (2,))]


def test_pairs_need_two_singletons(c5):
    assert list(enumerate_lonely_path_pairs(c5, Coloring.of([[0, 2], [1, 3], [4]]), 3)) == []
    c4 = cycle(4)
    assert list(enumerate_lonely_path_pairs(c4, Coloring.of([[0, 2], [1, 3]]), 3)) == []


def test_pairs_respect_constraints():
    for n in range(2, 5):
        for g in all_graphs(n):
            for c in enumerate_optimal_colorings(g):
                index = c.class_index_of()
                for pair in enumerate_lonely_path_pairs(g, c, 3):
                    both = pair.pa + pair.pb
                    assert len(set(both)) == len(both)  # vertex disjoint
                    for p in (pair.pa, pair.pb):
                        assert len(p) <= 3
                        assert len({index[v] for v in p}) == len(p)
                    assert len(c.classes[index[pair.pa[0]]]) == 1
                    assert len(c.classes[index[pair.pb[0]]]) == 1
                    assert pair.pa[0] < pair.pb[0]


@pytest.mark.parametrize("max_len", [0, -1])
def test_path_length_below_1_is_refused(max_len):
    # A path has at least its root, so a length below 1 is an error, not
    # "unbounded": K5's discrete coloring has 490 pairs at length 5.
    discrete = Coloring(tuple(1 << v for v in range(5)))
    cg = ColoredGraph(complete(5), discrete)
    with pytest.raises(ValueError, match="max_len must be at least 1"):
        join_failures(cg, max_len)
    assert cg._ld is None
    with pytest.raises(ValueError, match="max_len must be at least 1"):
        list(enumerate_lonely_path_pairs(complete(5), discrete, max_len))
    assert join_failures(cg, 5)[0] == 490


# --- lemma records over coloring streams ----------------------------------------


def _path_join(g, views=None):
    if views is None:
        views = optimal_views(g, None, DEFAULT_GUARDS)
    return stream_record("lonely-path-join", views, lambda cg: join_failures(cg, 3))


def _stream_claims(g, r=None, t2s=(0,)):
    views = optimal_views(g, r, DEFAULT_GUARDS)
    return stream_claims(g, r, views, t2s, DEFAULT_GUARDS)


def test_lonely_path_lemma_k3():
    rec = _path_join(complete(3))
    assert rec.verdict == VERDICT_CHECKED
    assert rec.witness["checks"] == 9  # three root pairs, paths up to three vertices


def test_lonely_path_lemma_small_graphs():
    for n in range(0, 5):
        for g in all_graphs(n):
            assert _path_join(g).verdict == VERDICT_CHECKED


def test_generalized_lonely_path_b2(c5):
    views = [ColoredGraph(c5, c) for c in enumerate_p_optimal(c5, b_r(2))]
    rec = _path_join(c5, views)
    assert rec.verdict == VERDICT_CHECKED
    assert rec.witness["colorings_checked"] == 5


def test_property_mode_refuses_bad_property(c5):
    pin = ColoringProperty(lambda c: any(cls == (0,) for cls in c.classes), "v0")
    with pytest.raises(PropertyNotApplicableError, match="frame property"):
        check_path_join_property(c5, pin)
    with pytest.raises(PropertyNotApplicableError, match="singleton-friendly"):
        check_path_join_property(path(3), b_r(1))
    check_path_join_property(c5, b_r(2))


def test_replete_c5_detail(c5):
    # hypothesis 2*3 > 2+2+1: every class of every optimal coloring has a
    # vertex with at least omega = 2 lonely out-edges
    touches, rec = _stream_claims(c5)
    assert rec.name == "lonely-degree-bound[t=0]"
    assert rec.hyp and rec.verdict == VERDICT_CHECKED
    assert rec.witness == {"colorings_checked": 5, "checks": 15}
    assert touches.witness == {"colorings_checked": 5, "checks": 15,
                               "scope": "all optimal colorings"}


def test_replete_vacuous_on_k4():
    _, rec = _stream_claims(complete(4))
    assert not rec.hyp and rec.verdict == VERDICT_VACUOUS  # vacuous
    assert rec.witness == {"colorings_checked": 0, "checks": 0}


def test_replete_exhaustive_small():
    for n in range(0, 5):
        for g in all_graphs(n):
            for r in (None, 2, 3):
                for rec in _stream_claims(g, r, (0, 1)):
                    assert rec.verdict != VERDICT_VIOLATION


def test_format_t():
    assert [format_t(t2) for t2 in (0, 1, 2, 3)] == ["0", "1/2", "1", "3/2"]


def test_touches_everybody_small():
    for n in range(0, 5):
        for g in all_graphs(n):
            for r in (None, 2, 3):
                touches = _stream_claims(g, r)[0]
                assert touches.name == ("class-meets-all-classes" if r is None
                                        else f"singleton-meets-small-classes[r={r}]")
                assert touches.verdict == VERDICT_CHECKED


# --- doubly critical edges ---------------------------------------------------------


def test_doubly_critical_k4():
    res = doubly_critical_edges(complete(4))
    assert len(res.edges) == 6
    assert res.iota == 4 and res.consistent


def test_doubly_critical_c5(c5):
    res = doubly_critical_edges(c5)
    assert res.edges == () and res.iota == 1 and res.consistent


def test_doubly_critical_c4():
    res = doubly_critical_edges(cycle(4))
    assert res.edges == () and res.iota == 0 and res.consistent


def test_doubly_critical_consistent_small():
    for n in range(1, 5):
        for g in all_graphs(n):
            assert doubly_critical_edges(g).consistent


def test_doubly_critical_clique_skip_matches_brute_loop():
    # doubly_critical_edges rejects an edge ab without a search when a maximum
    # clique Q has |Q - {a, b}| > chi - 2; the brute loop searches every edge.
    rng = random.Random(9090)
    graphs = [g for n in range(EXHAUSTIVE_MAX_N + 1) for g in all_graphs(n)]
    graphs += [er_random(n, p, seed=rng.getrandbits(32))
               for n in (7, 8, 9) for p in (0.3, 0.5, 0.7, 0.9) for _ in range(6)]
    skipped = 0
    for g in graphs:
        chi = chromatic_number(g)
        brute = tuple((a, b) for a, b in g.edges()
                      if chromatic_number(g.induced(v for v in range(g.n) if v not in (a, b)))
                      == chi - 2)
        assert doubly_critical_edges(g).edges == brute, (g.n, g.adj)
        clique = max_clique_mask(g)
        skipped += sum((clique & ~(1 << a | 1 << b)).bit_count() > chi - 2
                       for a, b in g.edges())
    assert skipped > 0
