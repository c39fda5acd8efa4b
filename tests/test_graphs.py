import functools
import random

import pytest

import oracles
from stingycolor import (
    Graph,
    GraphFormatError,
    all_graphs,
    clique_number,
    complete,
    cycle,
    emit_graph6,
    empty,
    er_random,
    invariants,
    matching_number,
    parse_graph6,
    path,
    petersen,
)
from stingycolor import graphs
from stingycolor.graphs import (
    EXHAUSTIVE_MAX_N,
    ORBIT_MAX_N,
    canonical_mask,
    graph_from_mask,
)


# --- graph6 ---------------------------------------------------------------


def test_parse_empty_five():
    g = parse_graph6("D??")
    assert g.n == 5 and g.edge_count() == 0


def test_parse_c5_hand_unpacked():
    # 'h'=41=101001, 'c'=36=100100 over the ten upper-triangle bits gives the
    # 5-cycle 0-1-2-3-4-0.
    g = parse_graph6("Dhc")
    assert sorted(g.edges()) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]


def test_emit_k2():
    assert emit_graph6(complete(2)) == "A_"
    assert parse_graph6("A_").edge_count() == 1


def test_emit_empty_five():
    assert emit_graph6(empty(5)) == "D??"


def test_duw_round_trip():
    g = parse_graph6("DUW")
    assert g.n == 5
    assert emit_graph6(g) == "DUW"


def test_round_trip_random_graphs():
    rng = random.Random(20260810)
    for _ in range(1000):
        n = rng.randrange(0, 11)
        g = er_random(n, rng.random(), seed=rng.getrandbits(32))
        assert parse_graph6(emit_graph6(g)) == g


def test_parse_header_prefix():
    assert parse_graph6(">>graph6<<Dhc") == parse_graph6("Dhc")


def test_parse_long_form():
    g = er_random(70, 0.3, seed=5)
    text = emit_graph6(g)
    assert text.startswith(chr(126))
    assert parse_graph6(text) == g


def test_parse_errors_carry_offsets():
    with pytest.raises(GraphFormatError) as err:
        parse_graph6("D" + chr(30) + "?")
    assert err.value.offset == 1

    with pytest.raises(GraphFormatError, match="truncated body"):
        parse_graph6("D?")

    with pytest.raises(GraphFormatError, match="trailing data"):
        parse_graph6("D???")

    # K2 body with a padding bit set: '_' has only bit 5 legal for n=2
    with pytest.raises(GraphFormatError, match="padding"):
        parse_graph6("A" + chr(63 + 1))

    with pytest.raises(GraphFormatError, match="empty"):
        parse_graph6("")


def test_emit_rejects_oversize():
    g = empty(0)
    object.__setattr__(g, "n", 300000)  # bypass validation to hit the emit check
    with pytest.raises(ValueError, match="exceeds supported encoding range"):
        emit_graph6(g)


# --- construction and generators -------------------------------------------


def test_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError, match="outside"):
        Graph.from_edges(3, [(0, 5)])
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(2, (2, 0))


@pytest.mark.parametrize("adj", [[0, 0, 0], (2.0, 1)], ids=["list-rows", "float-row"])
def test_graph_rejects_rows_not_a_tuple_of_ints(adj):
    # A list of rows would pass every row check and then fail to hash, and a
    # float row would fail inside a mask operation; both are refused up front.
    with pytest.raises(ValueError, match="tuple of int rows|is not an int"):
        Graph(len(adj), adj)


@pytest.mark.parametrize("n", [2.0, "2"], ids=["float-n", "str-n"])
def test_graph_rejects_a_vertex_count_not_an_int(n):
    # A float count would fail inside 1 << n and a string one at n < 0, each
    # with a bare TypeError; both are refused like the rows.
    with pytest.raises(ValueError, match="vertex count must be a nonnegative int"):
        Graph(n, (0, 0))


def _checked_copy(g):
    """``g`` rebuilt through the validating public constructor."""
    return Graph(g.n, tuple(g.adj))


def test_derived_graphs_pass_validation():
    # complement, induced, without, graph_from_mask, er_random and
    # parse_graph6 build their rows valid by construction, unchecked; each
    # result must be exactly what the validating constructor accepts (and
    # hash alike) and what an edge-list construction gives.
    rng = random.Random(7107)
    graphs = [g for n in range(EXHAUSTIVE_MAX_N + 1) for g in all_graphs(n)]
    graphs += [er_random(n, p, seed=rng.getrandbits(32))
               for n in range(7, 11) for p in (0.2, 0.5, 0.8) for _ in range(3)]
    seeds = random.Random(7108)
    sampled = [er_random(n, p, seed=seeds.getrandbits(32))
               for n in range(13) for p in (0, 0.2, 0.5, 0.8, 1) for _ in range(3)]
    for g in graphs + sampled:
        for built in (g, parse_graph6(emit_graph6(g))):
            assert built == _checked_copy(built) and hash(built) == hash(_checked_copy(built))
    for g in graphs:
        n = g.n
        comp = g.complement()
        assert g.complement() is comp  # built once per instance
        assert comp == _checked_copy(comp) and hash(comp) == hash(_checked_copy(comp))
        assert comp == Graph.from_edges(
            n, [(u, v) for v in range(n) for u in range(v) if not g.has_edge(u, v)])
        keep = sorted(rng.sample(range(n), rng.randint(0, n)))
        sub = g.induced(keep)
        assert sub == _checked_copy(sub)
        assert sub == Graph.from_edges(len(keep), [
            (i, j) for j in range(len(keep)) for i in range(j)
            if g.has_edge(keep[i], keep[j])])
        for a, b in list(g.edges())[:3]:
            dropped = g.induced(v for v in range(n) if v not in (a, b))
            assert dropped == _checked_copy(dropped)
        drop = rng.sample(range(n), rng.randint(0, n))
        dropped = g.induced(v for v in range(n) if v not in drop)
        assert dropped == _checked_copy(dropped)
        with pytest.raises(ValueError, match="outside"):
            g.induced([n])
        rebuilt = graph_from_mask(n, oracles.graph_to_mask(g))
        assert rebuilt == _checked_copy(rebuilt) == g
        assert hash(rebuilt) == hash(g)


def test_equal_graphs_hash_alike_and_share_one_memo_entry():
    # Graphs equal in value, however built, must hash alike and print alike,
    # so a cache keyed by graphs (here an lru_cache) gives them one entry.
    misses = []

    @functools.lru_cache(maxsize=None)
    def memo(g):
        misses.append(g)
        return len(misses)

    rng = random.Random(5150)
    graphs = [petersen(), cycle(5), empty(0), complete(1)]
    graphs += [er_random(n, p, seed=rng.getrandbits(32)) for n in (6, 8, 10) for p in (0.3, 0.7)]
    for g in graphs:
        n = g.n
        drop = rng.sample(range(n), n // 3)
        rest = [v for v in range(n) if v not in drop]
        sub = Graph(len(rest), tuple(sum(1 << i for i, u in enumerate(rest) if g.has_edge(v, u))
                                     for v in rest))
        for want, twins in (
            (g, [Graph(n, tuple(g.adj)), Graph._unchecked(n, tuple(g.adj)),
                 parse_graph6(emit_graph6(g)), g.complement().complement(),
                 g.induced(range(n)),
                 graph_from_mask(n, oracles.graph_to_mask(g))]),
            (g.complement(), [Graph(n, g.complement().adj), g.complement().induced(range(n))]),
            (sub, [g.induced(rest), _checked_copy(sub)]),
        ):
            memo.cache_clear()
            misses.clear()
            for twin in twins:
                assert twin is not want and twin == want
                assert hash(twin) == hash(want) == hash((want.n, want.adj))
                assert repr(twin) == repr(want) == f"Graph(n={want.n}, adj={want.adj!r})"
                assert memo(twin) == 1
            assert memo(want) == 1 and misses == [twins[0]]


def test_complete_k4():
    g = complete(4)
    assert g.edge_count() == 6
    assert all(g.has_edge(u, v) for u in range(4) for v in range(4) if u != v)


def test_cycle_c5():
    g = cycle(5)
    assert g.edge_count() == 5
    assert all(g.degree(v) == 2 for v in range(5))


def test_cycle_too_small():
    with pytest.raises(ValueError):
        cycle(2)


def test_path_and_empty():
    assert path(4).edge_count() == 3
    assert path(1).edge_count() == 0
    assert empty(4).edge_count() == 0
    with pytest.raises(ValueError, match="negative"):
        empty(-1)


def test_petersen_shape():
    g = petersen()
    assert g.n == 10 and g.edge_count() == 15
    assert all(g.degree(v) == 3 for v in range(10))


def test_er_random_deterministic():
    a = er_random(8, 0.5, seed=42)
    b = er_random(8, 0.5, seed=42)
    assert a == b
    assert er_random(8, 0.5, seed=43) != a


def test_er_random_validation():
    with pytest.raises(ValueError):
        er_random(5, 1.5, seed=1)
    with pytest.raises(ValueError):
        er_random(-1, 0.5, seed=1)
    with pytest.raises(ValueError, match="seed"):
        er_random(5, 0.5, seed=None)


def test_er_random_refuses_negative_seed():
    # random.Random seeds by the absolute value: seed -1 would be seed 1's graph
    assert er_random(8, 0.5, seed=1) == er_random(8, 0.5, seed=1)
    with pytest.raises(ValueError, match="nonnegative seed"):
        er_random(8, 0.5, seed=-1)


# --- complement -------------------------------------------------------------


def test_complement_examples():
    assert complete(4).complement() == empty(4)
    assert empty(6).complement() == complete(6)


def test_complement_c5_self():
    comp = cycle(5).complement()
    assert sorted(comp.degree(v) for v in range(5)) == [2, 2, 2, 2, 2]
    assert comp.edge_count() == 5
    assert oracles.are_isomorphic(comp, cycle(5))


def test_complement_involution_small():
    for n in range(0, 6):
        for g in all_graphs(n):
            assert g.complement().complement() == g


# --- invariants -------------------------------------------------------------


def test_invariants_c5():
    inv = invariants(cycle(5))
    assert (inv.omega, inv.alpha, inv.max_deg, inv.min_deg, inv.nu) == (2, 2, 2, 2, 2)


def test_invariants_k4():
    inv = invariants(complete(4))
    assert (inv.omega, inv.alpha, inv.max_deg, inv.min_deg, inv.nu) == (4, 1, 3, 3, 2)


def test_invariants_petersen():
    g = petersen()
    inv = invariants(g)
    assert inv.omega == oracles.clique_number_oracle(g) == 2
    assert inv.alpha == oracles.independence_number_oracle(g) == 4
    assert inv.nu == oracles.matching_number_oracle(g) == 5
    assert inv.max_deg == inv.min_deg == 3


def test_invariants_zero_vertices():
    inv = invariants(empty(0))
    assert (inv.omega, inv.alpha, inv.max_deg, inv.min_deg, inv.nu) == (0, 0, 0, 0, 0)


def test_invariants_match_oracles_small():
    for n in range(1, 6):
        for g in all_graphs(n):
            inv = invariants(g)
            assert inv.omega == oracles.clique_number_oracle(g)
            assert inv.alpha == oracles.independence_number_oracle(g)
            assert inv.nu == oracles.matching_number_oracle(g)
            assert inv.alpha == clique_number(g.complement())


def test_matching_bounds():
    for n in range(1, 7):
        assert matching_number(complete(n)) == n // 2
        assert matching_number(empty(n)) == 0


def test_clique_and_matching_oracle_at_seven():
    # beyond the exhaustive range: seeded random 7-vertex graphs
    rng = random.Random(7777)
    for _ in range(300):
        g = er_random(7, rng.random(), seed=rng.getrandbits(32))
        assert clique_number(g) == oracles.clique_number_oracle(g)
        assert matching_number(g) == oracles.matching_number_oracle(g)


def test_matching_oracle_on_dense_graphs():
    # dense graphs are where the search stops at floor(n / 2)
    rng = random.Random(8080)
    for n in (8, 9, 10):
        for p in (0.5, 0.7, 0.9):
            for _ in range(8):
                g = er_random(n, p, seed=rng.getrandbits(32))
                assert matching_number(g) == oracles.matching_number_oracle(g)


# --- exhaustive enumeration -------------------------------------------------


def test_all_graphs_counts():
    assert [len(all_graphs(n)) for n in range(7)] == [1, 1, 2, 4, 11, 34, 156]


def test_all_graphs_canonical_and_distinct():
    for n in range(0, 6):
        reps = all_graphs(n)
        masks = [oracles.graph_to_mask(g) for g in reps]
        assert masks == sorted(masks)
        assert all(canonical_mask(n, m) == m for m in masks)
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert not oracles.are_isomorphic(reps[i], reps[j])


def test_all_graphs_matches_oracle():
    for n in range(EXHAUSTIVE_MAX_N + 1):
        assert all_graphs(n) == oracles.all_graphs_oracle(n)


def test_canonical_mask_matches_oracle():
    rng = random.Random(2024)
    for n in range(8):
        width = n * (n - 1) // 2
        masks = {0, (1 << width) - 1}
        for _ in range(6):
            masks.add(rng.getrandbits(width))
            masks.add(rng.getrandbits(width) & rng.getrandbits(width))  # sparser
        if n >= 3:
            masks.add(oracles.graph_to_mask(cycle(n)))
        for mask in sorted(masks):
            assert canonical_mask(n, mask) == oracles.canonical_mask_oracle(n, mask)


def test_all_graphs_guard():
    with pytest.raises(ValueError, match="n <= 6"):
        all_graphs(7)


def test_mask_round_trip():
    for g in all_graphs(5):
        assert graph_from_mask(5, oracles.graph_to_mask(g)) == g


@pytest.mark.parametrize("helper", [canonical_mask, graph_from_mask])
@pytest.mark.parametrize("n, mask", [(3, 8), (4, 1 << 6), (3, -1), (0, 1), (-1, 0)])
def test_mask_helpers_reject_out_of_range(helper, n, mask):
    with pytest.raises(ValueError, match="negative size" if n < 0 else "outside"):
        helper(n, mask)


def test_canonical_mask_refuses_past_orbit_cap():
    assert canonical_mask(ORBIT_MAX_N, 6) == 3
    with pytest.raises(ValueError, match=f"n <= {ORBIT_MAX_N}"):
        canonical_mask(ORBIT_MAX_N + 1, 0)


@pytest.mark.parametrize("method", ["induced"])
@pytest.mark.parametrize("vertex", [-1, 5, 9])
def test_vertex_helpers_reject_outside_vertices(method, vertex):
    with pytest.raises(ValueError, match=r"vertex outside 0\.\.4"):
        getattr(cycle(5), method)([0, vertex])


@pytest.fixture(scope="module")
def census7():
    """The n = 7 census, built past the public cap without entering the
    ``all_graphs`` cache, so ``all_graphs(7)`` still refuses."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "EXHAUSTIVE_MAX_N", 7)
        return graphs.all_graphs.__wrapped__(7)


def test_census_at_7(census7):
    masks = [oracles.graph_to_mask(g) for g in census7]
    assert len(masks) == 1044  # OEIS A000088
    assert all(a < b for a, b in zip(masks, masks[1:]))
    for mask in random.Random(7044).sample(masks, 40):
        assert oracles.canonical_mask_oracle(7, mask) == mask
    with pytest.raises(ValueError, match="n <= 6"):
        all_graphs(7)


def test_census_matches_graph_atlas(census7):
    nx = pytest.importorskip("networkx")
    atlas = {}
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        g = Graph.from_edges(n, h.edges())
        atlas.setdefault(n, []).append(canonical_mask(n, oracles.graph_to_mask(g)))
    assert sorted(atlas) == list(range(8))
    for n in range(8):
        census = census7 if n == 7 else all_graphs(n)
        assert sorted(atlas[n]) == [oracles.graph_to_mask(g) for g in census]
