import random
from itertools import combinations

import pytest

import oracles
from stingycolor import (
    Coloring,
    ColoringProperty,
    FrameProperty,
    GuardExceededError,
    Guards,
    PartitionError,
    PropertyUnsatisfiableError,
    all_graphs,
    b_r,
    bounded_stats,
    check_complete_condition,
    check_frame3_sufficiency,
    chi_p,
    chromatic_number,
    complete,
    cycle,
    empty,
    enumerate_colorings,
    enumerate_optimal_colorings,
    er_random,
    independence_number,
    is_frame_property,
    is_proper,
    is_singleton_friendly,
    one_optimal_coloring,
    path,
    petersen,
    stats,
)
from stingycolor import coloring
from stingycolor.coloring import (
    BoundedStats,
    _best_partition_score,
    _color_bb,
    _enum_partitions,
    _greedy_dsatur,
    _score_ceiling,
    enumerate_p_optimal,
    merge_singletons,
)
from stingycolor.graphs import Graph, bits, clique_number, graph_from_mask
from stingycolor.suites import exhaustive_graphs


def canon_set(colorings):
    return {frozenset(frozenset(cls) for cls in c.classes) for c in colorings}


# --- Coloring basics --------------------------------------------------------


def test_canonical_order():
    c = Coloring.of([[4], [1, 3], [0, 2]])
    assert c.classes == ((4,), (0, 2), (1, 3))
    assert c.frame() == (1, 2, 2)
    assert c.small() == 5


def test_coloring_rejects_overlap_and_empty():
    with pytest.raises(ValueError, match="overlap"):
        Coloring.of([[0, 1], [1, 2]])
    with pytest.raises(ValueError, match="empty"):
        Coloring.of([[0], []])


def test_from_masks_matches_of_on_partition_stream():
    for g in exhaustive_graphs(0, 6):
        for masks in _enum_partitions(g.adj, g.n, None, None):
            assert Coloring.from_masks(masks) == Coloring.of(
                [list(bits(m)) for m in masks])


@pytest.mark.parametrize("masks, message", [
    ([0b011, 0], "empty"),
    ([0, 0b011], "empty"),
    ([0b011, 0b110], "overlap"),
    ([0b001, 0b110, 0b100], "overlap"),
    ([-1], "negative"),
    ([0b00101, 0b01010, 0b10000, -1], "negative"),
])
def test_from_masks_errors_match_of(masks, message):
    with pytest.raises(ValueError, match=message) as by_masks:
        Coloring.from_masks(masks)
    # bits() never ends on a negative mask, which stands here for the class
    # holding that negative label.
    with pytest.raises(ValueError) as by_lists:
        Coloring.of([list(bits(m)) if m >= 0 else [m] for m in masks])
    assert str(by_masks.value) == str(by_lists.value)


def test_is_proper(c5):
    assert is_proper(c5, Coloring.of([[0, 2], [1, 3], [4]]))
    assert not is_proper(c5, Coloring.of([[0, 1], [2, 3], [4]]))
    assert is_proper(complete(1), Coloring.of([[0]]))


def test_is_proper_partition_error(c5):
    with pytest.raises(PartitionError):
        is_proper(c5, Coloring.of([[0, 2], [1, 3]]))
    with pytest.raises(PartitionError):
        is_proper(c5, Coloring.of([[0, 2], [1, 3], [4, 5]]))


# --- chromatic number -------------------------------------------------------


def test_chromatic_examples(c5, k4, pete):
    assert chromatic_number(k4) == 4
    assert chromatic_number(c5) == 3
    assert chromatic_number(pete) == 3
    assert chromatic_number(empty(0)) == 0
    assert chromatic_number(empty(7)) == 1


def test_chromatic_matches_oracle_small():
    for n in range(0, 6):
        for g in all_graphs(n):
            assert chromatic_number(g) == oracles.chromatic_number_oracle(g)


def test_chromatic_petersen_via_oracle(pete):
    assert oracles.chromatic_number_oracle(pete) == 3


def test_colorable_matches_subgraph_chromatic_number(monkeypatch):
    # colorable(g, k, drop) decides k <= 2 on g's own rows: it must agree
    # with the oracle (n <= 6) and the search (n = 7..10) on the kept
    # subgraph, reach every branch with both answers, and for k <= 2 build
    # no subgraph and search nothing.
    calls = {"induced": 0, "chi": 0}
    induced, chi = Graph._induced_mask, coloring.chromatic_number

    def counted_induced(self, keep):
        calls["induced"] += 1
        return induced(self, keep)

    def counted_chi(g, cap=None):
        calls["chi"] += 1
        return chi(g, cap)

    monkeypatch.setattr(Graph, "_induced_mask", counted_induced)
    monkeypatch.setattr(coloring, "chromatic_number", counted_chi)
    seen = set()

    def check(g, drop, expected_chi):
        for k in range(g.n + 2):
            before = dict(calls)
            answer = coloring.colorable(g, k, drop)
            assert answer == (expected_chi <= k), (g.adj, k, drop)
            if k <= 2:
                assert calls == before, (g.adj, k, drop)
            seen.add((min(k, 3), answer))

    def drops(n):
        return [0] + [1 << a for a in range(n)] + [
            1 << a | 1 << b for a, b in combinations(range(n), 2)]

    for g in exhaustive_graphs(0, 6):
        for drop in drops(g.n):
            kept = [v for v in range(g.n) if not drop >> v & 1]
            check(g, drop, oracles.chromatic_number_oracle(g.induced(kept)))
    rng = random.Random(2929)
    for n in range(7, 11):
        pairs = n * (n - 1) // 2
        for frac in (0.2, 0.5, 0.8):
            for _ in range(3):
                g = _gnm(n, round(frac * pairs), rng)
                for drop in drops(n):
                    check(g, drop, chi(induced(g, (1 << n) - 1 & ~drop)))
    assert seen == {(k, answer) for k in range(4) for answer in (True, False)}, seen


# --- optimal coloring enumeration -------------------------------------------


def test_enumerate_k3_single():
    got = list(enumerate_optimal_colorings(complete(3)))
    assert [c.classes for c in got] == [((0,), (1,), (2,))]


def test_enumerate_c4_single():
    got = list(enumerate_optimal_colorings(cycle(4)))
    assert [c.classes for c in got] == [((0, 2), (1, 3))]


def test_enumerate_c5(c5):
    got = list(enumerate_optimal_colorings(c5))
    assert len(got) == 5
    assert all(c.frame() == (1, 2, 2) for c in got)


def test_enumeration_matches_oracle_and_is_unique():
    for n in range(0, 6):
        for g in all_graphs(n):
            got = list(enumerate_optimal_colorings(g))
            assert len(got) == len(canon_set(got))  # each exactly once
            assert canon_set(got) == oracles.optimal_colorings_oracle(g)


def test_enumeration_deterministic(c5):
    first = [c.classes for c in enumerate_optimal_colorings(c5)]
    second = [c.classes for c in enumerate_optimal_colorings(c5)]
    assert first == second


def test_enumeration_guard():
    g = empty(11)
    with pytest.raises(GuardExceededError):
        list(enumerate_optimal_colorings(g))
    with pytest.raises(GuardExceededError):
        list(enumerate_colorings(empty(9)))
    # guards are configurable
    assert len(list(enumerate_colorings(empty(3), Guards(full=3)))) == 5


# --- stinginess -------------------------------------------------------------


def test_stats_examples(c5, pete):
    assert stats(complete(5)).iota == 5
    assert stats(c5).iota == 1
    assert stats(pete).iota == 0
    assert stats(empty(0)).iota == 0


def test_stats_witness_is_valid(c5):
    st = stats(c5)
    assert is_proper(c5, st.stingy_witness)
    assert len(st.stingy_witness) == st.chi
    assert len(st.stingy_witness.singleton_vertices()) == st.iota


def test_stats_matches_enumeration_oracle():
    for n in range(0, 6):
        for g in all_graphs(n):
            st = stats(g)
            assert st.iota == oracles.iota_oracle(g)
            # second, in-package route: maximize over the enumeration stream
            via_enum = max(
                (len(c.singleton_vertices()) for c in enumerate_optimal_colorings(g)),
                default=0,
            )
            assert st.iota == via_enum


def _gnm(n, m, rng):
    """Seeded G(n, M): exactly m of the n(n-1)/2 pairs are edges."""
    pairs = n * (n - 1) // 2
    return graph_from_mask(n, sum(1 << i for i in rng.sample(range(pairs), m)))


def _score_oracle_graphs():
    graphs = list(exhaustive_graphs(0, 6))
    rng = random.Random(5150)
    for n in (7, 8, 9):
        pairs = n * (n - 1) // 2
        for frac in (0.2, 0.5, 0.75, 0.9):
            graphs += [_gnm(n, round(frac * pairs), rng) for _ in range(3)]
    return graphs


def test_best_partition_score_pins_first_maximum():
    # The search must return the maximum over the same partition stream and
    # the first partition in that stream attaining it, for k = chi_cap and
    # for a k that is not optimal (its early exit must not rely on k = chi).
    for g in _score_oracle_graphs():
        for cap in (None, 1, 2, 3, 4):
            chi_cap = chromatic_number(g, cap)
            for k in range(chi_cap, min(g.n, chi_cap + 1) + 1):
                stream = list(_enum_partitions(g.adj, g.n, k, cap))
                for target in (1, 2, 3, 4):
                    best, witness = -1, []
                    for masks in stream:
                        got = sum(1 for m in masks if m.bit_count() == target)
                        if got > best:
                            best, witness = got, masks
                    assert _best_partition_score(g, k, cap, target) == (
                        best, witness), (g.n, g.adj, cap, k, target)


def test_best_partition_score_at_k_equal_n_is_discrete():
    # Only the discrete partition has n classes: at target 1 it scores n,
    # at target r >= 2 it scores 0.
    for g in _score_oracle_graphs():
        discrete = [1 << v for v in range(g.n)]
        assert list(_enum_partitions(g.adj, g.n, g.n, None)) == [discrete]
        for cap in (None, 1, 2, 3):
            for target, want in ((1, g.n), (2, 0), (3, 0)):
                assert _best_partition_score(g, g.n, cap, target) == (
                    want, discrete), (g.adj, cap, target)


def _grotzsch():
    """The Mycielskian of C5: triangle-free with chi = 4."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, (i + d) % 5) for i in range(5) for d in (1, 4)]
    edges += [(5 + i, 10) for i in range(5)]
    return Graph.from_edges(11, edges)


def test_search_past_first_descent_matches_oracles():
    # DSATUR's greedy coloring is the search's first descent; the search
    # proper runs only when it uses more classes than the lower bound. Cover
    # that branch, including cases where the search improves on the greedy.
    grotzsch = _grotzsch()
    assert clique_number(grotzsch) == 2
    assert len(_greedy_dsatur(grotzsch.adj, 11, None)) > 2
    assert chromatic_number(grotzsch) == oracles.chromatic_number_oracle(grotzsch) == 4
    rng = random.Random(8)
    searched = improved = 0
    for n, per_cell in ((8, 24), (9, 8)):
        pairs = n * (n - 1) // 2
        for frac in (0.5, 0.6, 0.7, 0.8):
            for _ in range(per_cell):
                g = _gnm(n, round(frac * pairs), rng)
                for cap in (None, 2, 3):
                    lower = max(clique_number(g), -(-n // cap) if cap else 0)
                    greedy = len(_greedy_dsatur(g.adj, n, cap))
                    if greedy == lower:
                        continue
                    searched += 1
                    k, masks = _color_bb(g, cap)
                    improved += k < greedy
                    witness = Coloring.from_masks(masks)
                    assert is_proper(g, witness) and len(witness) == k
                    if cap is None:
                        assert k == oracles.chromatic_number_oracle(g)
                    else:
                        assert max(len(cls) for cls in witness.classes) <= cap
                        bs = bounded_stats(g, cap)
                        assert k == bs.chi_r
                        assert (bs.chi_r, bs.m_r, bs.iota_r) == oracles.bounded_oracle(g, cap)
    assert searched >= 20 and improved >= 3, (searched, improved)


def test_sampled_coloring_matches_relabeled_route():
    # Breaking DSATUR ties by the seeded shuffle's rank gives the coloring of
    # the older route, which colored a relabeled copy and mapped it back, and
    # leaves the rng in the same state, so every later sample agrees too.
    graphs = list(exhaustive_graphs(0, 6))
    for n in range(7, 12):
        for i, p in enumerate((0.3, 0.5, 0.7)):
            graphs += [er_random(n, p, seed=1000 * n + 100 * i + k) for k in range(8)]
    searched = dict.fromkeys((None, 1, 2, 3), 0)
    for g in graphs:
        clique = clique_number(g)
        for cap in (None, 1, 2, 3):
            lower = max(clique, -(-g.n // cap) if cap else 0)
            for seed in range(3):
                ours, theirs = random.Random(seed), random.Random(seed)
                assert (one_optimal_coloring(g, cap, ours)
                        == oracles.one_optimal_coloring_relabeled(g, cap, theirs)), (g.adj, cap)
                assert ours.getstate() == theirs.getstate()
                if 0 < lower < g.n:
                    perm = list(range(g.n))
                    random.Random(seed).shuffle(perm)
                    rank = [perm.index(v) for v in range(g.n)]
                    searched[cap] += len(_greedy_dsatur(g.adj, g.n, cap, rank)) > lower
    # the rank also orders the branch and bound's branching, not only the
    # greedy: uncapped and at caps 2 and 3 the search runs past the greedy
    assert min(searched[cap] for cap in (None, 2, 3)) >= 10, searched


def test_greedy_pick_by_list_max_matches_set_reference():
    # Picking the largest entry of the key list, colored vertices at -1, gives
    # the class masks of the pick by max over a set of uncolored vertices,
    # with and without a rank and under every cap.
    graphs = list(exhaustive_graphs(0, 6))
    rng = random.Random(2525)
    graphs += [er_random(n, p, seed=rng.getrandbits(32))
               for n in range(7, 15) for p in (0.2, 0.5, 0.8) for _ in range(3)]
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        for rank in (None, perm):
            for cap in (None, 1, 2, 3):
                assert (_greedy_dsatur(g.adj, g.n, cap, rank)
                        == oracles.greedy_dsatur_reference(g.adj, g.n, cap, rank)), (g.adj, cap)


def test_iota_at_most_chi_and_singletons_adjacent():
    for n in range(1, 6):
        for g in all_graphs(n):
            st = stats(g)
            assert st.iota <= st.chi
            for c in enumerate_optimal_colorings(g):
                singles = c.singleton_vertices()
                for a, b in combinations(singles, 2):
                    assert g.has_edge(a, b)


# --- r-bounded --------------------------------------------------------------


def test_bounded_examples(c5, k4):
    bs = bounded_stats(c5, 2)
    assert (bs.chi_r, bs.m_r, bs.iota_r) == (3, 2, 1)
    bs = bounded_stats(cycle(6), 3)
    assert (bs.chi_r, bs.m_r, bs.iota_r) == (2, 2, 0)
    for r in (1, 2, 3, 4):
        bs = bounded_stats(k4, r)
        assert bs.chi_r == 4 and bs.iota_r == 4
        assert bs.m_r == (4 if r == 1 else 0)


def test_bounded_witnesses(c5):
    bs = bounded_stats(c5, 2)
    for witness in (bs.m_witness, bs.iota_witness):
        assert is_proper(c5, witness)
        assert len(witness) == bs.chi_r
        assert max(len(cls) for cls in witness.classes) <= 2
    assert sum(1 for cls in bs.m_witness.classes if len(cls) == 2) == bs.m_r
    assert len(bs.iota_witness.singleton_vertices()) == bs.iota_r


def test_bounded_matches_oracle():
    for n in range(1, 6):
        for g in all_graphs(n):
            for r in (1, 2, 3):
                bs = bounded_stats(g, r)
                assert (bs.chi_r, bs.m_r, bs.iota_r) == oracles.bounded_oracle(g, r)


def test_bounded_stats_at_cap_from_alpha_on_matches_capped_searches():
    # At r >= alpha no independent set exceeds the cap, so bounded_stats
    # takes chi_r, iota_r and its witness from the uncapped search; it must
    # equal the capped searches, masks included. r = alpha - 1 is covered too.
    for g in _score_oracle_graphs():
        alpha = independence_number(g)
        for r in range(max(1, alpha - 1), alpha + 2):
            chi_r, _ = _color_bb(g, r)
            m_r, m_masks = _best_partition_score(g, chi_r, r, r)
            iota_r, i_masks = _best_partition_score(g, chi_r, r, 1)
            assert bounded_stats(g, r) == BoundedStats(
                r, chi_r, m_r, iota_r, tuple(m_masks), tuple(i_masks)), (g.adj, r)


def _derived_value_graphs():
    """Every class with n <= 6 and seeded G(n, M) graphs at n = 7..10."""
    graphs = list(exhaustive_graphs(0, 6))
    rng = random.Random(1616)
    for n in range(7, 11):
        pairs = n * (n - 1) // 2
        for frac in (0.2, 0.5, 0.8):
            graphs += [_gnm(n, round(frac * pairs), rng) for _ in range(4)]
    return graphs


def test_chi_2_read_from_complement_matching():
    # chi_2 is read as n - nu(complement), not searched; it must equal the
    # capped branch and bound and, up to n = 7, the brute-force oracle.
    for g in _derived_value_graphs():
        chi_2 = chromatic_number(g, cap=2)
        assert chi_2 == _color_bb(g, 2)[0], g.adj
        if g.n <= 7:
            assert chi_2 == oracles.bounded_oracle(g, 2)[0], g.adj


def test_alpha_capped_searches_match_uncapped():
    # stats caps the stinginess search at alpha, and bounded_stats caps the
    # M_r search at min(r, alpha) and reads M_2 = n - chi_2 with the iota_2
    # witness. Values and witnesses must be those of the searches without
    # these caps, also at a k above the optimum, and up to n = 7 the
    # brute-force oracle's values.
    for g in _derived_value_graphs():
        alpha = independence_number(g)
        st = stats(g)
        assert (st.iota, list(st.stingy_masks)) == _best_partition_score(
            g, st.chi, None, 1), g.adj
        for k in range(st.chi, min(g.n, st.chi + 1) + 1):
            assert (_best_partition_score(g, k, alpha, 1)
                    == _best_partition_score(g, k, None, 1)), (g.adj, k)
        for r in (1, 2, 3, 4):
            bs = bounded_stats(g, r)
            assert (bs.m_r, list(bs.m_masks)) == _best_partition_score(
                g, bs.chi_r, r, r), (g.adj, r)
            if g.n <= 7:
                assert (bs.chi_r, bs.m_r, bs.iota_r) == oracles.bounded_oracle(g, r)
            for k in range(bs.chi_r, min(g.n, bs.chi_r + 1) + 1):
                assert (_best_partition_score(g, k, min(r, alpha), r)
                        == _best_partition_score(g, k, r, r)), (g.adj, r, k)


def test_score_ceiling_is_zero_below_target():
    # No class of a partition with classes of at most cap < target vertices
    # has target vertices.
    for n in range(1, 11):
        for k in range(1, n + 1):
            for target in (2, 3, 4):
                for cap in range(1, target):
                    assert _score_ceiling(n, k, cap, target) == 0
                assert _score_ceiling(n, k, target, target) == min(
                    k, n // target, (n - k) // (target - 1))


def test_chi_r_monotonicity():
    for n in range(1, 6):
        for g in all_graphs(n):
            chi = chromatic_number(g)
            alpha = independence_number(g)
            values = [chromatic_number(g, cap=r) for r in range(1, n + 2)]
            assert values[0] == g.n
            assert all(a >= b for a, b in zip(values, values[1:]))
            for r in range(alpha, n + 2):
                assert chromatic_number(g, cap=r) == chi


def test_one_optimal_coloring_seeded(c5):
    det = one_optimal_coloring(c5)
    assert is_proper(c5, det) and len(det) == 3
    a = one_optimal_coloring(c5, rng=random.Random(5))
    b = one_optimal_coloring(c5, rng=random.Random(5))
    assert a == b
    assert is_proper(c5, a) and len(a) == 3
    capped = one_optimal_coloring(petersen(), cap=2, rng=random.Random(1))
    assert max(len(cls) for cls in capped.classes) <= 2
    assert len(capped) == chromatic_number(petersen(), cap=2)


@pytest.mark.parametrize("cap", [0, -1])
@pytest.mark.parametrize("seed", [None, 1])
def test_one_optimal_rejects_nonpositive_cap(c5, cap, seed):
    # The same refusal as chromatic_number's, not a ZeroDivisionError (cap 0)
    # or a coloring that ignores the cap (cap -1).
    rng = None if seed is None else random.Random(seed)
    with pytest.raises(ValueError, match="cap must be positive"):
        one_optimal_coloring(c5, cap, rng)


# --- chi_P ------------------------------------------------------------------


def test_chi_p_b1_is_order(c5):
    value, witness = chi_p(c5, b_r(1))
    assert value == 5
    assert witness.frame() == (1, 1, 1, 1, 1)


def test_chi_p_all_is_chi(c5):
    prop = ColoringProperty(lambda c: True, "all")
    assert chi_p(c5, prop)[0] == 3


def test_chi_p_b2_c5(c5):
    assert chi_p(c5, b_r(2))[0] == 3


def test_chi_p_unsatisfiable(c5):
    with pytest.raises(PropertyUnsatisfiableError):
        chi_p(c5, ColoringProperty(lambda c: False, "never"))


def test_chi_p_agrees_with_bounded_stats():
    for n in range(1, 6):
        for g in all_graphs(n):
            for r in (1, 2, 3):
                assert chi_p(g, b_r(r))[0] == bounded_stats(g, r).chi_r


# --- property framework -----------------------------------------------------


def test_b_r_flags():
    # B_r carries no declared flags: it is a frame property by construction,
    # and the check finds it singleton-friendly only for r >= 2.
    two = empty(2)
    assert is_frame_property(two, b_r(1))
    assert not is_singleton_friendly(two, b_r(1))
    assert is_singleton_friendly(two, b_r(2))
    with pytest.raises(ValueError):
        b_r(0)


def test_b_r_predicate(c5):
    assert b_r(2)(Coloring.of([[0, 2], [1, 3], [4]]))
    assert not b_r(2)(Coloring.of([[0, 2, 4], [1, 3, 5]]))
    assert b_r(3)(Coloring.of([[0, 2, 4], [1, 3, 5]]))


def test_b_r_passes_checks_small():
    for n in range(0, 5):
        for g in all_graphs(n):
            for r in (2, 3):
                assert is_frame_property(g, b_r(r))
                assert is_singleton_friendly(g, b_r(r))
                assert check_frame3_sufficiency(g, b_r(r))


def test_vertex_pinning_is_not_frame_property(c5):
    prop = ColoringProperty(
        lambda c: any(cls == (0,) for cls in c.classes), "v0-singleton"
    )
    assert not is_frame_property(c5, prop)


def test_empty_property_trivially_passes(c5):
    prop = ColoringProperty(lambda c: False, "empty")
    assert is_frame_property(c5, prop)
    assert is_singleton_friendly(c5, prop)
    assert check_frame3_sufficiency(c5, prop)
    assert check_complete_condition(c5, prop)


def test_b1_not_singleton_friendly_on_p3():
    p3 = path(3)
    assert not is_singleton_friendly(p3, b_r(1))


def test_merge_singletons():
    c = Coloring.of([[0], [2], [1, 3]])
    merged = merge_singletons(c, 0, 2)
    assert merged.classes == ((0, 2), (1, 3))
    with pytest.raises(ValueError):
        merge_singletons(c, 0, 1)


def test_at_most_one_singleton_on_c5(c5):
    """A frame property that is singleton-friendly yet fails both the
    frame>=3 sufficient condition and the (small, frame>=3) condition: the
    sufficient condition is genuinely not necessary, and the claimed
    equivalence genuinely fails here."""
    prop = ColoringProperty(
        lambda c: len(c.singleton_vertices()) <= 1, "at-most-1-singleton"
    )
    assert is_frame_property(c5, prop)
    assert is_singleton_friendly(c5, prop)
    assert not check_frame3_sufficiency(c5, prop)
    assert not check_complete_condition(c5, prop)


def test_p4_complete_condition_study(p4):
    """Exhaustive study over all predicates on P4's five colorings.

    P4 has colorings with frames (1,1,1,1), (1,1,2) x3, (2,2); all share
    small-count 4 and empty frame>=3, so the (small, frame>=3) condition
    only accepts the empty and full predicates. But the bipartition-only
    predicate and its union with the (1,1,2) class are frame properties and
    vacuously singleton-friendly, so the claimed equivalence fails for
    exactly those two predicates. The frame>=3 implication never fails.
    """
    colorings = list(enumerate_colorings(p4))
    assert len(colorings) == 5
    assert sorted(c.frame() for c in colorings) == [
        (1, 1, 1, 1), (1, 1, 2), (1, 1, 2), (1, 1, 2), (2, 2)]

    bipartition = Coloring.of([[0, 2], [1, 3]])
    two_frames = frozenset(c for c in colorings if c.frame() != (1, 1, 1, 1))
    expected_mismatches = {frozenset([bipartition]), two_frames}

    mismatches = set()
    for picks in range(1 << len(colorings)):
        chosen = frozenset(c for i, c in enumerate(colorings) if picks >> i & 1)
        prop = ColoringProperty(lambda c, s=chosen: c in s, f"subset-{picks}")
        fp = is_frame_property(p4, prop)
        sf = is_singleton_friendly(p4, prop)
        f3 = check_frame3_sufficiency(p4, prop)
        cc = check_complete_condition(p4, prop)
        if f3:
            assert fp and sf
        if cc != (fp and sf):
            assert fp and sf and not cc  # only this direction can break
            mismatches.add(chosen)
    assert mismatches == expected_mismatches


def test_k3_has_single_coloring_and_no_mismatch():
    k3 = complete(3)
    colorings = list(enumerate_colorings(k3))
    assert len(colorings) == 1
    for chosen in (frozenset(), frozenset(colorings)):
        prop = ColoringProperty(lambda c, s=chosen: c in s, "subset")
        both = is_frame_property(k3, prop) and is_singleton_friendly(k3, prop)
        assert check_complete_condition(k3, prop) == both
        assert check_frame3_sufficiency(k3, prop) == both


# --- closure of the property families ---------------------------------------


def _random_frame_property(g, colorings, rng):
    frames = sorted({c.frame() for c in colorings})
    chosen = frozenset(f for f in frames if rng.random() < 0.5)
    return ColoringProperty(lambda c: c.frame() in chosen, "rand-frame")


def _merge_closed_frames(g, colorings, seed_frames):
    """Close a frame set under the merges actually available on g."""
    closed = set(seed_frames)
    changed = True
    while changed:
        changed = False
        for c in colorings:
            if c.frame() not in closed:
                continue
            singles = c.singleton_vertices()
            for a, b in combinations(singles, 2):
                if g.has_edge(a, b):
                    continue
                f = merge_singletons(c, a, b).frame()
                if f not in closed:
                    closed.add(f)
                    changed = True
    return closed


def test_frame_properties_closed_under_union_and_intersection(c5):
    colorings = list(enumerate_colorings(c5))
    rng = random.Random(101)
    for _ in range(25):
        p1 = _random_frame_property(c5, colorings, rng)
        p2 = _random_frame_property(c5, colorings, rng)
        union = ColoringProperty(lambda c: p1(c) or p2(c), "union")
        inter = ColoringProperty(lambda c: p1(c) and p2(c), "inter")
        assert is_frame_property(c5, union)
        assert is_frame_property(c5, inter)


def test_singleton_friendly_closed_under_union_and_intersection(c5):
    colorings = list(enumerate_colorings(c5))
    frames = sorted({c.frame() for c in colorings})
    rng = random.Random(202)

    def random_sffp():
        seed_frames = [f for f in frames if rng.random() < 0.5]
        closed = _merge_closed_frames(c5, colorings, seed_frames)
        return ColoringProperty(lambda c: c.frame() in closed, "rand-sffp")

    for _ in range(25):
        p1, p2 = random_sffp(), random_sffp()
        assert is_frame_property(c5, p1) and is_singleton_friendly(c5, p1)
        union = ColoringProperty(lambda c: p1(c) or p2(c), "union")
        inter = ColoringProperty(lambda c: p1(c) and p2(c), "inter")
        for combined in (union, inter):
            assert is_frame_property(c5, combined)
            assert is_singleton_friendly(c5, combined)


# --- guards -----------------------------------------------------------------


def test_stats_guard():
    with pytest.raises(GuardExceededError):
        stats(er_random(11, 0.5, seed=3))
    with pytest.raises(GuardExceededError):
        bounded_stats(er_random(11, 0.5, seed=3), 2)
    # B_r is a frame property, so chi_P runs under the optimal guard; any
    # other property scans every partition under the full guard.
    with pytest.raises(GuardExceededError):
        chi_p(er_random(11, 0.5, seed=3), b_r(2))
    with pytest.raises(GuardExceededError):
        chi_p(er_random(9, 0.5, seed=3), ColoringProperty(b_r(2), "B_2 as coloring predicate"))


@pytest.mark.parametrize("refuse, message", [
    (stats, "stinginess guarded at n <= 10 (graph has 11)"),
    (lambda g: bounded_stats(g, 2), "r-bounded stats guarded at n <= 10 (graph has 11)"),
    (lambda g: list(enumerate_optimal_colorings(g)),
     "optimal coloring enumeration guarded at n <= 10 (graph has 11)"),
    (lambda g: list(enumerate_colorings(g)),
     "full coloring enumeration guarded at n <= 8 (graph has 11)"),
    (lambda g: chi_p(g, b_r(2)), "chi_P guarded at n <= 10 (graph has 11)"),
    (lambda g: chi_p(g, ColoringProperty(lambda c: True, "all")),
     "chi_P guarded at n <= 8 (graph has 11)"),
], ids=["stats", "bounded_stats", "enumerate_optimal_colorings", "enumerate_colorings",
        "chi_p-frame", "chi_p-coloring"])
def test_guard_messages(refuse, message):
    # The messages reach not-evaluated records and the CLI's stderr verbatim.
    with pytest.raises(GuardExceededError) as exc:
        refuse(er_random(11, 0.5, seed=3))
    assert str(exc.value) == message


# --- the P-optimal route against brute force ---------------------------------


def test_p_optimal_route_against_brute_force():
    # Each predicate picks a subset of the oracle's proper colorings, so its
    # P-optimal colorings are the members of that subset with fewest classes.
    rng = random.Random(2020)
    above_chi = unsatisfiable = 0
    for g in exhaustive_graphs(0, 5):
        proper = sorted((Coloring.of(b) for b in oracles.partitions_up_to_k(g.n, g.n)
                         if oracles.is_proper_blocks(g, b)), key=lambda c: c.classes)
        chi = min(len(c) for c in proper)
        chosen = [frozenset(proper), frozenset(),
                  frozenset(c for c in proper if len(c) > chi)]
        chosen += [frozenset(c for c in proper if rng.random() < 0.5) for _ in range(4)]
        for i, subset in enumerate(chosen):
            prop = ColoringProperty(lambda c, s=subset: c in s, f"subset-{i}")
            if not subset:
                unsatisfiable += 1
                message = f"property 'subset-{i}' unsatisfiable on this graph"
                with pytest.raises(PropertyUnsatisfiableError, match=f"^{message}$"):
                    chi_p(g, prop)
                with pytest.raises(PropertyUnsatisfiableError, match=f"^{message}$"):
                    list(enumerate_p_optimal(g, prop))
                continue
            k = min(len(c) for c in subset)
            above_chi += k > chi
            got = list(enumerate_p_optimal(g, prop))
            assert len(got) == len(set(got)), (g.adj, i)
            assert set(got) == {c for c in subset if len(c) == k}, (g.adj, i)
            assert chi_p(g, prop) == (k, got[0]), (g.adj, i)
    assert above_chi > 0 and unsatisfiable > 0


# --- frame properties against the generic enumeration route -----------------


ALL_FRAMES = FrameProperty(lambda f: True, "all")


def _merge_closure(frames):
    """Close a frame set under merging two 1s into a 2."""
    closed = set(frames)
    todo = list(closed)
    while todo:
        f = todo.pop()
        if f[:2] == (1, 1):
            merged = tuple(sorted(f[2:] + (2,)))
            if merged not in closed:
                closed.add(merged)
                todo.append(merged)
    return closed


def _seeded_frame_predicates():
    frames = [f for n in range(7) for f in ALL_FRAMES.frames(n)]
    preds = []
    for seed in range(3):
        rng = random.Random(seed)
        chosen = frozenset(f for f in frames if rng.random() < 0.5)
        preds.append((f"rand-{seed}", lambda f, s=chosen: f in s))
        closed = frozenset(_merge_closure(f for f in frames if rng.random() < 0.3))
        preds.append((f"merge-closed-{seed}", lambda f, s=closed: f in s))
    preds.append(("two-classes", lambda f: len(f) == 2))
    return preds


def _outcome(fn):
    try:
        return fn()
    except PropertyUnsatisfiableError as exc:
        return ("unsatisfiable", str(exc))


def test_frame_property_agrees_with_generic_route():
    preds = [(f"B_{r}", lambda f, r=r: not f or f[-1] <= r) for r in range(1, 5)]
    preds += _seeded_frame_predicates()
    for g in exhaustive_graphs(0, 6):
        for name, pred in preds:
            fp = FrameProperty(pred, name)
            cp = ColoringProperty(lambda c, pred=pred: pred(c.frame()), name)
            assert is_frame_property(g, fp) == is_frame_property(g, cp)
            assert is_singleton_friendly(g, fp) == is_singleton_friendly(g, cp)
            assert (_outcome(lambda: list(enumerate_p_optimal(g, fp)))
                    == _outcome(lambda: list(enumerate_p_optimal(g, cp))))


def test_b_r_p_optimal_is_optimal_bounded_stream():
    for g in exhaustive_graphs(0, 6):
        for r in range(1, 5):
            assert (list(enumerate_p_optimal(g, b_r(r)))
                    == list(enumerate_optimal_colorings(g, cap=r)))


def test_merge_closure_memo_is_kept_per_property():
    # Equality and hashing ignore the predicate, so these two properties
    # named "P" compare equal; each must keep its own answer at the same n,
    # whichever is asked first.
    g = empty(4)
    for order in (slice(None), slice(None, None, -1)):
        pairs = [(FrameProperty(lambda f: not f or f[-1] <= 3, "P"), True),
                 (FrameProperty(lambda f: 2 not in f, "P"), False)]
        assert pairs[0][0] == pairs[1][0] and hash(pairs[0][0]) == hash(pairs[1][0])
        for _ in range(2):
            for p, friendly in pairs[order]:
                assert is_singleton_friendly(g, p) is friendly


def test_b1_friendly_on_complete_graphs_only_by_enumeration():
    # The frame check fails for B_1 (two 1s merge into a 2), so the colorings
    # decide: on K_n no two singletons can merge.
    for n in range(2, 7):
        assert is_singleton_friendly(complete(n), b_r(1))
    assert not is_singleton_friendly(path(3), b_r(1))


# --- Joins: values at n = 8..16 without a second implementation --------------


def _join(g: Graph, h: Graph) -> Graph:
    """G ∨ H: g on vertices 0..g.n-1, h after it, every cross pair an edge."""
    left, right = (1 << g.n) - 1, ((1 << h.n) - 1) << g.n
    return Graph(g.n + h.n, tuple([row | right for row in g.adj]
                                  + [row << g.n | left for row in h.adj]))


def test_join_adds_the_chromatic_quantities():
    # Every color class of G ∨ H lies in one side, so its optimal (r-bounded)
    # colorings are pairs of the sides' own: chi, iota, chi_r, M_r and iota_r
    # add, as does omega, while alpha is the larger side's.
    guards = Guards(optimal=40)
    rng = random.Random(2626)
    for _ in range(60):
        g, h = (er_random(rng.randint(4, 8), rng.choice((0.2, 0.5, 0.8)),
                          seed=rng.getrandbits(32)) for _ in range(2))
        j = _join(g, h)
        sides = (g, h)
        assert chromatic_number(j) == sum(chromatic_number(x) for x in sides), (g, h)
        assert stats(j, guards).iota == sum(stats(x, guards).iota for x in sides), (g, h)
        assert clique_number(j) == sum(clique_number(x) for x in sides), (g, h)
        assert independence_number(j) == max(independence_number(x) for x in sides), (g, h)
        for r in (2, 3):
            got = bounded_stats(j, r, guards)
            parts = [bounded_stats(x, r, guards) for x in sides]
            assert (got.chi_r, got.m_r, got.iota_r) == (
                sum(p.chi_r for p in parts), sum(p.m_r for p in parts),
                sum(p.iota_r for p in parts)), (g, h, r)


def test_guards_checked_before_each_read_of_a_kept_value():
    # stats and bounded_stats keep one guard-free value per graph: every call
    # checks its own guard before reading it, and guard settings share it.
    g = er_random(9, 0.5, seed=9)
    loose, tight = Guards(optimal=9), Guards(optimal=8)
    st, bs = stats(g, loose), bounded_stats(g, 3, loose)
    with pytest.raises(GuardExceededError):
        stats(g, tight)
    with pytest.raises(GuardExceededError):
        bounded_stats(g, 3, tight)
    with pytest.raises(ValueError, match="cap must be positive"):
        chromatic_number(g, 0)
    assert stats(g, Guards(optimal=20)) is st
    assert bounded_stats(g, 3, Guards(optimal=20)) is bs
