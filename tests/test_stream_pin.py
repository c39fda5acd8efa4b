"""Pins of the coloring streams behind the lonely claims, as sha256 digests.

The lonely-claim checks read views of the streamed colorings' class masks.
Their records and payloads are pinned: ``full_report`` on seeded G(n, M)
graphs with n = 7, 8, and every violation payload of the per-coloring checks
on every proper coloring (optimal or not) of the classes with n <= 5. Every
stream and witness yields canonical colorings.
"""

import functools
import hashlib
import json
import operator
import random
import sys

import pytest

from stingycolor import (
    Coloring,
    PartitionError,
    all_graphs,
    b_r,
    bounded_stats,
    complete,
    cycle,
    emit_graph6,
    enumerate_colorings,
    er_random,
    evaluate_bounds,
    evaluate_generalized,
    full_report,
    path,
    stats,
)
from stingycolor import lonely
from stingycolor.coloring import (
    enumerate_optimal_colorings,
    enumerate_p_optimal,
    one_optimal_coloring,
)
from stingycolor.graphs import bits, graph_from_mask, per_graph
from stingycolor.lonely import (
    ColoredGraph,
    is_lonely,
    optimal_streams,
)
from stingycolor.coloring import DEFAULT_GUARDS, GuardExceededError, Guards, _enum_partitions
from stingycolor.graphs import independence_number

import oracles


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(repr(line).encode())
        h.update(b"\n")
    return h.hexdigest()


def _gnm_graphs():
    """Three G(n, M) graphs per cell, n = 7, 8 and M = round(p * n(n-1)/2)
    for p = .2, .5, .8."""
    rng = random.Random(7878)
    graphs = []
    for n in (7, 8):
        pairs = n * (n - 1) // 2
        for frac in (0.2, 0.5, 0.8):
            for _ in range(3):
                mask = sum(1 << i for i in rng.sample(range(pairs), round(frac * pairs)))
                graphs.append(graph_from_mask(n, mask))
    return graphs


# sha256 of the JSON lines (the CLI's format) of full_report on _gnm_graphs().
FULL_REPORT_GNM_SHA256 = "be16b2224b00dc32dd2c08dcff9fc2b7b04ff5d8bb80607cc1b018ed46a45b1e"


def test_full_report_gnm_n7_n8_pin():
    text = "".join(json.dumps(full_report(g), sort_keys=True, separators=(",", ":")) + "\n"
                   for g in _gnm_graphs())
    assert hashlib.sha256(text.encode()).hexdigest() == FULL_REPORT_GNM_SHA256


def _checks(cg):
    """Every per-coloring check, at settings where colorings that are not
    optimal fail: the join and touches lemmas hold only for optimal
    colorings, and no vertex has n + 1 lonely out-edges."""
    need = cg.g.n + 1
    yield "join", lonely.join_failures(cg, 3)
    for r in (None, 2, 3):
        yield f"touches-{r}", lonely.touches_failures(cg, r)
    for r in (None, 2):
        yield f"replete-{r}", lonely.replete_failures(cg, r, need)
    yield "swap", lonely.swap_failures(cg)


def _payload_lines(views):
    for cg in views:
        for name, (checks, bad) in _checks(cg):
            yield cg.g.adj, name, checks, bad


# sha256 of _payload_lines over every proper coloring of every class with
# n <= 5: 3654 lines holding 10054 violation payloads.
PAYLOADS_SHA256 = "ec68ac250447cd71324a61a696f8e093c63dc14554d2effdc7290e06d9c12331"


def _small_graphs():
    return [g for n in range(6) for g in all_graphs(n)]


@pytest.mark.parametrize("route", ["coloring", "masks"])
def test_violation_payload_pin(route):
    # "coloring": the public stream; "masks": the raw partition masks behind
    # it, put in order by the checked constructor instead of its stable sort.
    if route == "masks":
        views = (ColoredGraph(g, Coloring.from_masks(masks)) for g in _small_graphs()
                 for masks in _enum_partitions(g.adj, g.n, None, None))
    else:
        views = (ColoredGraph(g, c) for g in _small_graphs() for c in enumerate_colorings(g))
    lines = list(_payload_lines(views))
    assert (len(lines), sum(len(bad) for *_, bad in lines)) == (3654, 10054)
    assert _digest(lines) == PAYLOADS_SHA256


def test_violation_payloads_on_path3_discrete():
    cg = ColoredGraph(path(3), Coloring((0b001, 0b010, 0b100)))
    got = dict(_checks(cg))
    coloring = [[0], [1], [2]]
    assert got["touches-None"] == (3, [{"coloring": coloring, "class": [0]},
                                       {"coloring": coloring, "class": [2]}])
    assert got["replete-2"] == (3, [
        {"coloring": coloring, "class": [v], "lonely_degrees": [d], "needed": 4}
        for v, d in ((0, 1), (1, 2), (2, 1))
    ])
    assert got["swap"] == (2, [])
    assert got["join"][0] == 7 and got["join"][1][0] == {
        "coloring": coloring, "pa": [0], "pb": [1, 2], "missing_edges": [(0, 2)]}


def _join_reference(cg, max_len):
    """join_failures as the pair enumerator and per-edge adjacency give it:
    every pair counts as a check, and a pair with a missing edge u-w (u over
    pa, then w over pb) is a failure."""
    g = cg.g
    checks = 0
    bad = []
    for pair in oracles.enumerate_lonely_path_pairs(g, None, max_len, view=cg):
        checks += 1
        missing = [(u, w) for u in pair.pa for w in pair.pb if not g.has_edge(u, w)]
        if missing:
            bad.append({"coloring": cg.c.as_lists(), "pa": list(pair.pa),
                        "pb": list(pair.pb), "missing_edges": missing})
    return checks, bad


def _join_views():
    """Every proper coloring of the classes with n <= 5 (where colorings that
    are not optimal fail), then every optimal coloring at n = 6 and of the
    G(n, M) graphs."""
    views = [ColoredGraph(g, c) for g in _small_graphs() for c in enumerate_colorings(g)]
    views += [ColoredGraph(g, c) for g in [*all_graphs(6), *_gnm_graphs()]
              for c in enumerate_optimal_colorings(g)]
    return views


def test_join_failures_match_pair_reference():
    # The join check over per-root path lists gives the reference's checks
    # count and payloads, in order, at every path length: on _join_views(),
    # at length 5 too for n <= 5, and on the discrete colorings of K7 and K8,
    # where every vertex is a singleton root.
    k7, k8 = (ColoredGraph(complete(n), Coloring(tuple(1 << v for v in range(n))))
              for n in (7, 8))
    views = [*_join_views(), k7, k8]
    cases = [(cg, max_len) for max_len in (1, 2, 3, 4) for cg in views]
    cases += [(cg, 5) for cg in views if cg.g.n <= 5]
    failures = 0
    for cg, max_len in cases:
        want = _join_reference(cg, max_len)
        assert lonely.join_failures(cg, max_len) == want, (cg.g.adj, cg.masks, max_len)
        failures += len(want[1])
    assert failures
    assert lonely.join_failures(k8, 3)[0] == 19684


def test_root_path_lists_filtered_match_pruned_walk():
    # Each singleton root's path list, filtered by pb_mask & forbidden == 0,
    # is the oracle's walk that prunes at the forbidden vertices, path for
    # path and in order, for every forbidden vertex mask. Every other root's
    # full list is the oracle's walk too: from a root in a larger class a path
    # can come back to that class, which the one-vertex-per-class rule
    # refuses. Each entry carries the path's vertex mask and N(path), the AND
    # of adj over its vertices.
    walked = 0
    for cg in _join_views():
        g = cg.g
        blocks = [list(bits(m)) for m in cg.masks]
        arcs, home = oracles.lonely_arcs_oracle(g, blocks), oracles.class_of(blocks)
        singles = cg.c.singleton_vertices()
        for max_len in (1, 2, 3, 4):
            for root in range(g.n):
                listed = lonely._root_paths(cg, root, max_len)
                for path, mask, common in listed:
                    assert mask == sum(1 << v for v in path)
                    assert common == functools.reduce(operator.and_,
                                                      (g.adj[v] for v in path))
                for forbidden in range(1 << g.n) if root in singles else (0,):
                    got = [p for p, mask, _ in listed if not mask & forbidden]
                    want = oracles.lonely_paths_oracle(arcs, home, root, max_len,
                                                       frozenset(bits(forbidden)))
                    assert got == want, (g.adj, cg.masks, root, max_len, forbidden)
                    walked += len(want)
    assert walked


def test_mask_view_builds_digraph_only_when_read():
    # Every optimal coloring of C5 has one singleton class: touches reads the
    # reach masks, and the join check and the path pairs stop before the
    # digraph, so none of them builds it. The swap check reads it.
    g = cycle(5)
    for c in enumerate_optimal_colorings(g):
        cg = ColoredGraph(g, c)
        for r in (None, 2, 3):
            lonely.touches_failures(cg, r)
        assert lonely.join_failures(cg, 3) == (0, [])
        assert list(oracles.enumerate_lonely_path_pairs(g, None, 3, view=cg)) == []
        assert cg._ld is None
        lonely.swap_failures(cg)
        assert cg._ld is not None


def _stream_graphs():
    """Every class with n <= 6, then the seeded G(n, M) graphs at n = 7, 8."""
    return [g for n in range(7) for g in all_graphs(n)] + _gnm_graphs()


def test_enum_partitions_matches_recursive_reference():
    # The explicit-stack enumerator yields the recursive generator's sequence
    # exactly, for every class count k (and none) and every cap (and none).
    for g in _stream_graphs():
        for k in (None, *range(g.n + 2)):
            for cap in (None, *range(1, g.n + 1)):
                assert list(_enum_partitions(g.adj, g.n, k, cap)) == list(
                    oracles.enum_partitions_oracle(g.adj, g.n, k, cap)), (g.adj, k, cap)


def test_optimal_streams_at_cap_1_and_from_alpha_match_enumeration():
    # Every stream, the uncapped one and each capped one from cap 1 up past
    # alpha, must be the enumerator's stream, mask for mask and in order.
    for g in _stream_graphs():
        caps = range(1, independence_number(g) + 2)
        streams = optimal_streams(g, caps, DEFAULT_GUARDS)
        uncapped = streams[None]
        before = list(uncapped)
        assert [cg.masks for cg in uncapped] == [
            c.masks for c in enumerate_optimal_colorings(g)], g.adj
        shared = {cg.masks: cg for cg in uncapped}
        for cap in caps:
            want = [c.masks for c in enumerate_optimal_colorings(g, cap)]
            assert [cg.masks for cg in streams[cap]] == want, (g.adj, cap)
            # A capped coloring in the uncapped list is read through its view.
            assert all(cg is shared.get(cg.masks, cg) for cg in streams[cap])
        # Building the capped streams leaves the uncapped list as it was.
        assert uncapped == before
    for caps in ((), (1, 4, 5)):
        with pytest.raises(GuardExceededError,
                           match=r"enumeration guarded at n <= 8 \(graph has 9\)"):
            optimal_streams(cycle(9), caps, Guards(optimal=8))


def _streamed_colorings(g, rng):
    """Every stream and witness that yields colorings, on ``g``."""
    if g.n <= 5:
        yield from enumerate_colorings(g)
    for cap in (None, 1, 2, 3):
        yield from enumerate_optimal_colorings(g, cap)
    yield from enumerate_p_optimal(g, b_r(2))
    yield one_optimal_coloring(g)
    yield one_optimal_coloring(g, rng=rng)
    yield stats(g).stingy_witness
    for r in (1, 2, 3, 4):
        bs = bounded_stats(g, r)
        yield bs.m_witness
        yield bs.iota_witness


def test_every_stream_yields_canonical_colorings():
    # The streams wrap their search's masks without checking them again, so
    # each coloring must already be what the validating constructors build.
    rng = random.Random(5151)
    seen = 0
    for g in _stream_graphs():
        for c in _streamed_colorings(g, rng):
            assert c == Coloring.from_masks(c.masks) == Coloring.of(c.classes), (g.adj, c)
            seen += 1
    assert seen


def _cross_check_graphs():
    rng = random.Random(4242)
    graphs = _small_graphs()
    for n in (7, 8, 9):
        for p in (0.2, 0.5, 0.8):
            graphs += [er_random(n, p, seed=rng.getrandbits(32)) for _ in range(3)]
    return graphs


def test_mask_views_match_coloring_views():
    # Seeded cross-check of a view's fields against its coloring: ``reach``
    # holds, per class, the vertices with a neighbour in it, and the lazily
    # built ``ld`` holds exactly the lonely pairs.
    for g in _cross_check_graphs():
        for cap in (None, 2, 3):
            for c in enumerate_optimal_colorings(g, cap):
                cg = ColoredGraph(g, c)
                assert cg.c is c and cg.masks == c.masks
                index = c.class_index_of()
                assert cg.by_vertex == [index[v] for v in range(g.n)]
                assert cg.ld == tuple(
                    sum(1 << w for w in range(g.n) if is_lonely(g, c, v, w))
                    for v in range(g.n))
                assert cg.reach == [
                    sum(1 << v for v in range(g.n) if g.adj[v] & m) for m in c.masks]
                assert list(c.singleton_vertices()) == sorted(c.singleton_vertices())


def test_swap_failures_match_vertex_pair_reference():
    # The two-class swap test (both changed classes independent, their sizes
    # unchanged as a multiset) agrees with swapping each mutually lonely pair
    # and comparing properness and the whole frame.
    for g in list(all_graphs(6)) + _cross_check_graphs():
        for c in enumerate_optimal_colorings(g):
            assert (lonely.swap_failures(ColoredGraph(g, c))
                    == oracles.swap_failures_oracle(g, c)), g.adj


def test_mask_view_errors_match_coloring_view():
    g = cycle(5)
    for masks, error, message in (
        ((0b00101, 0b01010), PartitionError, r"missing \[4\], extra \[\]"),
        ((0b00101, 0b01010, 0b110000), PartitionError, r"missing \[\], extra \[5\]"),
        ((0b00011, 0b01100, 0b10000), ValueError, "coloring is not proper"),
    ):
        with pytest.raises(error, match=message):
            ColoredGraph(g, Coloring.from_masks(masks))


def test_graph6_encoded_once_per_graph(monkeypatch):
    # The bound-claims path (evaluate_bounds plus evaluate_generalized for
    # r = 1, 2, 3) and full_report each name a graph by its graph6 four times.
    # A counting encoder, kept per graph the same way, stands in for
    # emit_graph6 in every module that calls it.
    encoded = []

    def encode(g):
        encoded.append(id(g))
        return emit_graph6.__wrapped__(g)

    counted = per_graph(encode)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "stingycolor" and vars(module).get("emit_graph6") is emit_graph6:
            monkeypatch.setattr(module, "emit_graph6", counted)
    graphs = _gnm_graphs()[:6]
    for g in graphs:
        evaluate_bounds(g)
        for r in (1, 2, 3):
            evaluate_generalized(g, r)
    assert encoded == [id(g) for g in graphs]
    encoded.clear()
    graphs = _gnm_graphs()[:6]
    for g in graphs:
        full_report(g)
    assert encoded == [id(g) for g in graphs]
