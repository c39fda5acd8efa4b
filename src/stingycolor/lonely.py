"""Lonely edges, frame-preserving swaps, and the per-coloring lemma checks.

A directed edge (v, w) is lonely under a coloring when w is the only neighbor
of v inside w's class. A ``ColoredGraph`` view holds one coloring as class
masks, and each structural statement built on lonely edges is a check of one
view returning (checks made, violation payloads): swap safety
(``swap_failures``), the joined-path property of lonely paths out of
singleton classes (``join_failures``), the touches-everybody facts
(``touches_failures``) and the lonely-out-degree lower bounds
(``replete_failures``). The join check walks each singleton root's lonely
paths once into a list of (path, vertex mask, N(path)), N(path) the AND of
``adj[u]`` over u in the path. For roots a < b, the paths pb of b that avoid
a path pa are b's list filtered by ``pb_mask & pa_mask == 0``, in walk order:
exactly the paths a walk from b that never enters pa visits, since a path
avoids pa iff all its prefixes do. pb is joined to pa iff
``pb_mask & ~N(pa) == 0``.
``bounds`` names each claim, states its hypothesis and runs its check over a
coloring stream; ``optimal_views`` builds those streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .graphs import Graph, bits, independence_number, max_clique_mask
from .coloring import (
    Coloring,
    ColoringProperty,
    FrameProperty,
    Guards,
    DEFAULT_GUARDS,
    _partition_error,
    check_optimal_guard,
    chromatic_number,
    enumerate_optimal_masks,
    is_frame_property,
    is_singleton_friendly,
    stats,
)


class SwapError(ValueError):
    """Swap precondition violated; message names the failing direction."""


class PropertyNotApplicableError(ValueError):
    """The property failed the singleton-friendly frame-property check."""


def _lonely_in(g: Graph, by_vertex, masks, v: int, w: int) -> bool:
    """``is_lonely`` on a coloring's class index and class masks."""
    if not (0 <= v < g.n and 0 <= w < g.n):
        raise ValueError(f"vertex out of range: ({v}, {w}) on {g.n} vertices")
    home = by_vertex[w]
    return by_vertex[v] != home and g.adj[v] & masks[home] == 1 << w


def is_lonely(g: Graph, c: Coloring, v: int, w: int) -> bool:
    """True iff v and w sit in different classes and w is v's unique neighbor
    in w's class. Assumes ``c`` is proper on ``g``."""
    return _lonely_in(g, c.class_index_of(), c.class_masks(), v, w)


@dataclass(frozen=True)
class LonelyDigraph:
    """All lonely edges of one (graph, coloring) pair, as out-neighbor bitsets."""

    n: int
    out: tuple[int, ...]

    def has_edge(self, v: int, w: int) -> bool:
        return bool(self.out[v] >> w & 1)

    def out_degree(self, v: int) -> int:
        return self.out[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            for w in bits(self.out[v]):
                yield (v, w)


class ColoredGraph:
    """One proper coloring of a graph, given by its class masks in
    ``Coloring`` order (popcount, lowest bit; ``Coloring.class_masks`` gives
    them), with what the per-coloring lemma checks read from it: the class of
    each vertex, and per class the mask of the vertices with a neighbour in it
    (``reach``, the OR of ``adj`` over its members). The masks are checked to
    partition the vertex set (else PartitionError) and to be independent in
    one pass over each class's members. The lonely digraph ``ld`` and the
    coloring ``c`` are built only when read."""

    __slots__ = ("g", "masks", "by_vertex", "reach", "_ld", "_c")

    def __init__(self, g: Graph, masks: tuple[int, ...]):
        n = g.n
        full = (1 << n) - 1
        covered = 0
        for mask in masks:
            covered |= mask
        if covered != full:
            raise _partition_error(list(bits(full & ~covered)), list(bits(covered & ~full)))
        adj = g.adj
        by_vertex = [0] * n
        reach = []
        for j, mask in enumerate(masks):
            near = 0
            rest = mask
            while rest:
                low = rest & -rest
                v = low.bit_length() - 1
                by_vertex[v] = j
                near |= adj[v]
                rest ^= low
            if near & mask:
                raise ValueError("coloring is not proper")
            reach.append(near)
        self.g = g
        self.masks = masks
        self.by_vertex = by_vertex
        self.reach = reach
        self._ld = None
        self._c = None

    @property
    def ld(self) -> LonelyDigraph:
        """The lonely digraph: each vertex with exactly one neighbour in a
        class (met once but not twice) has an arc to that neighbour."""
        if self._ld is None:
            adj = self.g.adj
            out = [0] * self.g.n
            for mask in self.masks:
                once = twice = 0
                for u in bits(mask):
                    twice |= once & adj[u]
                    once |= adj[u]
                for v in bits(once & ~twice):
                    out[v] |= adj[v] & mask
            self._ld = LonelyDigraph(self.g.n, tuple(out))
        return self._ld

    @property
    def c(self) -> Coloring:
        if self._c is None:
            self._c = Coloring.from_masks(self.masks)
        return self._c

    def singletons(self) -> list[int]:
        """The vertices of the singleton classes, in increasing order."""
        return sorted(m.bit_length() - 1 for m in self.masks if m & (m - 1) == 0)


def lonely_digraph(g: Graph, c: Coloring) -> LonelyDigraph:
    return ColoredGraph(g, c.class_masks()).ld


@dataclass
class ViewCache:
    """The views built on one graph: each distinct coloring's, keyed by its
    class masks, and the uncapped optimal stream once it is built."""

    by_masks: dict[tuple[int, ...], ColoredGraph] = field(default_factory=dict)
    optimal: list[ColoredGraph] | None = None


def optimal_views(g: Graph, cap: int | None, guards: Guards,
                  seen: ViewCache) -> list[ColoredGraph]:
    """The optimal (with ``cap``: optimal cap-bounded) colorings of ``g`` as
    views built from class masks, in enumeration order. A coloring already in
    ``seen`` keeps its view. A list, so several claims can read one stream,
    and building it checks the guard before any claim computes its
    hypothesis. At cap >= alpha no independent set exceeds the cap, so the
    capped stream is the uncapped one, the same masks in the same order (as
    in ``bounded_stats``), and the uncapped list is returned. Below that, at
    cap = 1 the only optimal coloring is the discrete partition."""
    check_optimal_guard(g, guards)
    if cap is not None and cap >= independence_number(g):
        return optimal_views(g, None, guards, seen)
    if cap is None and seen.optimal is not None:
        return seen.optimal
    if cap == 1:
        stream = [tuple(1 << v for v in range(g.n))]
    else:
        stream = enumerate_optimal_masks(g, cap, guards)
    by_masks = seen.by_masks
    out = []
    for masks in stream:
        cg = by_masks.get(masks)
        if cg is None:
            cg = by_masks[masks] = ColoredGraph(g, masks)
        out.append(cg)
    if cap is None:
        seen.optimal = out
    return out


def _swapped_masks(masks, by_vertex, v: int, w: int) -> list[int]:
    """The class masks with v and w, in two different classes, exchanged."""
    flip = 1 << v | 1 << w
    out = list(masks)
    out[by_vertex[v]] ^= flip
    out[by_vertex[w]] ^= flip
    return out


def swap(g: Graph, c: Coloring, v: int, w: int) -> Coloring:
    """Exchange v and w between their classes. Requires both (v, w) and
    (w, v) lonely, which keeps the result proper on the same frame."""
    by_vertex, masks = c.class_index_of(), c.class_masks()
    for a, b in ((v, w), (w, v)):
        if not _lonely_in(g, by_vertex, masks, a, b):
            raise SwapError(f"({a}, {b}) is not lonely under this coloring")
    return Coloring.from_masks(_swapped_masks(masks, by_vertex, v, w))


def _paths_from(ld: LonelyDigraph, by_vertex: list[int], start: int,
                max_len: int) -> Iterator[tuple[int, ...]]:
    """Directed paths from ``start`` with at most max_len vertices, at most one
    vertex per class. Lex order."""

    def extend(pathv: list[int], used_vertices: int, used_classes: int):
        yield tuple(pathv)
        if len(pathv) == max_len:
            return
        for w in bits(ld.out[pathv[-1]]):
            wbit = 1 << w
            cbit = 1 << by_vertex[w]
            if used_vertices & wbit or used_classes & cbit:
                continue
            pathv.append(w)
            yield from extend(pathv, used_vertices | wbit, used_classes | cbit)
            pathv.pop()

    yield from extend([start], 1 << start, 1 << by_vertex[start])


def _root_paths(cg: ColoredGraph, start: int,
                max_len: int) -> list[tuple[tuple[int, ...], int, int]]:
    """The paths of ``_paths_from``, in its order, each as (path, vertex
    mask, N(path)), N(path) the AND of ``adj[u]`` over u in the path."""
    adj = cg.g.adj
    out = []
    for path in _paths_from(cg.ld, cg.by_vertex, start, max_len):
        mask = 0
        common = -1
        for u in path:
            mask |= 1 << u
            common &= adj[u]
        out.append((path, mask, common))
    return out


def check_max_len(max_len: int) -> None:
    if max_len < 1:
        raise ValueError("max_len must be at least 1")


def join_failures(cg: ColoredGraph, max_len: int = 3) -> tuple[int, list[dict]]:
    """Every pair of lonely paths out of two singleton classes is completely
    joined: (pairs checked, join failures). A pair is a path pa from the
    smaller root a and a path pb from the larger root b that avoids pa's
    vertices; pairs come ordered by (a, b), then pa, then pb, paths in lex
    order. Each root's paths are listed once (``_root_paths``). The paths of
    b that avoid pa are exactly b's list filtered by ``pb_mask & pa_mask ==
    0``, in the same order: a path avoiding pa has every prefix avoiding it,
    and every extension of a path through pa meets pa too. pb is joined to
    pa iff every w in pb is adjacent to every u in pa, iff ``pb_mask`` lies
    inside N(pa), so each pair costs two mask tests. A failing pair's
    payload lists its missing edges, u over pa, then w over pb."""
    check_max_len(max_len)
    singles = cg.singletons()
    if len(singles) < 2:
        return 0, []
    adj = cg.g.adj
    lists = [_root_paths(cg, s, max_len) for s in singles]
    checks = 0
    bad = []
    for ia, a_paths in enumerate(lists):
        for b_paths in lists[ia + 1:]:
            for pa, pa_mask, common in a_paths:
                for pb, pb_mask, _ in b_paths:
                    if pb_mask & pa_mask:
                        continue
                    checks += 1
                    if pb_mask & ~common:
                        bad.append({
                            "coloring": cg.c.as_lists(),
                            "pa": list(pa),
                            "pb": list(pb),
                            "missing_edges": [(u, w) for u in pa for w in pb
                                              if not adj[u] >> w & 1],
                        })
    return checks, bad


def touches_failures(cg: ColoredGraph, r: int | None = None) -> tuple[int, list[dict]]:
    """classic: every class holds a vertex meeting all other classes. With
    ``r``: every singleton meets all other classes of size below r. A vertex
    meets class i iff it lies in ``cg.reach[i]``, so a class passes iff it
    meets the AND of the other target classes' reach masks."""
    masks, reach = cg.masks, cg.reach
    if r is None:
        targets = range(len(masks))
    else:
        targets = [i for i, m in enumerate(masks) if m.bit_count() < r]
    checks = 0
    bad = []
    for j, cls in enumerate(masks):
        if r is not None and cls & (cls - 1):
            continue
        checks += 1
        hit = cls
        for i in targets:
            if i != j:
                hit &= reach[i]
        if not hit:
            bad.append({"coloring": cg.c.as_lists(), "class": list(bits(cls))})
    return checks, bad


def replete_failures(cg: ColoredGraph, r: int | None, need: int) -> tuple[int, list[dict]]:
    """Every class (with ``r``: every singleton class) holds a vertex with at
    least ``need`` lonely out-edges."""
    out = cg.ld.out
    checks = 0
    bad = []
    for cls in cg.masks:
        if r is not None and cls & (cls - 1):
            continue
        checks += 1
        for v in bits(cls):
            if out[v].bit_count() >= need:
                break
        else:
            bad.append({
                "coloring": cg.c.as_lists(),
                "class": list(bits(cls)),
                "lonely_degrees": [out[v].bit_count() for v in bits(cls)],
                "needed": need,
            })
    return checks, bad


def swap_failures(cg: ColoredGraph) -> tuple[int, list[dict]]:
    """Every mutually lonely pair v < w swaps to a proper coloring on the same
    frame: both changed classes stay independent and the sorted class sizes
    are unchanged. The pairs are the mutual arcs of the lonely digraph. The
    view is proper, so v's class A stays independent with w in place of v
    iff ``adj[w] & (A ^ 1 << v)`` is 0, and likewise for w's class."""
    g, out = cg.g, cg.ld.out
    adj, masks, by_vertex = g.adj, cg.masks, cg.by_vertex
    frame = tuple(m.bit_count() for m in masks)
    checks = 0
    bad = []
    for v in range(g.n):
        for w in bits(out[v] >> (v + 1) << (v + 1)):
            if not out[w] >> v & 1:
                continue
            checks += 1
            swapped = _swapped_masks(masks, by_vertex, v, w)
            if (adj[w] & (masks[by_vertex[v]] ^ 1 << v)
                    or adj[v] & (masks[by_vertex[w]] ^ 1 << w)
                    or tuple(sorted(m.bit_count() for m in swapped)) != frame):
                bad.append({"coloring": cg.c.as_lists(), "pair": [v, w]})
    return checks, bad


def check_path_join_property(g: Graph, prop: ColoringProperty | FrameProperty,
                             guards: Guards = DEFAULT_GUARDS) -> None:
    """The P-optimal path statement assumes a singleton-friendly frame
    property; refuse any other."""
    if not is_frame_property(g, prop, guards):
        raise PropertyNotApplicableError(
            f"{prop.name!r} is not a frame property on this graph"
        )
    if not is_singleton_friendly(g, prop, guards):
        raise PropertyNotApplicableError(
            f"{prop.name!r} is not singleton-friendly on this graph"
        )


@dataclass(frozen=True)
class DoublyCriticalResult:
    """Edges whose deletion (both endpoints) drops chi by exactly 2, plus the
    two-singletons characterization they must agree with."""

    edges: tuple[tuple[int, int], ...]
    iota: int
    iota_ge_2: bool
    consistent: bool


def doubly_critical_edges(g: Graph, guards: Guards = DEFAULT_GUARDS) -> DoublyCriticalResult:
    """An edge ab is doubly critical iff chi(G - a - b) = chi - 2. A maximum
    clique Q of G stays a clique of G - a - b, so chi(G - a - b) >=
    |Q - {a, b}|; an edge with |Q - {a, b}| > chi - 2 is rejected without
    computing chi(G - a - b)."""
    chi = chromatic_number(g)
    clique = max_clique_mask(g)
    hits = tuple(
        (a, b)
        for a, b in g.edges()
        if (clique & ~(1 << a | 1 << b)).bit_count() <= chi - 2
        and chromatic_number(g.without((a, b))) == chi - 2
    )
    iota = stats(g, guards).iota
    return DoublyCriticalResult(
        edges=hits,
        iota=iota,
        iota_ge_2=iota >= 2,
        consistent=bool(hits) == (iota >= 2),
    )
