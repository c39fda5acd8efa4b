"""Lonely edges, frame-preserving swaps, and the per-coloring lemma checks.

A directed edge (v, w) is lonely under a coloring when w is the only neighbor
of v inside w's class. A ``ColoredGraph`` view holds one ``Coloring`` and
what its class masks give, and each structural statement built on lonely
edges is a check of one view returning (checks made, violation payloads):
swap safety (``swap_failures``), the joined-path property of lonely paths
out of singleton classes (``join_failures``), the touches-everybody facts
(``touches_failures``) and the lonely-out-degree lower bounds
(``replete_failures``). The join check walks each singleton root's lonely
paths once into a list of (path, vertex mask, N(path)), N(path) the AND of
``adj[u]`` over u in the path. For roots a < b, the paths pb of b that avoid
a path pa are b's list filtered by ``pb_mask & pa_mask == 0``, in walk order:
exactly the paths a walk from b that never enters pa visits, since a path
avoids pa iff all its prefixes do. pb is joined to pa iff
``pb_mask & ~N(pa) == 0``. Both tests run on bitsets of indices into b's
list, an OR of a few of them per pa.
``bounds`` names each claim, states its hypothesis and runs its check over a
coloring stream; ``optimal_views`` builds those streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .graphs import Graph, bits, independence_number, max_clique_mask
from .coloring import (
    Coloring,
    ColoringProperty,
    FrameProperty,
    Guards,
    DEFAULT_GUARDS,
    _check_partition,
    check_optimal_guard,
    colorable,
    enumerate_optimal_colorings,
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
    return _lonely_in(g, c.class_index_of(), c.masks, v, w)


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
    """One proper coloring ``c`` of a graph, with its class masks ``masks``
    and what the per-coloring lemma checks read from them: the class of each
    vertex, and per class the mask of the vertices with a neighbour in it
    (``reach``, the OR of ``adj`` over its members) and of those with at least
    two (``twice``). The masks are checked to partition the vertex set (else
    PartitionError), then to be independent in one pass over each class's
    members, which also builds ``reach`` and ``twice``. The lonely digraph
    ``ld`` is built only when read."""

    __slots__ = ("g", "c", "masks", "by_vertex", "reach", "twice", "_ld")

    def __init__(self, g: Graph, c: Coloring):
        masks = c.masks
        _check_partition(g, masks)
        n = g.n
        adj = g.adj
        by_vertex = [0] * n
        reach = []
        twice = []
        for j, mask in enumerate(masks):
            near = more = 0
            rest = mask
            while rest:
                low = rest & -rest
                v = low.bit_length() - 1
                by_vertex[v] = j
                more |= near & adj[v]
                near |= adj[v]
                rest ^= low
            if near & mask:
                raise ValueError("coloring is not proper")
            reach.append(near)
            twice.append(more)
        self.g = g
        self.c = c
        self.masks = masks
        self.by_vertex = by_vertex
        self.reach = reach
        self.twice = twice
        self._ld = None

    @property
    def ld(self) -> LonelyDigraph:
        """The lonely digraph: each vertex with exactly one neighbour in a
        class (in ``reach`` but not in ``twice``) has an arc to that
        neighbour."""
        if self._ld is None:
            adj = self.g.adj
            out = [0] * self.g.n
            for mask, near, more in zip(self.masks, self.reach, self.twice):
                for v in bits(near & ~more):
                    out[v] |= adj[v] & mask
            self._ld = LonelyDigraph(self.g.n, tuple(out))
        return self._ld


def lonely_digraph(g: Graph, c: Coloring) -> LonelyDigraph:
    return ColoredGraph(g, c).ld


def optimal_views(g: Graph, cap: int | None, guards: Guards,
                  uncapped: Sequence[ColoredGraph] = ()) -> Sequence[ColoredGraph]:
    """The optimal (with ``cap``: optimal cap-bounded) colorings of ``g`` as
    views, in enumeration order. A list, so several claims can read one
    stream, and building it checks the guard before any claim computes its
    hypothesis. ``uncapped``, when given, is the uncapped list this returned
    for ``g``. At cap >= alpha no independent set exceeds the cap, so the
    capped stream is the uncapped one, the same masks in the same order (as
    in ``bounded_stats``), and ``uncapped`` itself is returned. Below that,
    the capped enumeration is the uncapped one cut where a class passes the
    cap: if an optimal coloring's largest (last) class fits, chi_cap = chi
    and the capped stream is the uncapped views that fit, in order."""
    check_optimal_guard(g, guards)
    if cap is None or cap >= independence_number(g):
        if uncapped:
            return uncapped
        cap = None
    elif uncapped:
        fits = [cg for cg in uncapped if cg.masks[-1].bit_count() <= cap]
        if fits:
            return fits
    return [ColoredGraph(g, c) for c in enumerate_optimal_colorings(g, cap, guards)]


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
    by_vertex, masks = c.class_index_of(), c.masks
    for a, b in ((v, w), (w, v)):
        if not _lonely_in(g, by_vertex, masks, a, b):
            raise SwapError(f"({a}, {b}) is not lonely under this coloring")
    return Coloring.from_masks(_swapped_masks(masks, by_vertex, v, w))


def _root_paths(cg: ColoredGraph, start: int,
                max_len: int) -> list[tuple[tuple[int, ...], int, int]]:
    """The directed paths of the lonely digraph from ``start`` with at most
    max_len vertices, at most one vertex per class, in lex pre-order, each as
    (path, vertex mask, N(path)), N(path) the AND of ``adj[u]`` over u in the
    path. Walked on a stack: each path extends its parent's masks by one
    vertex, and its successors, outside every class the path has used, are
    pushed in decreasing order so that they come off in increasing order."""
    adj, out, masks, by_vertex = cg.g.adj, cg.ld.out, cg.masks, cg.by_vertex
    paths = []
    stack = [((start,), 1 << start, masks[by_vertex[start]], adj[start])]
    while stack:
        path, mask, used, common = stack.pop()
        paths.append((path, mask, common))
        if len(path) < max_len:
            rest = out[path[-1]] & ~used
            while rest:
                w = rest.bit_length() - 1
                rest ^= 1 << w
                stack.append((path + (w,), mask | 1 << w,
                              used | masks[by_vertex[w]], common & adj[w]))
    return paths


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
    inside N(pa). Both tests run on bitsets of indices into b's list,
    ``member[w]`` holding b's paths through w: the paths avoiding pa are in
    no ``member[u]``, u in pa, each one check, and such a pb fails iff it is
    in ``member[w]`` for a w on b's paths outside N(pa) and pa. Only failing
    indices build payloads, in ascending (list) order, each listing the
    missing edges, u over pa, then w over pb."""
    check_max_len(max_len)
    singles = cg.c.singleton_vertices()
    if len(singles) < 2:
        return 0, []
    n, adj = cg.g.n, cg.g.adj
    lists = [_root_paths(cg, s, max_len) for s in singles]
    checks = 0
    bad = []
    tables = []
    for b_paths in lists[1:]:
        member = [0] * n  # per vertex: the indices of b's paths through it
        union = 0
        for k, (pb, pb_mask, _) in enumerate(b_paths):
            union |= pb_mask
            for w in pb:
                member[w] |= 1 << k
        tables.append((b_paths, member, union, (1 << len(b_paths)) - 1))
    for ia, a_paths in enumerate(lists):
        for b_paths, member, union, every in tables[ia:]:
            for pa, pa_mask, common in a_paths:
                meet = 0
                for u in pa:
                    meet |= member[u]
                avoid = every & ~meet
                checks += avoid.bit_count()
                # the paths of b through a vertex outside N(pa) and pa
                far = 0
                rest = union & ~common & ~pa_mask
                while rest:
                    low = rest & -rest
                    far |= member[low.bit_length() - 1]
                    rest ^= low
                failing = avoid & far
                while failing:
                    low = failing & -failing
                    failing ^= low
                    pb = b_paths[low.bit_length() - 1][0]
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
    exchange changes only v's class A and w's class B. The view is proper, so
    A stays independent with w in place of v iff ``adj[w] & (A ^ 1 << v)`` is
    0, and likewise for B; the other classes keep their sizes, so the sorted
    frame is unchanged iff the sizes of A and B after the exchange are those
    before it, as a multiset."""
    out = cg.ld.out
    adj, masks, by_vertex = cg.g.adj, cg.masks, cg.by_vertex
    checks = 0
    bad = []
    for v in range(cg.g.n):
        rest = out[v] >> (v + 1) << (v + 1)
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            if not out[w] >> v & 1:
                continue
            checks += 1
            a, b = masks[by_vertex[v]], masks[by_vertex[w]]
            flip = 1 << v | low
            if (adj[w] & (a ^ 1 << v) or adj[v] & (b ^ 1 << w)
                    or sorted(((a ^ flip).bit_count(), (b ^ flip).bit_count()))
                    != sorted((a.bit_count(), b.bit_count()))):
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
    consistent: bool


def doubly_critical_edges(g: Graph, guards: Guards = DEFAULT_GUARDS) -> DoublyCriticalResult:
    """An edge ab is doubly critical iff chi(G - a - b) = chi - 2. Removing
    a vertex lowers chi by at most 1, so chi(G - a - b) >= chi - 2 always,
    and ab is doubly critical iff G - a - b is (chi - 2)-colorable, which
    ``colorable`` decides without a search for chi - 2 <= 2. A maximum
    clique Q of G stays a clique of G - a - b, so an edge with
    |Q - {a, b}| > chi - 2 is rejected without that decision."""
    st = stats(g, guards)
    chi = st.chi
    clique = max_clique_mask(g)
    hits = tuple(
        (a, b)
        for a, b in g.edges()
        if (clique & ~(1 << a | 1 << b)).bit_count() <= chi - 2
        and colorable(g, chi - 2, 1 << a | 1 << b)
    )
    return DoublyCriticalResult(edges=hits, iota=st.iota, consistent=bool(hits) == (st.iota >= 2))
