"""Exact chromatic computations.

Colorings are unlabeled partitions of the vertex set into nonempty
independent classes, held in a canonical order so enumeration streams are
deterministic and deduplication is free. Everything here is exact: chromatic
numbers come from a DSATUR-ordered branch and bound, and the stinginess
quantities are maximized by a second branch and bound over partitions with an
admissible score bound. Enumeration-based routes exist alongside the direct
searches so the two can cross-check each other.

The chromatic search returns the discrete partition at once when its lower
bound (ceil(n / cap), or the clique number) is n. Otherwise greedy DSATUR,
which picks each vertex by one integer key sat*n^2 + deg*n + (n-1-v), gives
the first incumbent, and most calls end there, at the lower bound. chi_2 is
not searched: it is n - nu(complement). ``stats`` and ``bounded_stats`` keep
their witnesses as the searches' class masks; the witness properties build
the ``Coloring`` when read. The score search returns the discrete partition
at once when k = n, and caps its classes at alpha, which only tightens its
ceiling. At a cap r >= alpha ``bounded_stats`` reads chi_r, iota_r and the
iota_r witness from ``stats``; at r = 2 it reads M_2 = n - chi_2 and reuses
the iota_2 witness for it.

A ``Coloring`` is stored as its class masks in (popcount, lowest bit) order,
which is the (size, least vertex) order of its classes, so every stream and
witness wraps the masks its search yields without building vertex tuples.

Guards: full-partition enumeration refuses beyond ``Guards.full`` vertices and
the optimal-coloring machinery beyond ``Guards.optimal``. Exceeding a guard is
an error, never a silent approximation.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .graphs import (Graph, bits, clique_number, independence_number, matching_number,
                     per_graph)


class PartitionError(ValueError):
    """The class structure does not partition the vertex set."""


class GuardExceededError(RuntimeError):
    """An enumeration guard would be exceeded; refused rather than approximated."""


class PropertyUnsatisfiableError(RuntimeError):
    """No proper coloring of the graph satisfies the property."""


@dataclass(frozen=True)
class Guards:
    """Enumeration limits: ``optimal`` for optimal-coloring work, ``full`` for
    enumerating every proper coloring."""

    optimal: int = 10
    full: int = 8


DEFAULT_GUARDS = Guards()


def _check_guard(g: Graph, limit: int, what: str) -> None:
    """Refuse ``what`` on a graph of more than ``limit`` vertices."""
    if g.n > limit:
        raise GuardExceededError(f"{what} guarded at n <= {limit} (graph has {g.n})")


def _coloring_order(masks) -> tuple[int, ...]:
    """Class masks in ``Coloring`` order: by (popcount, lowest bit)."""
    return tuple(sorted(masks, key=lambda m: (m.bit_count(), m & -m)))


@dataclass(frozen=True)
class Coloring:
    """Partition into independent classes, stored as vertex bitmasks in
    (popcount, lowest bit) order: the classes sorted by (size, least vertex)."""

    masks: tuple[int, ...]

    @staticmethod
    def of(classes) -> "Coloring":
        """``from_masks`` on classes given as vertex iterables. Each class is
        turned into its mask just before ``from_masks`` checks it, so the
        errors come class by class: empty, then negative, then overlap."""

        def class_mask(cls) -> int:
            mask = 0
            for v in cls:
                if v < 0:
                    raise ValueError("negative vertex in color class")
                mask |= 1 << v
            return mask

        return Coloring.from_masks(class_mask(cls) for cls in classes)

    @staticmethod
    def from_masks(masks) -> "Coloring":
        """The coloring with these class masks, checked to be nonempty,
        nonnegative and disjoint, and put in (popcount, lowest bit) order."""
        seen = 0
        checked = []
        for mask in masks:
            if mask <= 0:
                raise ValueError("negative vertex in color class" if mask
                                 else "empty color class")
            if seen & mask:
                raise ValueError("color classes overlap")
            seen |= mask
            checked.append(mask)
        return Coloring(_coloring_order(checked))

    @property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(bits(m)) for m in self.masks)

    def __len__(self) -> int:
        return len(self.masks)

    def class_index_of(self) -> dict[int, int]:
        return {v: j for j, m in enumerate(self.masks) for v in bits(m)}

    def frame(self) -> tuple[int, ...]:
        """Nondecreasing sequence of class sizes; () for the empty coloring."""
        return tuple(m.bit_count() for m in self.masks)

    def frame_m(self, m: int) -> tuple[int, ...]:
        """Suffix of the frame from the first entry of size at least ``m``."""
        if m < 1:
            raise ValueError("m must be positive")
        return tuple(s for s in self.frame() if s >= m)

    def small(self) -> int:
        """Number of vertices lying in classes of size 1 or 2."""
        return sum(s for s in self.frame() if s <= 2)

    def singleton_vertices(self) -> tuple[int, ...]:
        """In increasing order: size-1 classes lead, by their vertex."""
        return tuple(m.bit_length() - 1 for m in self.masks if m & (m - 1) == 0)

    def as_lists(self) -> list[list[int]]:
        return [list(bits(m)) for m in self.masks]


def _check_partition(g: Graph, masks) -> None:
    """Raise PartitionError unless the class masks cover g's vertices and
    nothing else."""
    full = (1 << g.n) - 1
    covered = 0
    for mask in masks:
        covered |= mask
    if covered != full:
        raise PartitionError(
            f"classes do not partition the vertex set (missing "
            f"{list(bits(full & ~covered))}, extra {list(bits(covered & ~full))})"
        )


def is_proper(g: Graph, c: Coloring) -> bool:
    """True iff every class is independent. Raises PartitionError if ``c``
    does not partition g's vertices; that is structural, not 'improper'."""
    _check_partition(g, c.masks)
    for mask in c.masks:
        for v in bits(mask):
            if g.adj[v] & mask:
                return False
    return True


# ---------------------------------------------------------------------------
# Branch and bound for chi / chi_r
# ---------------------------------------------------------------------------


def _dsatur_keys(adj: tuple[int, ...], n: int,
                 rank: list[int] | None = None) -> list[int]:
    """Each vertex's DSATUR key at saturation 0, deg*n + (n-1-rank[v]), with
    ``rank`` a permutation of range(n), the identity if None. The key at
    saturation sat (distinct classes among its neighbours) adds sat*n^2;
    deg*n + (n-1-rank[v]) < n^2, so the key orders as the tuple (sat, deg,
    -rank[v]): most saturated first, then highest degree, then least rank,
    as vertex rank[v] would in the graph relabeled by ``rank``."""
    if rank is None:
        rank = range(n)
    return [adj[v].bit_count() * n + (n - 1 - rank[v]) for v in range(n)]


def _greedy_dsatur(adj: tuple[int, ...], n: int, cap: int | None,
                   rank: list[int] | None = None) -> list[int]:
    """Greedy DSATUR coloring (class masks); respects a class-size cap.

    Each step colors the uncolored vertex of largest DSATUR key (ties by
    ``rank``): the keys are distinct and a colored vertex's key is set to -1,
    so that vertex is ``prio.index(max(prio))``. It joins the first class
    that has no neighbour of it and room under the cap; only its uncolored
    neighbours' saturation masks and keys change."""
    step = n * n
    prio = _dsatur_keys(adj, n, rank)
    saturation = [0] * n  # bitmask of classes adjacent to v
    classes: list[int] = []
    reach: list[int] = []  # per class: the neighbours of its members
    full = 0  # bitmask of classes at the cap
    free_mask = (1 << n) - 1
    for _ in range(n):
        v = prio.index(max(prio))
        prio[v] = -1
        free_mask ^= 1 << v
        av = adj[v]
        open_classes = ~(saturation[v] | full) & ((1 << len(classes)) - 1)
        if open_classes:
            j = (open_classes & -open_classes).bit_length() - 1
            classes[j] |= 1 << v
            fresh = av & free_mask & ~reach[j]
            reach[j] |= av
        else:
            j = len(classes)
            classes.append(1 << v)
            reach.append(av)
            fresh = av & free_mask
        if cap is not None and classes[j].bit_count() == cap:
            full |= 1 << j
        # the uncolored vertices that class j now saturates
        bit = 1 << j
        while fresh:
            low = fresh & -fresh
            u = low.bit_length() - 1
            fresh ^= low
            saturation[u] |= bit
            prio[u] += step
    return classes


def _color_bb(g: Graph, cap: int | None,
              rank: list[int] | None = None) -> tuple[int, list[int]]:
    """Exact minimum class count (size cap optional) with one witness.

    The lower bound is ceil(n / cap), or the clique number when larger and
    ceil(n / cap) < n. At lower == n the discrete partition is the only
    witness; otherwise DSATUR's greedy coloring is the first incumbent, and
    the search runs only when it uses more classes than the bound. The greedy coloring and the search's
    branching order break DSATUR ties by ``rank``; nothing else reads vertex
    labels, so the witness is the one the graph relabeled by ``rank`` gets,
    mapped back."""
    adj, n = g.adj, g.n
    if n == 0:
        return 0, []
    lower = 0 if cap is None else -(-n // cap)
    if lower < n:
        lower = max(lower, clique_number(g))
    if lower == n:
        return n, [1 << v for v in range(n)]
    best_masks = _greedy_dsatur(adj, n, cap, rank)
    best_k = len(best_masks)
    if best_k == lower:
        return best_k, best_masks

    classes: list[int] = []
    sizes: list[int] = []
    assigned = [-1] * n
    step = n * n
    prio = _dsatur_keys(adj, n, rank)

    def key(v: int) -> int:
        return sum(1 for m in classes if m & adj[v]) * step + prio[v]

    def pick() -> int:
        return max((v for v in range(n) if assigned[v] < 0), key=key)

    def descend(colored: int):
        nonlocal best_k, best_masks
        if best_k == lower:
            return
        if len(classes) >= best_k:
            return
        if colored == n:
            best_k = len(classes)
            best_masks = list(classes)
            return
        v = pick()
        bit = 1 << v
        assigned[v] = 0
        for j in range(len(classes)):
            if classes[j] & adj[v]:
                continue
            if cap is not None and sizes[j] >= cap:
                continue
            classes[j] |= bit
            sizes[j] += 1
            descend(colored + 1)
            classes[j] ^= bit
            sizes[j] -= 1
        if len(classes) + 1 < best_k:
            classes.append(bit)
            sizes.append(1)
            descend(colored + 1)
            classes.pop()
            sizes.pop()
        assigned[v] = -1

    descend(0)
    del descend  # the closure refers to itself: a cycle only the collector frees
    return best_k, best_masks


@per_graph
def _chi(g: Graph, cap: int | None) -> int:
    if cap == 2:
        # A 2-bounded coloring is a matching of the complement (its pairs)
        # plus singletons, so the fewest classes is n - nu(complement).
        return g.n - matching_number(g.complement())
    return _color_bb(g, cap)[0]


def _check_cap(cap: int | None) -> None:
    if cap is not None and cap < 1:
        raise ValueError("cap must be positive")


def chromatic_number(g: Graph, cap: int | None = None) -> int:
    """Exact chi(g); with ``cap`` set, the minimum class count among colorings
    whose classes all have size at most cap. chi of the empty graph is 0."""
    _check_cap(cap)
    return _chi(g, cap)


def colorable(g: Graph, k: int, drop: int = 0) -> bool:
    """Whether g minus the vertex mask ``drop`` is k-colorable, decided on
    g's own rows for k <= 2: no kept vertex (k <= 0), no kept edge (k = 1),
    no odd cycle (k = 2). Each component's two sides grow as bitsets from its
    least vertex, a BFS layer at a time; a vertex adjacent to its own side
    lies on an odd cycle. For k >= 3 the kept subgraph's chromatic number is
    searched."""
    keep = (1 << g.n) - 1 & ~drop
    adj = g.adj
    if k <= 0:
        return not keep
    if k == 1:
        return not any(adj[v] & keep for v in bits(keep))
    if k == 2:
        left = keep
        while left:
            frontier = here = left & -left  # here: the frontier's side
            there = 0
            while frontier:
                reach = 0
                for v in bits(frontier):
                    reach |= adj[v]
                if reach & here:
                    return False
                frontier = reach & keep & ~there
                here, there = there | frontier, here
            left &= ~(here | there)
        return True
    return chromatic_number(g._induced_mask(keep) if drop else g) <= k


def one_optimal_coloring(g: Graph, cap: int | None = None,
                         rng: random.Random | None = None) -> Coloring:
    """A single optimal (optionally cap-bounded) coloring.

    Deterministic without ``rng``; with it, DSATUR ties are broken by a
    seeded shuffle of the vertices, which samples different optimal colorings.
    """
    _check_cap(cap)
    rank = None
    if rng is not None:
        perm = list(range(g.n))
        rng.shuffle(perm)
        rank = [0] * g.n
        for new, old in enumerate(perm):
            rank[old] = new
    return Coloring(_coloring_order(_color_bb(g, cap, rank)[1]))


# ---------------------------------------------------------------------------
# Partition enumeration (canonical: each class is opened by its least vertex)
# ---------------------------------------------------------------------------


def _enum_partitions(adj: tuple[int, ...], n: int, k: int | None,
                     cap: int | None) -> Iterator[list[int]]:
    """All proper partitions (class masks); exactly ``k`` classes if k given.
    Depth-first with an explicit stack: vertex v tries the open classes in
    order, then a new class, so each class is opened by its least vertex;
    ``placed[v]`` is the class v sits in while later vertices are placed."""
    if n == 0:
        if k in (None, 0):
            yield []
        return
    if k == 0:
        return
    if k is not None and cap is not None and k * cap < n:
        return
    size_cap = n if cap is None else cap
    most = n if k is None else k
    masks: list[int] = []
    sizes: list[int] = []
    placed = [0] * n
    v = j = 0  # place vertex v in class j or a later one
    while True:
        if v == n:
            if k is None or len(masks) == k:
                yield list(masks)
        elif k is None or len(masks) + (n - v) >= k:
            m = len(masks)
            av = adj[v]
            while j < m and (masks[j] & av or sizes[j] >= size_cap):
                j += 1
            if j == m < most:  # open a new class
                masks.append(0)
                sizes.append(0)
                m += 1
            if j < m:
                masks[j] |= 1 << v
                sizes[j] += 1
                placed[v] = j
                v, j = v + 1, 0
                continue
        # backtrack: take the last placed vertex out of its class
        v -= 1
        if v < 0:
            return
        j = placed[v]
        if masks[j] == 1 << v:
            masks.pop()
            sizes.pop()
        else:
            masks[j] ^= 1 << v
            sizes[j] -= 1
        j += 1


def _ordered_partitions(adj: tuple[int, ...], n: int, k: int | None,
                        cap: int | None) -> Iterator[Coloring]:
    """``_enum_partitions`` as colorings. Its classes come ordered by lowest
    bit (each is opened by its least vertex), so a stable sort by popcount
    gives the (popcount, lowest bit) order; the partitions are proper and
    disjoint, so nothing is checked again."""
    for masks in _enum_partitions(adj, n, k, cap):
        yield Coloring(tuple(sorted(masks, key=int.bit_count)))


def enumerate_colorings(g: Graph, guards: Guards = DEFAULT_GUARDS) -> Iterator[Coloring]:
    """Every proper coloring of ``g`` (any class count), canonical, each once."""
    _check_guard(g, guards.full, "full coloring enumeration")
    yield from _ordered_partitions(g.adj, g.n, None, None)


def check_optimal_guard(g: Graph, guards: Guards) -> None:
    """Refuse optimal-coloring enumeration beyond ``guards.optimal`` vertices."""
    _check_guard(g, guards.optimal, "optimal coloring enumeration")


def enumerate_optimal_colorings(g: Graph, cap: int | None = None,
                                guards: Guards = DEFAULT_GUARDS) -> Iterator[Coloring]:
    """Every proper partition into exactly chi (or chi_cap) classes."""
    check_optimal_guard(g, guards)
    k = chromatic_number(g, cap)
    yield from _ordered_partitions(g.adj, g.n, k, cap)


# ---------------------------------------------------------------------------
# Score maximization over optimal colorings (stinginess and friends)
# ---------------------------------------------------------------------------


def _score_ceiling(n: int, k: int, cap: int | None, target: int) -> int:
    """Counting ceiling on the number of classes of size ``target`` in any
    partition of n vertices into exactly k nonempty classes of size <= cap."""
    if cap is not None and cap < target:
        return 0
    if target == 1:
        # s singletons; the other k - s classes hold at most c vertices each.
        c = n - k + 1 if cap is None else min(cap, n - k + 1)
        return k if c < 2 else (c * k - n) // (c - 1)
    # the other k - M classes are nonempty: n >= target * M + (k - M)
    return min(k, n // target, (n - k) // (target - 1))


def _best_partition_score(g: Graph, k: int, cap: int | None,
                          target: int) -> tuple[int, list[int]]:
    """Maximize the number of classes of size exactly ``target`` over proper
    partitions of g into exactly ``k`` classes (sizes <= cap): target 1 gives
    iota, target r gives M_r. Returns (best, witness).

    The witness is the first partition in ``_enum_partitions`` order that
    attains the maximum: the bound only prunes subtrees that cannot beat the
    incumbent, and only a strictly better leaf replaces it. The search stops
    once the incumbent reaches a ceiling from counting alone (it does not
    rely on k being optimal):
    - target 1: with c = min(cap, n - k + 1), the largest size a class of
      a k-partition can have, n - s <= c * (k - s), so
      s <= (c*k - n) // (c - 1) for c >= 2, and s <= k for c = 1. For
      iota_2 this is 2k - n, always attained, so the first partition ends it.
    - target r >= 2: the other k - M classes are nonempty, so
      M <= min(k, n // r, (n - k) // (r - 1)); and M = 0 when cap < r, so
      the first partition ends the search.
    A cap of alpha leaves the partitions and their order unchanged (no
    class of alpha vertices admits another) and only tightens the ceiling.
    At k = n the discrete partition is the only one; its score is n for
    target 1, else 0. Returns (-1, []) when no such partition exists."""
    adj, n = g.adj, g.n
    if k == n:
        return (n if target == 1 else 0), [1 << v for v in range(n)]
    ceiling = _score_ceiling(n, k, cap, target)
    size_cap = n if cap is None else cap
    masks: list[int] = []
    sizes: list[int] = []
    opens_hit = 1 if target == 1 else 0  # a new class has size 1
    best = -1
    best_masks: list[int] = []

    # hit: classes of size exactly target; short: vertices in classes below it.
    def rec(v: int, hit: int, short: int) -> bool:
        """Extend by vertex v; True once the incumbent reaches the ceiling."""
        nonlocal best, best_masks
        m = len(masks)
        if v == n:
            if m == k and hit > best:
                best = hit
                best_masks = list(masks)
                return best >= ceiling
            return False
        if m + (n - v) < k:
            return False
        if target == 1:
            bound = hit + (k - m)
        else:
            bound = hit + min((short + n - v) // target, k - hit)
        if bound <= best:
            return False
        bit = 1 << v
        av = adj[v]
        for j in range(m):
            s = sizes[j]
            if masks[j] & av or s >= size_cap:
                continue
            if s + 1 < target:
                h, sh = hit, short + 1
            elif s + 1 == target:
                h, sh = hit + 1, short - s
            elif s == target:
                h, sh = hit - 1, short
            else:
                h, sh = hit, short
            masks[j] |= bit
            sizes[j] = s + 1
            if rec(v + 1, h, sh):
                return True
            masks[j] ^= bit
            sizes[j] = s
        if m < k:
            masks.append(bit)
            sizes.append(1)
            if rec(v + 1, hit + opens_hit, short + 1 - opens_hit):
                return True
            masks.pop()
            sizes.pop()
        return False

    rec(0, 0, 0)
    del rec  # the closure refers to itself: a cycle only the collector frees
    return best, best_masks


@dataclass(frozen=True)
class ColoringStats:
    """chi, stinginess iota, and a stingy witness, kept as the search's class
    masks; ``stingy_witness`` builds the coloring when read."""

    chi: int
    iota: int
    stingy_masks: tuple[int, ...]

    @property
    def stingy_witness(self) -> Coloring:
        return Coloring(_coloring_order(self.stingy_masks))


@per_graph
def _stats(g: Graph) -> ColoringStats:
    chi = chromatic_number(g)
    iota, masks = _best_partition_score(g, chi, independence_number(g), 1)
    return ColoringStats(chi, iota, tuple(masks))


def stats(g: Graph, guards: Guards = DEFAULT_GUARDS) -> ColoringStats:
    """iota(g) = max singleton-class count over optimal colorings, by direct
    branch and bound; the enumeration route cross-checks this in tests."""
    _check_guard(g, guards.optimal, "stinginess")
    return _stats(g)


@dataclass(frozen=True)
class BoundedStats:
    """The r-bounded family: chi_r, M_r, iota_r, with their witnesses kept as
    class masks; ``m_witness`` and ``iota_witness`` build the colorings when
    read."""

    r: int
    chi_r: int
    m_r: int
    iota_r: int
    m_masks: tuple[int, ...]
    iota_masks: tuple[int, ...]

    @property
    def m_witness(self) -> Coloring:
        return Coloring(_coloring_order(self.m_masks))

    @property
    def iota_witness(self) -> Coloring:
        return Coloring(_coloring_order(self.iota_masks))


@per_graph
def _bounded(g: Graph, r: int) -> BoundedStats:
    alpha = independence_number(g)
    if r >= alpha:
        # No independent set exceeds the cap, so the capped partitions are
        # the uncapped ones, in the same order: chi_r and iota_r are chi and
        # iota, with the same witness.
        st = _stats(g)
        chi_r, iota_r, i_masks = st.chi, st.iota, st.stingy_masks
    else:
        chi_r = chromatic_number(g, cap=r)
        iota_r, masks = _best_partition_score(g, chi_r, r, 1)
        i_masks = tuple(masks)
    if r == 2:
        # Every 2-bounded chi_2-partition has n - chi_2 pairs and 2*chi_2 - n
        # singletons, so both searches stop at the stream's first partition.
        return BoundedStats(r, chi_r, g.n - chi_r, iota_r, i_masks, i_masks)
    m_r, m_masks = _best_partition_score(g, chi_r, min(r, alpha), r)
    return BoundedStats(r, chi_r, m_r, iota_r, tuple(m_masks), i_masks)


def bounded_stats(g: Graph, r: int, guards: Guards = DEFAULT_GUARDS) -> BoundedStats:
    """M_r and iota_r maximize over the same set (optimal r-bounded colorings)
    but independently; their witnesses need not coincide."""
    if r < 1:
        raise ValueError("r must be positive")
    _check_guard(g, guards.optimal, "r-bounded stats")
    return _bounded(g, r)


# ---------------------------------------------------------------------------
# Constrained-coloring property framework
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColoringProperty:
    """A decidable predicate on colorings. Whether it is a frame property or
    singleton-friendly is decided by the checks below, graph by graph."""

    predicate: Callable[[Coloring], bool] = field(compare=False)
    name: str

    def __call__(self, c: Coloring) -> bool:
        return bool(self.predicate(c))


@dataclass(frozen=True)
class FrameProperty:
    """A predicate on the frame alone, applied to a coloring as
    ``frame_predicate(c.frame())``. No predicate on the coloring itself can be
    given, so it is a frame property by construction; singleton-friendliness
    is still checked. ``_frames_merge_closed`` keeps its answer per n on this
    object alone: equality and hashing ignore the predicate, so two
    properties with the same name must not share an answer."""

    frame_predicate: Callable[[tuple[int, ...]], bool] = field(compare=False)
    name: str

    def __call__(self, c: Coloring) -> bool:
        return bool(self.frame_predicate(c.frame()))

    def frames(self, n: int) -> list[tuple[int, ...]]:
        """The satisfying frames of ``n`` vertices."""
        return [f for f in _frames(n) if self.frame_predicate(f)]


@functools.lru_cache(maxsize=None)
def _frames(n: int) -> tuple[tuple[int, ...], ...]:
    """Every frame of ``n`` vertices: the integer partitions of n, each as a
    nondecreasing tuple, in lexicographic order. Computed once per n."""
    prefix: list[int] = []

    def rec(rest: int, least: int):
        if rest == 0:
            yield tuple(prefix)
            return
        for part in range(least, rest + 1):
            prefix.append(part)
            yield from rec(rest - part, part)
            prefix.pop()

    return tuple(rec(n, 1))


@functools.lru_cache(maxsize=None)
def b_r(r: int) -> FrameProperty:
    """B_r: all classes of size at most r, i.e. the largest frame entry is at
    most r. Singleton-friendly only for r >= 2 (merging two singletons makes a
    doubleton, which leaves B_1). One object per r, so its merge-closure memo
    is computed once per (r, n)."""
    if r < 1:
        raise ValueError("r must be positive")
    return FrameProperty(
        frame_predicate=lambda f: not f or f[-1] <= r,
        name=f"B_{r}",
    )


def enumerate_p_optimal(g: Graph, p: ColoringProperty | FrameProperty,
                        guards: Guards = DEFAULT_GUARDS) -> Iterator[Coloring]:
    """Every coloring satisfying ``p`` with exactly chi_P classes: the
    satisfying partitions of the first class count k from chi_cap up that has
    any. A FrameProperty is optimal-coloring work, with cap the largest entry
    of any satisfying frame, since no satisfying coloring has a larger class;
    any other property scans uncapped partitions under the full guard. No
    proper partition has fewer than chi_cap classes, so the search is exact.
    For P = B_r this is enumerate_optimal_colorings(g, cap=r), in the same
    order."""
    if isinstance(p, FrameProperty):
        _check_guard(g, guards.optimal, "chi_P")
        cap = max((f[-1] for f in p.frames(g.n) if f), default=1)
    else:
        _check_guard(g, guards.full, "chi_P")
        cap = None
    for k in range(chromatic_number(g, cap), g.n + 1):
        found = False
        for c in _ordered_partitions(g.adj, g.n, k, cap):
            if p(c):
                found = True
                yield c
        if found:
            return
    raise PropertyUnsatisfiableError(f"property {p.name!r} unsatisfiable on this graph")


def chi_p(g: Graph, p: ColoringProperty | FrameProperty,
          guards: Guards = DEFAULT_GUARDS) -> tuple[int, Coloring]:
    """Minimum class count among colorings satisfying ``p``, with witness:
    the first coloring of ``enumerate_p_optimal``."""
    c = next(enumerate_p_optimal(g, p, guards))
    return len(c), c


def _constant_on(g: Graph, p: ColoringProperty, key, guards: Guards) -> bool:
    """True iff ``p`` takes one value on the colorings of ``g`` with equal
    ``key``; stops at the first disagreement."""
    seen: dict[object, bool] = {}
    for c in enumerate_colorings(g, guards):
        value = p(c)
        if seen.setdefault(key(c), value) != value:
            return False
    return True


def is_frame_property(g: Graph, p: ColoringProperty | FrameProperty,
                      guards: Guards = DEFAULT_GUARDS) -> bool:
    """True iff p's satisfying set is a union of frame-equivalence classes.
    A FrameProperty is one by construction."""
    if isinstance(p, FrameProperty):
        return True
    return _constant_on(g, p, lambda c: c.frame(), guards)


def check_frame3_sufficiency(g: Graph, p: ColoringProperty,
                             guards: Guards = DEFAULT_GUARDS) -> bool:
    """True iff membership in ``p`` depends only on the frame entries >= 3.
    Whenever true, both is_frame_property and is_singleton_friendly hold."""
    return _constant_on(g, p, lambda c: c.frame_m(3), guards)


def check_complete_condition(g: Graph, p: ColoringProperty,
                             guards: Guards = DEFAULT_GUARDS) -> bool:
    """True iff p's satisfying set is a union of (small-vertex-count, frame>=3)
    equivalence classes. Compared elsewhere against
    is_frame_property AND is_singleton_friendly; a disagreement is reported as
    a lemma violation, never silently resolved."""
    return _constant_on(g, p, lambda c: (c.small(), c.frame_m(3)), guards)


def merge_singletons(c: Coloring, a: int, b: int) -> Coloring:
    """Merge the singleton classes {a} and {b} into one doubleton."""
    rest = [m for m in c.masks if m not in (1 << a, 1 << b)]
    if len(rest) != len(c.masks) - 2:
        raise ValueError(f"{a} and {b} are not both singleton classes")
    return Coloring(_coloring_order(rest + [1 << a | 1 << b]))


@per_graph
def _frames_merge_closed(p: FrameProperty, n: int) -> bool:
    """True iff merging two 1s of any satisfying frame of ``n`` vertices into a
    2 gives a satisfying frame. Merging two singleton classes changes the
    frame exactly so, hence this proves p singleton-friendly on every graph of
    order n. Frames are nondecreasing, so the 1s lead. The answer depends
    only on (p, n) and is kept on ``p``, like a graph's quantities."""
    return all(p.frame_predicate(tuple(sorted(f[2:] + (2,))))
               for f in p.frames(n) if f[:2] == (1, 1))


def is_singleton_friendly(g: Graph, p: ColoringProperty | FrameProperty,
                          guards: Guards = DEFAULT_GUARDS) -> bool:
    """True iff every merge of two nonadjacent singleton classes of a
    satisfying coloring again satisfies ``p``. A FrameProperty whose frames
    are closed under that merge passes without enumeration; otherwise the
    colorings of ``g`` decide it exactly."""
    if isinstance(p, FrameProperty) and _frames_merge_closed(p, g.n):
        return True
    for c in enumerate_colorings(g, guards):
        if not p(c):
            continue
        singles = c.singleton_vertices()
        for i in range(len(singles)):
            for j in range(i + 1, len(singles)):
                a, b = singles[i], singles[j]
                if g.has_edge(a, b):
                    continue
                if not p(merge_singletons(c, a, b)):
                    return False
    return True
