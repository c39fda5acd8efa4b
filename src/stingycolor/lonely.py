"""Frames, lonely edges, frame-preserving swaps, and the lemma verifiers.

A directed edge (v, w) is lonely under a coloring when w is the only neighbor
of v inside w's class. The verifiers here re-check, by exhaustive or sampled
search, every structural statement built on that notion: swap safety, the
joined-path property of lonely paths out of singleton classes, the
touches-everybody facts, and the lonely-out-degree lower bounds. All
inequality arithmetic works on doubled integers so half-integer slacks never
touch floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .graphs import Graph, bits, clique_number, invariants
from .coloring import (
    Coloring,
    ColoringProperty,
    FrameProperty,
    Guards,
    DEFAULT_GUARDS,
    bounded_stats,
    chromatic_number,
    enumerate_optimal_colorings,
    enumerate_p_optimal,
    is_frame_property,
    is_proper,
    is_singleton_friendly,
    stats,
)


class SwapError(ValueError):
    """Swap precondition violated; message names the failing direction."""


class PropertyNotApplicableError(ValueError):
    """The property failed the singleton-friendly frame-property check."""


def frame(c: Coloring) -> tuple[int, ...]:
    return c.frame()


def frame_m(c: Coloring, m: int) -> tuple[int, ...]:
    return c.frame_m(m)


def small(c: Coloring) -> int:
    return c.small()


def is_lonely(g: Graph, c: Coloring, v: int, w: int) -> bool:
    """True iff v and w sit in different classes and w is v's unique neighbor
    in w's class. Assumes ``c`` is proper on ``g``."""
    if not (0 <= v < g.n and 0 <= w < g.n):
        raise ValueError(f"vertex out of range: ({v}, {w}) on {g.n} vertices")
    by_vertex = c.class_index_of()
    if by_vertex[v] == by_vertex[w]:
        return False
    mask = c.class_masks()[by_vertex[w]]
    return g.adj[v] & mask == 1 << w


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


def lonely_digraph(g: Graph, c: Coloring) -> LonelyDigraph:
    if not is_proper(g, c):
        raise ValueError("coloring is not proper")
    masks = c.class_masks()
    by_vertex = c.class_index_of()
    out = []
    for v in range(g.n):
        row = 0
        home = by_vertex[v]
        for j, mask in enumerate(masks):
            if j == home:
                continue
            hit = g.adj[v] & mask
            if hit and hit & (hit - 1) == 0:
                row |= hit
        out.append(row)
    return LonelyDigraph(g.n, tuple(out))


def swap(g: Graph, c: Coloring, v: int, w: int) -> Coloring:
    """Exchange v and w between their classes. Requires both (v, w) and
    (w, v) lonely, which keeps the result proper on the same frame."""
    if not is_lonely(g, c, v, w):
        raise SwapError(f"({v}, {w}) is not lonely under this coloring")
    if not is_lonely(g, c, w, v):
        raise SwapError(f"({w}, {v}) is not lonely under this coloring")
    new_classes = []
    for cls in c.classes:
        members = set(cls)
        if v in members:
            members.discard(v)
            members.add(w)
        elif w in members:
            members.discard(w)
            members.add(v)
        new_classes.append(members)
    return Coloring.of(new_classes)


@dataclass(frozen=True)
class LonelyPathPair:
    """Two vertex-disjoint directed lonely paths rooted at distinct singleton
    classes, each visiting at most one vertex per color class."""

    pa: tuple[int, ...]
    pb: tuple[int, ...]


def _paths_from(ld: LonelyDigraph, by_vertex: dict[int, int], start: int,
                max_len: int, forbidden: int) -> Iterator[tuple[int, ...]]:
    """Directed paths from ``start`` with at most max_len vertices, at most one
    vertex per class, avoiding the ``forbidden`` vertex mask. Lex order."""

    def extend(pathv: list[int], used_vertices: int, used_classes: int):
        yield tuple(pathv)
        if len(pathv) == max_len:
            return
        for w in bits(ld.out[pathv[-1]]):
            wbit = 1 << w
            cbit = 1 << by_vertex[w]
            if used_vertices & wbit or used_classes & cbit or forbidden & wbit:
                continue
            pathv.append(w)
            yield from extend(pathv, used_vertices | wbit, used_classes | cbit)
            pathv.pop()

    if not forbidden >> start & 1:
        yield from extend([start], 1 << start, 1 << by_vertex[start])


def enumerate_lonely_path_pairs(g: Graph, c: Coloring,
                                max_len: int = 3) -> Iterator[LonelyPathPair]:
    """All valid path pairs, deterministically ordered; pa starts at the
    lexicographically smaller of the two singleton roots."""
    ld = lonely_digraph(g, c)
    by_vertex = c.class_index_of()
    singles = sorted(c.singleton_vertices())
    for ia in range(len(singles)):
        for ib in range(ia + 1, len(singles)):
            a, b = singles[ia], singles[ib]
            for pa in _paths_from(ld, by_vertex, a, max_len, 0):
                pa_mask = 0
                for v in pa:
                    pa_mask |= 1 << v
                for pb in _paths_from(ld, by_vertex, b, max_len, pa_mask):
                    yield LonelyPathPair(pa, pb)


def _join_violations(g: Graph, pair: LonelyPathPair) -> list[tuple[int, int]]:
    return [
        (u, w)
        for u in pair.pa
        for w in pair.pb
        if not g.has_edge(u, w)
    ]


@dataclass
class LemmaReport:
    """Outcome of one verifier run on one graph."""

    name: str
    hypothesis_holds: bool
    colorings_checked: int = 0
    checks: int = 0
    violations: list[dict] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        if not self.hypothesis_holds:
            return "vacuous-pass"
        return "VIOLATION" if self.violations else "checked-pass"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "hypothesis_holds": self.hypothesis_holds,
            "colorings_checked": self.colorings_checked,
            "checks": self.checks,
            "verdict": self.verdict,
            "violations": self.violations,
        }


def join_failures(g: Graph, c: Coloring, max_len: int = 3) -> tuple[int, list[dict]]:
    """Join-check the lonely path pairs of one coloring in a single pass:
    (pairs checked, join failures)."""
    checks = 0
    bad = []
    for pair in enumerate_lonely_path_pairs(g, c, max_len):
        checks += 1
        missing = _join_violations(g, pair)
        if missing:
            bad.append({
                "coloring": c.as_lists(),
                "pa": list(pair.pa),
                "pb": list(pair.pb),
                "missing_edges": missing,
            })
    return checks, bad


def verify_lonely_path_lemma(g: Graph, mode: str = "classic",
                             prop: ColoringProperty | FrameProperty | None = None,
                             max_len: int = 3,
                             guards: Guards = DEFAULT_GUARDS) -> LemmaReport:
    """Joined-paths check over every optimal (classic) or P-optimal coloring.

    Property mode refuses predicates that fail the frame-property or
    singleton-friendliness checks, since the statement assumes both.
    """
    if mode == "classic":
        name = "lonely-path-join"
        colorings = enumerate_optimal_colorings(g, guards=guards)
    elif mode == "property":
        if prop is None:
            raise ValueError("property mode needs a ColoringProperty")
        if not is_frame_property(g, prop, guards):
            raise PropertyNotApplicableError(
                f"{prop.name!r} is not a frame property on this graph"
            )
        if not is_singleton_friendly(g, prop, guards):
            raise PropertyNotApplicableError(
                f"{prop.name!r} is not singleton-friendly on this graph"
            )
        name = f"lonely-path-join[{prop.name}]"
        colorings = enumerate_p_optimal(g, prop, guards)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    report = LemmaReport(name, hypothesis_holds=True)
    for c in colorings:
        report.colorings_checked += 1
        checks, bad = join_failures(g, c, max_len)
        report.checks += checks
        report.violations.extend(bad)
    return report


def verify_touches_lemma(g: Graph, r: int | None = None,
                         guards: Guards = DEFAULT_GUARDS) -> LemmaReport:
    """classic: every class of every optimal coloring holds a vertex meeting
    all other classes. With ``r``: every singleton of every optimal r-bounded
    coloring meets all other classes of size below r."""
    if r is None:
        name = "class-meets-all-classes"
        colorings = enumerate_optimal_colorings(g, guards=guards)
    else:
        name = f"singleton-meets-small-classes[r={r}]"
        colorings = enumerate_optimal_colorings(g, cap=r, guards=guards)
    report = LemmaReport(name, hypothesis_holds=True)
    for c in colorings:
        report.colorings_checked += 1
        masks = c.class_masks()
        for j, cls in enumerate(c.classes):
            if r is not None and len(cls) != 1:
                continue
            others = [m for i, m in enumerate(masks)
                      if i != j and (r is None or m.bit_count() < r)]
            report.checks += 1
            if r is None:
                ok = any(all(g.adj[v] & m for m in others) for v in cls)
            else:
                ok = all(g.adj[cls[0]] & m for m in others)
            if not ok:
                report.violations.append({"coloring": c.as_lists(), "class": list(cls)})
    return report


def format_t(t2: int) -> str:
    """Half-integer slack rendered exactly, e.g. 0, 1/2, 1."""
    return str(Fraction(t2, 2))


def verify_replete_lemma(g: Graph, r: int | None = None, t2: int = 0,
                         guards: Guards = DEFAULT_GUARDS) -> LemmaReport:
    """Lonely-out-degree lower bounds, slack t = t2/2 (doubled arithmetic).

    classic (r None): under 2*chi > omega + max_deg + 1 + t2, every class of
    every optimal coloring holds a vertex v with |L_C(v)| >= omega + t2.
    With ``r``: under 2*(chi_r - M_r) > omega + max_deg + 1 + t2, every
    singleton {v} of every optimal r-bounded coloring has
    |L_C(v)| >= omega + t2.
    """
    if t2 < 0:
        raise ValueError("slack must be nonnegative")
    inv = invariants(g)
    if r is None:
        name = f"lonely-degree-bound[t={format_t(t2)}]"
        hyp = 2 * chromatic_number(g) > inv.omega + inv.max_deg + 1 + t2
        colorings = enumerate_optimal_colorings(g, guards=guards) if hyp else ()
    else:
        name = f"gen-lonely-degree-bound[r={r},t={format_t(t2)}]"
        bs = bounded_stats(g, r, guards)
        hyp = 2 * (bs.chi_r - bs.m_r) > inv.omega + inv.max_deg + 1 + t2
        colorings = enumerate_optimal_colorings(g, cap=r, guards=guards) if hyp else ()
    need = inv.omega + t2
    report = LemmaReport(name, hypothesis_holds=hyp)
    for c in colorings:
        report.colorings_checked += 1
        ld = lonely_digraph(g, c)
        for cls in c.classes:
            if r is not None and len(cls) != 1:
                continue
            report.checks += 1
            if max(ld.out_degree(v) for v in cls) < need:
                report.violations.append({
                    "coloring": c.as_lists(),
                    "class": list(cls),
                    "lonely_degrees": [ld.out_degree(v) for v in cls],
                    "needed": need,
                })
    return report


@dataclass(frozen=True)
class DoublyCriticalResult:
    """Edges whose deletion (both endpoints) drops chi by exactly 2, plus the
    two-singletons characterization they must agree with."""

    edges: tuple[tuple[int, int], ...]
    iota: int
    iota_ge_2: bool
    consistent: bool


def doubly_critical_edges(g: Graph, guards: Guards = DEFAULT_GUARDS) -> DoublyCriticalResult:
    chi = chromatic_number(g)
    hits = tuple(
        (a, b)
        for a, b in g.edges()
        if chromatic_number(g.without((a, b))) == chi - 2
    )
    iota = stats(g, guards).iota
    return DoublyCriticalResult(
        edges=hits,
        iota=iota,
        iota_ge_2=iota >= 2,
        consistent=bool(hits) == (iota >= 2),
    )
