"""Verification suites and corpus drivers.

Each suite runs one family of checks over an exhaustive range of small graphs
(isomorphism classes) and, where configured, seeded random samples beyond it.
Results are plain counts plus violation payloads, deterministic for a fixed
config, so two runs of the same suite are byte-identical once serialized.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator

from .graphs import (
    Graph,
    GraphFormatError,
    all_graphs,
    emit_graph6,
    er_random,
    parse_graph6,
)
from .coloring import (
    Guards,
    DEFAULT_GUARDS,
    b_r,
    check_complete_condition,
    check_frame3_sufficiency,
    Coloring,
    ColoringProperty,
    enumerate_colorings,
    enumerate_p_optimal,
    is_frame_property,
    is_singleton_friendly,
    one_optimal_coloring,
)
from . import lonely
from .bounds import (  # UnknownClaimError: what claim_records_for raises, kept importable here
    VERDICT_NOT_EVALUATED,
    VERDICT_VIOLATION,
    ClaimRecord,
    UnknownClaimError,
    VerificationParams,
    claim_records_for,
    evaluate_generalized,
    full_report,
    stream_claims,
    stream_record,
    _matching_identity,
)

DENSITIES = (0.2, 0.5, 0.8)


@dataclass
class SuiteResult:
    suite: str
    config: dict
    checked: int = 0
    vacuous: int = 0
    violations: list[dict] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "config": self.config,
            "checked": self.checked,
            "vacuous": self.vacuous,
            "violations": self.violations,
            "details": self.details,
            "passed": self.passed,
        }


def exhaustive_graphs(min_n: int, max_n: int) -> Iterator[Graph]:
    for n in range(min_n, max_n + 1):
        yield from all_graphs(n)


def _check_seed(seed: int):
    """Refuse a negative seed: random.Random seeds by the absolute value, so
    seed -1 would draw exactly seed 1's samples."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")


def split_counts(total: int, buckets: int) -> list[int]:
    """Deterministic near-even split; remainders go to the earliest buckets."""
    base, extra = divmod(total, buckets)
    return [base + (1 if i < extra else 0) for i in range(buckets)]


def sample_specs(total: int, ns: tuple[int, ...]) -> list[tuple[int, float, int]]:
    """(n, p, count) triples covering ``total`` samples across the grid."""
    combos = [(n, p) for n in ns for p in DENSITIES]
    if not combos:
        raise ValueError("samples need at least one vertex count and one density")
    counts = split_counts(total, len(combos))
    return [(n, p, c) for (n, p), c in zip(combos, counts)]


def sampled_graphs(samples: int, ns: tuple[int, ...], rng: random.Random) -> Iterator[Graph]:
    """``samples`` seeded G(n, p) graphs over the ``sample_specs`` grid, each
    drawn with a seed from ``rng`` only when it is asked for, so a caller may
    draw from ``rng`` between graphs."""
    if not samples:
        return
    for n, p, count in sample_specs(samples, ns):
        for _ in range(count):
            yield er_random(n, p, seed=rng.getrandbits(32))


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def _absorb(result: SuiteResult, rec: ClaimRecord, **tags) -> int:
    """Count one lonely-claim record into ``result``: a vacuous record as one
    vacuous case, else its checks and its violations, each with ``tags``
    added. Returns the colorings it checked."""
    if not rec.hyp:
        result.vacuous += 1
        return 0
    result.checked += rec.witness["checks"]
    for bad in rec.witness.get("violations", ()):
        result.violations.append({**bad, **tags})
    return rec.witness["colorings_checked"]


def suite_swap(max_n: int, guards: Guards = DEFAULT_GUARDS) -> SuiteResult:
    """Every mutually-lonely swap in every proper coloring of every graph up
    to max_n must stay proper on the same frame."""
    result = SuiteResult("swap", {"max_n": max_n})
    colorings = 0
    for g in exhaustive_graphs(0, max_n):
        views = (lonely.ColoredGraph(g, c) for c in enumerate_colorings(g, guards))
        rec = stream_record("swap-preserves-frame", views, lonely.swap_failures)
        colorings += _absorb(result, rec, g6=emit_graph6(g))
    result.details["colorings"] = colorings
    return result


def suite_lonely_path(max_n: int, max_len: int = 3, samples: int = 0,
                      sample_ns: tuple[int, ...] = (7, 8), seed: int = 0,
                      guards: Guards = DEFAULT_GUARDS) -> SuiteResult:
    """Joined-paths property over all optimal colorings exhaustively up to
    max_n, then over seeded random (graph, optimal coloring) samples."""
    lonely.check_max_len(max_len)
    _check_seed(seed)
    result = SuiteResult("lonely-path", {
        "max_n": max_n, "max_len": max_len, "samples": samples,
        "sample_ns": list(sample_ns), "seed": seed, "densities": list(DENSITIES),
    })

    def views() -> Iterator[lonely.ColoredGraph]:
        for g in exhaustive_graphs(0, max_n):
            yield from lonely.optimal_views(g, None, guards)
        rng = random.Random(seed)
        for g in sampled_graphs(samples, sample_ns, rng):
            yield lonely.ColoredGraph(g, one_optimal_coloring(g, rng=rng))

    def join(cg: lonely.ColoredGraph) -> tuple[int, list[dict]]:
        checks, failures = lonely.join_failures(cg, max_len)
        for bad in failures:
            bad["g6"] = emit_graph6(cg.g)
        return checks, failures

    rec = stream_record("lonely-path-join", views(), join)
    result.details["colorings"] = _absorb(result, rec)
    return result


def suite_gen_lonely_path(max_n: int, rs: tuple[int, ...] = (2, 3),
                          max_len: int = 3,
                          guards: Guards = DEFAULT_GUARDS) -> SuiteResult:
    """Joined-paths property for size-capped colorings (properties B_r),
    over the P-optimal colorings of each B_r."""
    lonely.check_max_len(max_len)
    result = SuiteResult("generalized-lonely-path",
                         {"max_n": max_n, "rs": list(rs), "max_len": max_len})
    for g in exhaustive_graphs(0, max_n):
        for r in rs:
            prop = b_r(r)
            lonely.check_path_join_property(g, prop, guards)
            views = (lonely.ColoredGraph(g, c) for c in enumerate_p_optimal(g, prop, guards))
            rec = stream_record(f"lonely-path-join[{prop.name}]", views,
                                lambda cg: lonely.join_failures(cg, max_len))
            _absorb(result, rec, g6=emit_graph6(g), r=r)
    return result


def suite_replete(max_n: int, t2s: tuple[int, ...] = (0, 1),
                  rs: tuple[int, ...] = (2, 3),
                  guards: Guards = DEFAULT_GUARDS) -> SuiteResult:
    """Lonely-out-degree lower bounds plus the touches-everybody checks,
    classic and r-bounded."""
    result = SuiteResult("replete", {"max_n": max_n, "t2s": list(t2s), "rs": list(rs)})
    for g in exhaustive_graphs(0, max_n):
        optimal = lonely.optimal_views(g, None, guards)
        for r in (None, *rs):
            stream = lonely.optimal_views(g, r, guards, optimal)
            for rec in stream_claims(g, r, stream, t2s, guards):
                _absorb(result, rec, g6=emit_graph6(g), claim=rec.name)
    return result


def suite_identities(max_n: int, guards: Guards = DEFAULT_GUARDS) -> SuiteResult:
    """The identity rows of ``bounds.CLAIMS``, iota_2 = n - 2 nu(complement)
    and chi_2 - M_2 = iota_2, exhaustively. A violation payload is the
    record's witness plus ``g6`` and ``claim``; the first row's read of
    ``bounded_stats`` raises ``GuardExceededError`` on a graph past the
    guard. ``chi2-identity`` holds by construction (M_2 = n - chi_2 and
    iota_2 = 2 chi_2 - n), so it cannot fail here;
    ``test_chi_2_read_from_complement_matching`` and
    ``test_bounded_matches_oracle`` check chi_2 and M_2 independently."""
    result = SuiteResult("identities", {"max_n": max_n})
    params = VerificationParams(guards=guards)
    for g in exhaustive_graphs(0, max_n):
        matching = _matching_identity("iota2-matching-identity", g, None, guards)
        for rec in (matching, *evaluate_generalized(g, 2, params).claims):
            if rec.name not in ("iota2-matching-identity", "chi2-identity"):
                continue
            result.checked += 1
            if rec.verdict == VERDICT_VIOLATION:
                result.violations.append(
                    {**rec.witness, "g6": emit_graph6(g), "claim": rec.name})
    return result


def random_subset_property(colorings: list[Coloring], rng: random.Random,
                           name: str) -> ColoringProperty:
    chosen = frozenset(c for c in colorings if rng.random() < 0.5)
    return ColoringProperty(lambda c: c in chosen, name)


def suite_properties(seed: int = 0, predicates: int = 100, max_n_br: int = 5,
                     guards: Guards = DEFAULT_GUARDS) -> SuiteResult:
    """Checks the property-framework characterizations.

    Part 1: B_r (r = 2, 3) must pass both the frame-property and the
    singleton-friendliness checks on every graph up to max_n_br.
    Part 2: on K3, P4 and C5, random subset predicates probe two statements:
    the frame>=3 condition must imply both checks (a proved implication), and
    the (small-count, frame>=3) condition is compared against their
    conjunction (a claimed equivalence). Disagreements are reported as
    violations rather than resolved.
    """
    from .graphs import complete, cycle, path

    _check_seed(seed)
    result = SuiteResult("properties", {
        "seed": seed, "predicates": predicates, "max_n_br": max_n_br,
    })
    for g in exhaustive_graphs(0, max_n_br):
        for r in (2, 3):
            result.checked += 1
            prop = b_r(r)
            ok_frame = is_frame_property(g, prop, guards)
            ok_sf = is_singleton_friendly(g, prop, guards)
            if not (ok_frame and ok_sf):
                result.violations.append({
                    "claim": "b_r-checks", "g6": emit_graph6(g), "r": r,
                    "frame_property": ok_frame, "singleton_friendly": ok_sf,
                })

    rng = random.Random(seed)
    for label, g in (("K3", complete(3)), ("P4", path(4)), ("C5", cycle(5))):
        colorings = list(enumerate_colorings(g, guards))
        for i in range(predicates):
            prop = random_subset_property(colorings, rng, f"rand-{label}-{i}")
            fp = is_frame_property(g, prop, guards)
            sf = is_singleton_friendly(g, prop, guards)
            f3 = check_frame3_sufficiency(g, prop, guards)
            cc = check_complete_condition(g, prop, guards)
            result.checked += 2
            if f3 and not (fp and sf):
                result.violations.append({
                    "claim": "frame3-sufficiency", "graph": label, "predicate": i,
                    "satisfying": [c.as_lists() for c in colorings if prop(c)],
                })
            if cc != (fp and sf):
                result.violations.append({
                    "claim": "complete-condition-iff", "graph": label, "predicate": i,
                    "complete_condition": cc, "frame_property": fp,
                    "singleton_friendly": sf,
                    "satisfying": [c.as_lists() for c in colorings if prop(c)],
                })
    return result


# Every suite as ``verify`` runs it: (max_n, params, parsed arguments) -> result.
SUITES = {
    "lonely-path": lambda max_n, params, args: suite_lonely_path(
        max_n, max_len=params.max_path_len, samples=args.samples,
        sample_ns=tuple(args.sample_ns) or (7, 8), seed=args.seed or 0,
        guards=params.guards),
    "generalized-lonely-path": lambda max_n, params, args: suite_gen_lonely_path(
        max_n, rs=tuple(r for r in params.r_list if r >= 2),
        max_len=params.max_path_len, guards=params.guards),
    "replete": lambda max_n, params, args: suite_replete(
        max_n, t2s=params.t2_list, rs=params.r_list, guards=params.guards),
    "swap": lambda max_n, params, args: suite_swap(max_n, guards=params.guards),
    "properties": lambda max_n, params, args: suite_properties(
        seed=args.seed or 0, max_n_br=max_n,
        predicates=100 if args.predicates is None else args.predicates,
        guards=params.guards),
    "identities": lambda max_n, params, args: suite_identities(max_n, guards=params.guards),
}


# ---------------------------------------------------------------------------
# Sweep and search drivers
# ---------------------------------------------------------------------------


def load_graph6_lines(path: str) -> tuple[list[tuple[int, Graph]], list[tuple[int, str]]]:
    """Parse a one-graph-per-line corpus. Returns (lineno, graph) pairs and
    (lineno, message) errors; blank lines are skipped."""
    graphs: list[tuple[int, Graph]] = []
    errors: list[tuple[int, str]] = []
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                graphs.append((lineno, parse_graph6(stripped)))
            except (GraphFormatError, ValueError) as exc:
                errors.append((lineno, str(exc)))
    return graphs, errors


def sweep_reports(graphs: Iterable[Graph],
                  params: VerificationParams) -> list[dict]:
    """One full report per graph, ordered by (n, graph6 id)."""
    reports = [full_report(g, params) for g in graphs]
    reports.sort(key=lambda rep: (rep["inv"]["n"], rep["g6"]))
    return reports


def search_claim(query: str, params: VerificationParams, min_n: int = 1,
                 max_n: int = 6, samples: int = 0,
                 sample_ns: tuple[int, ...] = (), seed: int = 0) -> dict:
    """Hunt for VIOLATION verdicts of one claim. Exhaustive over min_n..max_n,
    then seeded random samples. Returns counts plus counterexample artifacts;
    ``not_evaluated`` counts the matched records a guard refused, and
    ``guard_reason`` gives the first refusal's reason."""
    _check_seed(seed)
    artifacts: list[dict] = []
    refusals: list[str] = []
    graphs_seen = 0
    records_seen = 0

    def visit(g: Graph):
        nonlocal graphs_seen, records_seen
        graphs_seen += 1
        for rec in claim_records_for(g, query, params):
            records_seen += 1
            if rec.verdict == VERDICT_NOT_EVALUATED:
                refusals.append(rec.witness["reason"])
            elif rec.verdict == VERDICT_VIOLATION:
                artifacts.append({
                    "claim": rec.name,
                    "g6": emit_graph6(g),
                    "r": rec.witness.get("r"),
                    "witness": rec.witness,
                })

    for g in chain(exhaustive_graphs(min_n, max_n),
                   sampled_graphs(samples, sample_ns, random.Random(seed))):
        visit(g)
    return {
        "claim": query,
        "graphs": graphs_seen,
        "records": records_seen,
        "not_evaluated": len(refusals),
        "guard_reason": refusals[0] if refusals else None,
        "counterexamples": artifacts,
    }
