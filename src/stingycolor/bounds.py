"""Per-graph evaluation of every chromatic inequality and implication.

Each claim is stored as hypothesis/conclusion truth values with an exact
verdict: checked-pass (hypothesis and conclusion true), vacuous-pass
(hypothesis false), VIOLATION (hypothesis true, conclusion false), or
not-evaluated when an enumeration guard blocks a needed quantity. Every
inequality is compared in cleared-denominator integer form (times 2 or 4,
ceilings as (x + 1) // 2), so there is no tolerance policy anywhere.

Conjecture violations are first-class artifacts carrying enough data
(graph6 plus witness colorings) to re-verify independently.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from operator import itemgetter
from types import SimpleNamespace
from typing import Callable, Iterable, Sequence

from .graphs import (
    Graph,
    bits,
    emit_graph6,
    invariants,
    matching_number,
    max_independent_set_mask,
    parse_graph6,
)
from .coloring import (
    Guards,
    DEFAULT_GUARDS,
    GuardExceededError,
    _best_partition_score,
    b_r,
    bounded_stats,
    chromatic_number,
    colorable,
    stats,
)
from . import lonely

VERDICT_CHECKED = "checked-pass"
VERDICT_VACUOUS = "vacuous-pass"
VERDICT_VIOLATION = "VIOLATION"
VERDICT_NOT_EVALUATED = "not-evaluated"


@dataclass(frozen=True)
class VerificationParams:
    """Knobs shared by the evaluators and suites. ``t2_list`` holds doubled
    half-integer slacks (so 1 means t = 1/2)."""

    r_list: tuple[int, ...] = (1, 2, 3)
    t2_list: tuple[int, ...] = (0, 1)
    guards: Guards = DEFAULT_GUARDS
    max_path_len: int = 3

    def __post_init__(self):
        if any(r < 1 for r in self.r_list):
            raise ValueError("r values must be positive")
        if any(t2 < 0 for t2 in self.t2_list):
            raise ValueError("slacks must be nonnegative")
        # a repeated value would repeat every record named after it
        if len(set(self.r_list)) < len(self.r_list):
            raise ValueError("r values must be distinct")
        if len(set(self.t2_list)) < len(self.t2_list):
            raise ValueError("slacks must be distinct")
        if self.max_path_len < 1:
            raise ValueError("max_path_len must be at least 1")


class Record(dict):
    """A JSON object a report writes, built once: its fields read as
    attributes too, ``to_dict`` returns the object itself, and
    ``violations`` lists the records of its ``claims`` whose verdict is
    VIOLATION."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return self

    def violations(self) -> list[ClaimRecord]:
        return [c for c in self["claims"] if c["verdict"] == VERDICT_VIOLATION]


class ClaimRecord(Record):
    """One claim's record on one graph: name, hyp, concl, verdict and
    witness, in that order."""

    __slots__ = ()
    name = property(itemgetter("name"))
    hyp = property(itemgetter("hyp"))
    concl = property(itemgetter("concl"))
    verdict = property(itemgetter("verdict"))
    witness = property(itemgetter("witness"))


def _claim(name: str, hyp: bool, concl: bool | None, witness: dict) -> ClaimRecord:
    verdict = VERDICT_VACUOUS if not hyp else VERDICT_CHECKED if concl else VERDICT_VIOLATION
    return ClaimRecord(name=name, hyp=bool(hyp), concl=bool(concl) if hyp else None,
                       verdict=verdict, witness=witness)


def _not_evaluated(name: str, reason: str) -> ClaimRecord:
    return ClaimRecord(name=name, hyp=None, concl=None, verdict=VERDICT_NOT_EVALUATED,
                       witness={"reason": reason})


class BoundsReport(Record):
    """``evaluate_bounds``'s report: g6, inv and the claims tuple."""

    __slots__ = ()
    g6 = property(itemgetter("g6"))
    inv = property(itemgetter("inv"))
    claims = property(itemgetter("claims"))


class GeneralizedReport(Record):
    """``evaluate_generalized``'s report at one r: g6, r, chi_r, m_r, iota_r,
    claims and counterexamples, the last two as tuples."""

    __slots__ = ()
    g6 = property(itemgetter("g6"))
    r = property(itemgetter("r"))
    chi_r = property(itemgetter("chi_r"))
    m_r = property(itemgetter("m_r"))
    iota_r = property(itemgetter("iota_r"))
    claims = property(itemgetter("claims"))
    counterexamples = property(itemgetter("counterexamples"))


CLASSIC, GENERALIZED, LONELY = "classic", "generalized", "lonely"

# The one record a refused lonely stream leaves: every stream refuses at the
# same optimal guard, so it stands for every lonely claim.
LONELY_REFUSED = "lonely-claims"


@dataclass(frozen=True)
class Claim:
    """One row of the claim table, making one record per graph (per r for a
    generalized row) from the graph's quantities ``q``. A row without
    ``compute`` is decided by ``_claim`` from ``hyp`` (absent: always holds)
    and ``concl``; a row with it builds its record as
    ``compute(name, g, q, guards)``."""

    name: str
    family: str
    hyp: Callable | None = None
    concl: Callable | None = None
    compute: Callable | None = None
    rs: tuple[int, ...] = ()  # generalized: only these r, and the bare name
    counterexample: bool = False  # generalized: a violation yields an artifact

    def record(self, name: str, g: Graph, q: SimpleNamespace, witness: dict,
               guards: Guards) -> ClaimRecord:
        if self.compute:
            return self.compute(name, g, q, guards)
        hyp = self.hyp is None or self.hyp(q)
        return _claim(name, hyp, hyp and self.concl(q), witness)


def _patching_claim(name: str, g: Graph, q: SimpleNamespace, guards: Guards) -> ClaimRecord:
    """Stinginess of patched colorings, tested constructively on H = one
    maximum independent set: when chi(G) = chi(G - H) + chi(H), require
    iota(G) >= iota(G - H) + iota(H). H is independent, so the one class H
    is the only optimal coloring of G[H]: chi(H) is 1 (0 for H empty) and
    iota(H) is 1 only when |H| = 1. For H nonempty, chi(G - H) is chi - 1 or
    chi (H back as one class gives >= chi - 1), so the hypothesis is that
    G - H is (chi - 1)-colorable, and chi(G - H) is read from that decision;
    for n = 0 both sides are 0. Under the hypothesis one singleton search at
    chi(G - H) gives iota(G - H)."""
    h_mask = max_independent_set_mask(g)
    h = list(bits(h_mask))
    rest = g._induced_mask(((1 << g.n) - 1) ^ h_mask)
    chi_h = 1 if h else 0
    hyp = colorable(rest, q.chi - chi_h)
    chi_rest = q.chi - chi_h if hyp else q.chi
    witness = {"H": h, "chi": q.chi, "chi_rest": chi_rest, "chi_H": chi_h}
    if not hyp:
        return _claim(name, False, None, witness)
    iota_rest = _best_partition_score(rest, chi_rest, None, 1)[0]
    iota_h = 1 if len(h) == 1 else 0
    witness.update({"iota": q.iota, "iota_rest": iota_rest, "iota_H": iota_h})
    return _claim(name, True, q.iota >= iota_rest + iota_h, witness)


def _matching_bound(name: str, g: Graph, q, guards: Guards) -> ClaimRecord:
    """4*nu >= n - alpha + min_deg."""
    return _claim(name, True, 4 * q.nu >= g.n - q.alpha + q.min_deg,
                  {"n": g.n, "alpha": q.alpha, "min_deg": q.min_deg, "nu": q.nu})


def _matching_identity(name: str, g: Graph, q, guards: Guards) -> ClaimRecord:
    """The cross-check identity iota_2 = n - 2*nu(complement)."""
    try:
        bs2 = bounded_stats(g, 2, guards)
    except GuardExceededError as exc:
        return _not_evaluated(name, str(exc))
    nu_comp = matching_number(g.complement())
    return _claim(name, True, bs2.iota_r == g.n - 2 * nu_comp,
                  {"iota_2": bs2.iota_r, "n": g.n, "nu_complement": nu_comp})


def verify_matching_corollary(g: Graph, guards: Guards = DEFAULT_GUARDS) -> list[ClaimRecord]:
    """4*nu >= n - alpha + min_deg, plus the cross-check identity
    iota_2 = n - 2*nu(complement)."""
    inv = invariants(g)
    return [_matching_bound("matching-bound", g, inv, guards),
            _matching_identity("iota2-matching-identity", g, inv, guards)]


def _gen_patching_claim(name: str, g: Graph, q: SimpleNamespace, guards: Guards) -> ClaimRecord:
    """r-bounded patching, tested on H = the union of the size-r classes of
    the M_r witness coloring. G[H] splits into M_r independent r-sets, and no
    r-bounded coloring of it has fewer than |H| / r classes, so its optimal
    r-bounded colorings have only size-r classes: chi_r(H) = |H| / r = M_r,
    and iota_r(H) is |H| for r = 1 and 0 otherwise. chi_r(G - H) is
    k = chi_r - M_r: the witness restricted to G - H gives <=, and adding its
    M_r classes back to any r-bounded coloring of G - H gives >=. So the
    hypothesis chi_r(G) = chi_r(G - H) + chi_r(H) always holds. When k is
    |G - H| (always at r = 1, 2) the discrete partition is the only one, and
    iota_r(G - H) = |G - H| is read; otherwise one singleton search at k
    gives it. G - H is within the guard that ``bounded_stats`` passed."""
    bs = q.bs
    r = bs.r
    h_mask = sum(m for m in bs.m_masks if m.bit_count() == r)  # disjoint classes
    k_rest = bs.chi_r - bs.m_r
    n_rest = g.n - r * bs.m_r
    if k_rest == n_rest:
        iota_rest = n_rest
    else:
        rest = g._induced_mask(((1 << g.n) - 1) ^ h_mask)
        iota_rest = _best_partition_score(rest, k_rest, r, 1)[0]
    iota_h = h_mask.bit_count() if r == 1 else 0
    witness = {"r": r, "H": list(bits(h_mask)), "chi_r": bs.chi_r, "chi_r_rest": k_rest,
               "chi_r_H": bs.m_r, "iota_r": bs.iota_r, "iota_r_rest": iota_rest,
               "iota_r_H": iota_h}
    return _claim(name, True, bs.iota_r >= iota_rest + iota_h, witness)


# Every claim in report order. Classic rows read n, omega, alpha, max_deg, chi,
# iota, min_deg and nu; generalized rows r, n, omega, max_deg, chi_r, m_r,
# iota_r, gap = chi_r - m_r and bs, the ``bounded_stats`` record. A ceiling
# ceil((x + 1) / 2) is written (x + 2) // 2.
CLAIMS = (
    Claim("very-stingy-reed", CLASSIC, lambda q: 2 * q.iota > q.omega,
          lambda q: 2 * q.chi <= q.omega + q.max_deg + 1),
    Claim("stinginess-patching", CLASSIC, compute=_patching_claim),
    Claim("chi-avg-bound", CLASSIC, concl=lambda q: 2 * q.chi <= q.iota + q.n),
    Claim("reed-disjunct", CLASSIC,
          concl=lambda q: (2 * q.chi <= q.omega + q.max_deg + 1
                           or 4 * q.chi <= q.omega + 2 * (q.n - q.alpha) + 4)),
    Claim("reed-disjunct-gap", CLASSIC, lambda q: 2 * q.chi > q.omega + q.max_deg + 1,
          lambda q: 2 * (q.n - q.max_deg) >= 2 * q.alpha + q.omega - 1),
    Claim("reed-chi-above-half", CLASSIC, lambda q: q.chi > (q.n + 1) // 2,
          lambda q: 2 * q.chi <= q.omega + q.max_deg + 1),
    Claim("reed-alpha-two", CLASSIC, lambda q: q.alpha <= 2,
          lambda q: q.chi <= (q.omega + q.max_deg + 2) // 2),
    Claim("simple-bound", CLASSIC, lambda q: 2 * q.chi > q.n + 3 - q.alpha,
          lambda q: q.chi <= (q.omega + q.max_deg + 2) // 2),
    Claim("chi-at-least-half", CLASSIC, lambda q: 2 * q.chi >= q.n + 1,
          lambda q: q.chi <= (q.omega + q.max_deg + 2) // 2),
    Claim("ceil-reed-gap", CLASSIC, lambda q: q.chi > (q.omega + q.max_deg + 2) // 2,
          lambda q: q.n - q.max_deg >= q.alpha + q.omega),
    Claim("matching-bound", CLASSIC, compute=_matching_bound),
    Claim("iota2-matching-identity", CLASSIC, compute=_matching_identity),
    Claim("gen-very-stingy-reed", GENERALIZED, lambda q: 2 * q.iota_r > q.omega,
          lambda q: 2 * q.gap <= q.omega + q.max_deg + 1),
    Claim("gen-reed-conjecture", GENERALIZED, counterexample=True,
          concl=lambda q: q.gap <= (q.omega + q.max_deg + 2) // 2),
    Claim("gen-reed-disjunct", GENERALIZED,
          concl=lambda q: (2 * q.gap <= q.omega + q.max_deg + 1
                           or 4 * q.gap <= q.omega + 2 * (q.n - q.r * q.m_r))),
    Claim("gen-disjunct-gap", GENERALIZED, lambda q: 2 * q.gap > q.omega + q.max_deg + 1,
          lambda q: 2 * (q.n - q.max_deg) >= 2 * q.r * q.m_r + q.omega + 3),
    Claim("gen-stinginess-patching", GENERALIZED, compute=_gen_patching_claim),
    Claim("gen-chi-avg-bound", GENERALIZED, concl=lambda q: 2 * q.chi_r <= q.iota_r + q.n),
    Claim("r1-sanity", GENERALIZED, rs=(1,), concl=lambda q: q.chi_r == q.n and q.m_r == q.n),
    Claim("iota2-bound", GENERALIZED, rs=(2,),
          concl=lambda q: 2 * q.iota_r <= q.omega + q.max_deg + 1),
    # Holds by construction (M_2 is read as n - chi_2, iota_2 is 2 chi_2 - n); the
    # tests check chi_2 and M_2 independently (test_chi_2_read_from_complement_matching).
    Claim("chi2-identity", GENERALIZED, rs=(2,), concl=lambda q: q.gap == q.iota_r),
    Claim("lonely-path-join", LONELY),
    Claim("class-meets-all-classes", LONELY),
    Claim("lonely-degree-bound", LONELY),
    # Holds by construction: (w, v) lonely makes adj[w] & (A ^ 1 << v) zero, likewise
    # for B, and a 1-for-1 exchange keeps both class sizes, so it can fail only through
    # a wrong lonely digraph; the tests check swap_failures against the vertex-pair
    # oracle (test_swap_failures_match_vertex_pair_reference).
    Claim("swap-preserves-frame", LONELY),
    Claim("doubly-critical-iff-two-singletons", LONELY),
    Claim("singleton-meets-small-classes", LONELY),
    Claim("gen-lonely-degree-bound", LONELY),
)
# Each classic row with its record name, as ``_generalized_rows`` gives them.
CLASSIC_ROWS = tuple((row, row.name) for row in CLAIMS if row.family == CLASSIC)
_ROW_BY_NAME = {row.name: row for row in CLAIMS}


def base_name(claim: str) -> str:
    return claim.split("[", 1)[0]


def evaluate_bounds(g: Graph, params: VerificationParams = VerificationParams()) -> BoundsReport:
    """All unparameterized claims on one graph."""
    inv = invariants(g)
    g6 = emit_graph6(g)
    try:
        st, refused = stats(g, params.guards), None
    except GuardExceededError as exc:
        st, refused = None, str(exc)
    base = {"n": g.n, "omega": inv.omega, "alpha": inv.alpha, "max_deg": inv.max_deg,
            "chi": st and st.chi, "iota": st and st.iota}
    inv_dict = {**base, "min_deg": inv.min_deg, "nu": inv.nu}
    if refused:
        return BoundsReport(g6=g6, inv=inv_dict, claims=tuple(
            _not_evaluated(name, refused) for _, name in CLASSIC_ROWS))
    q = SimpleNamespace(**inv_dict)
    return BoundsReport(g6=g6, inv=inv_dict, claims=tuple(
        [row.record(name, g, q, base, params.guards) for row, name in CLASSIC_ROWS]))


@functools.lru_cache(maxsize=None)
def _generalized_rows(r: int) -> tuple[tuple[Claim, str], ...]:
    """The generalized rows that apply at ``r``, each with its record name."""
    return tuple((row, row.name if row.rs else f"{row.name}[r={r}]")
                 for row in CLAIMS
                 if row.family == GENERALIZED and (not row.rs or r in row.rs))


def evaluate_generalized(g: Graph, r: int,
                         params: VerificationParams = VerificationParams()) -> GeneralizedReport:
    """All r-parameterized claims on one graph, for a single r."""
    inv = invariants(g)
    g6 = emit_graph6(g)
    rows = _generalized_rows(r)
    try:
        bs = bounded_stats(g, r, params.guards)
    except GuardExceededError as exc:
        return GeneralizedReport(g6=g6, r=r, chi_r=None, m_r=None, iota_r=None, claims=tuple(
            _not_evaluated(name, str(exc)) for _, name in rows), counterexamples=())
    chi_r, m_r, iota_r = bs.chi_r, bs.m_r, bs.iota_r
    base = {"r": r, "n": g.n, "omega": inv.omega, "max_deg": inv.max_deg,
            "chi_r": chi_r, "m_r": m_r, "iota_r": iota_r}
    q = SimpleNamespace(gap=chi_r - m_r, bs=bs, **base)
    claims = []
    counterexamples = []
    for row, name in rows:
        rec = row.record(name, g, q, base, params.guards)
        claims.append(rec)
        if row.counterexample and rec.verdict == VERDICT_VIOLATION:
            counterexamples.append({
                "claim": name,
                "g6": g6,
                "r": r,
                "chi_r": chi_r,
                "m_r": m_r,
                "omega": inv.omega,
                "max_deg": inv.max_deg,
                "m_witness": bs.m_witness.as_lists(),
                "iota_witness": bs.iota_witness.as_lists(),
            })
    return GeneralizedReport(g6=g6, r=r, chi_r=chi_r, m_r=m_r, iota_r=iota_r,
                             claims=tuple(claims), counterexamples=tuple(counterexamples))


class UnknownClaimError(ValueError):
    def __init__(self, claim: str):
        valid = ", ".join(sorted(_ROW_BY_NAME))
        super().__init__(f"unknown claim {claim!r}; valid claims: {valid}")


def claim_records_for(g: Graph, query: str, params: VerificationParams) -> list[ClaimRecord]:
    """The claim records on ``g`` whose name matches ``query`` (exact name or
    base name, in which case every parameterization in params is covered),
    and ``lonely-claims``, which a refused lonely stream leaves in their
    place."""
    base = base_name(query)
    row = _ROW_BY_NAME.get(base)
    if row is None:
        raise UnknownClaimError(query)
    if row.family == CLASSIC:
        records = evaluate_bounds(g, params).claims
    elif row.family == GENERALIZED:
        records = [rec for r in params.r_list
                   for rec in evaluate_generalized(g, r, params).claims]
    else:
        records = _lonely_claims(g, params)
    return [rec for rec in records
            if rec.name in (query, LONELY_REFUSED)
            or (query == base and base_name(rec.name) == base)]


def recheck_counterexample(artifact: dict,
                           params: VerificationParams = VerificationParams()) -> bool:
    """True iff the claimed violation reproduces from scratch on the artifact's
    graph. Independent of the run that produced it. The artifact's ``r``, when
    present, is the r evaluated."""
    g = parse_graph6(artifact["g6"])
    if artifact.get("r") is not None:
        params = replace(params, r_list=(artifact["r"],))
    try:
        return any(rec.name == artifact["claim"] and rec.verdict == VERDICT_VIOLATION
                   for rec in claim_records_for(g, artifact["claim"], params))
    except UnknownClaimError:
        return False


# ---------------------------------------------------------------------------
# Combined per-graph report (bounds + generalized + lonely-edge claims)
# ---------------------------------------------------------------------------


_ALL_OPTIMAL = {"scope": "all optimal colorings"}


def format_t(t2: int) -> str:
    """Half-integer slack t2/2 rendered exactly, e.g. 0, 1/2, 1, 3/2."""
    return f"{t2}/2" if t2 & 1 else str(t2 // 2)


def stream_record(name: str, views: Iterable[lonely.ColoredGraph],
                  check: Callable[[lonely.ColoredGraph], tuple[int, list[dict]]],
                  hyp: bool = True, extra: dict | None = None) -> ClaimRecord:
    """One lonely claim's record: the per-coloring ``check`` (checks made,
    violation payloads) run on every coloring of the stream, which is read
    only when the hypothesis holds. The witness counts the colorings and
    checks, then ``extra``, then any violations."""
    colorings = checks = 0
    violations: list[dict] = []
    if hyp:
        for cg in views:
            made, bad = check(cg)
            colorings += 1
            checks += made
            violations.extend(bad)
    witness = {"colorings_checked": colorings, "checks": checks}
    if extra:
        witness.update(extra)
    if violations:
        witness["violations"] = violations
    return _claim(name, hyp, not violations, witness)


def stream_claims(g: Graph, r: int | None, views: Sequence[lonely.ColoredGraph],
                  t2_list: Iterable[int], guards: Guards) -> list[ClaimRecord]:
    """The touches and lonely-out-degree records of one stream: the optimal
    colorings (``r`` None) or the optimal r-bounded ones, read once per claim.

    classic: every class of every optimal coloring holds a vertex meeting all
    other classes; and, under 2*chi > omega + max_deg + 1 + t2, every class
    holds a vertex v with |L_C(v)| >= omega + t2. With ``r``: every singleton
    of every optimal r-bounded coloring meets all other classes of size below
    r; and, under 2*(chi_r - M_r) > omega + max_deg + 1 + t2, every singleton
    {v} has |L_C(v)| >= omega + t2. The slack t = t2/2 stays doubled."""
    inv = invariants(g)
    if r is None:
        out = [stream_record("class-meets-all-classes", views, lonely.touches_failures,
                             extra=_ALL_OPTIMAL)]
        degree, gap = "lonely-degree-bound[t=", chromatic_number(g)
    else:
        out = [stream_record(f"singleton-meets-small-classes[r={r}]", views,
                             lambda cg: lonely.touches_failures(cg, r))]
        bs = bounded_stats(g, r, guards)
        degree, gap = f"gen-lonely-degree-bound[r={r},t=", bs.chi_r - bs.m_r
    for t2 in t2_list:
        need = inv.omega + t2
        out.append(stream_record(f"{degree}{format_t(t2)}]", views,
                                 lambda cg: lonely.replete_failures(cg, r, need),
                                 2 * gap > inv.omega + inv.max_deg + 1 + t2))
    return out


def _lonely_claims(g: Graph, params: VerificationParams) -> list[ClaimRecord]:
    """The lonely-edge lemma records. Each optimal-coloring stream (uncapped,
    then capped at each r) is built once and feeds every claim on it. Each
    capped stream is built from the uncapped list (see
    ``lonely.optimal_views``): at r >= alpha it is that list, and below, its
    views that fit the cap when chi_r = chi. Each distinct coloring, keyed by its class
    masks, gets one join check, shared by the streams it appears in."""
    guards = params.guards
    joins: dict[tuple[int, ...], tuple[int, list[dict]]] = {}

    def join(cg: lonely.ColoredGraph) -> tuple[int, list[dict]]:
        found = joins.get(cg.masks)
        if found is None:
            found = joins[cg.masks] = lonely.join_failures(cg, params.max_path_len)
        return found

    try:
        optimal = lonely.optimal_views(g, None, guards)
    except GuardExceededError as exc:
        return [_not_evaluated(LONELY_REFUSED, str(exc))]
    out = [stream_record("lonely-path-join", optimal, join, extra=_ALL_OPTIMAL)]
    out.extend(stream_claims(g, None, optimal, params.t2_list, guards))
    out.append(stream_record("swap-preserves-frame", optimal, lonely.swap_failures))
    dc = lonely.doubly_critical_edges(g, guards)
    out.append(_claim(
        "doubly-critical-iff-two-singletons", True, dc.consistent,
        {"edges": [list(e) for e in dc.edges], "iota": dc.iota}))
    for r in params.r_list:
        bounded = lonely.optimal_views(g, r, guards, optimal)
        out.extend(stream_claims(g, r, bounded, params.t2_list, guards))
        if r >= 2:
            # The optimal r-bounded colorings are the B_r-optimal ones, in the
            # same order, so B_r's path claim reads the same stream. B_r
            # passes both property checks without enumerating for r >= 2.
            prop = b_r(r)
            lonely.check_path_join_property(g, prop, guards)
            out.append(stream_record(f"lonely-path-join[{prop.name}]", bounded, join))
    return out


def full_report(g: Graph, params: VerificationParams = VerificationParams()) -> BoundsReport:
    """The analyze/sweep JSON object for one graph: the ``evaluate_bounds``
    report, extended by ``inv["bounded"]``, the generalized records per r,
    the lonely-edge records and, when there are any, the counterexamples."""
    report = evaluate_bounds(g, params)
    claims = report["claims"] = list(report.claims)
    bounded = report.inv["bounded"] = {}
    counterexamples: list[dict] = []
    for r in params.r_list:
        rep = evaluate_generalized(g, r, params)
        claims.extend(rep.claims)
        bounded[str(r)] = {"chi_r": rep.chi_r, "m_r": rep.m_r, "iota_r": rep.iota_r}
        counterexamples.extend(rep.counterexamples)
    claims.extend(_lonely_claims(g, params))
    if counterexamples:
        report["counterexamples"] = counterexamples
    return report
