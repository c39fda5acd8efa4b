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
from fractions import Fraction
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
    seed: int = 0
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


@dataclass(slots=True)
class ClaimRecord:
    name: str
    hyp: bool | None
    concl: bool | None
    verdict: str
    witness: dict

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "hyp": self.hyp,
            "concl": self.concl,
            "verdict": self.verdict,
            "witness": self.witness,
        }

    @staticmethod
    def from_dict(d: dict) -> "ClaimRecord":
        return ClaimRecord(d["name"], d["hyp"], d["concl"], d["verdict"], d["witness"])


def _claim(name: str, hyp: bool, concl: bool | None, witness: dict) -> ClaimRecord:
    if not hyp:
        return ClaimRecord(name, False, None, VERDICT_VACUOUS, witness)
    verdict = VERDICT_CHECKED if concl else VERDICT_VIOLATION
    return ClaimRecord(name, True, bool(concl), verdict, witness)


def _not_evaluated(name: str, reason: str) -> ClaimRecord:
    return ClaimRecord(name, None, None, VERDICT_NOT_EVALUATED, {"reason": reason})


@dataclass(frozen=True)
class BoundsReport:
    g6: str
    inv: dict
    claims: tuple[ClaimRecord, ...]

    def violations(self) -> list[ClaimRecord]:
        return [c for c in self.claims if c.verdict == VERDICT_VIOLATION]

    def to_dict(self) -> dict:
        return {
            "g6": self.g6,
            "inv": self.inv,
            "claims": [c.to_dict() for c in self.claims],
        }

    @staticmethod
    def from_dict(d: dict) -> "BoundsReport":
        return BoundsReport(
            d["g6"], d["inv"], tuple(ClaimRecord.from_dict(c) for c in d["claims"])
        )


@dataclass(frozen=True)
class GeneralizedReport:
    g6: str
    r: int
    chi_r: int | None
    m_r: int | None
    iota_r: int | None
    claims: tuple[ClaimRecord, ...]
    counterexamples: tuple[dict, ...] = ()

    def violations(self) -> list[ClaimRecord]:
        return [c for c in self.claims if c.verdict == VERDICT_VIOLATION]

    def to_dict(self) -> dict:
        return {
            "g6": self.g6,
            "r": self.r,
            "chi_r": self.chi_r,
            "m_r": self.m_r,
            "iota_r": self.iota_r,
            "claims": [c.to_dict() for c in self.claims],
            "counterexamples": list(self.counterexamples),
        }

    @staticmethod
    def from_dict(d: dict) -> "GeneralizedReport":
        return GeneralizedReport(
            d["g6"], d["r"], d["chi_r"], d["m_r"], d["iota_r"],
            tuple(ClaimRecord.from_dict(c) for c in d["claims"]),
            tuple(d["counterexamples"]),
        )


CLASSIC, GENERALIZED, LONELY = "classic", "generalized", "lonely"

# What a refused lonely stream leaves in place of its records: the uncapped
# stream's refusal ends every lonely claim; a capped stream's is tagged [r=R]
# and stands for the rows that read the capped streams.
LONELY_REFUSED = "lonely-claims"
GEN_LONELY_REFUSED = "gen-lonely-claims"


@dataclass(frozen=True)
class Claim:
    """One row of the claim table. A row without ``compute`` is decided by
    ``_claim`` from ``hyp`` (absent: always holds) and ``concl``. A row with
    it builds its records: a classic row as ``compute(row, g, guards)``, one
    record per name in ``names``; a generalized row as
    ``compute(name, g, bounded_stats, guards)``."""

    name: str
    family: str
    hyp: Callable | None = None
    concl: Callable | None = None
    compute: Callable | None = None
    also: tuple[str, ...] = ()  # the further records of a classic compute row
    rs: tuple[int, ...] = ()  # generalized: only these r, and the bare name
    counterexample: bool = False  # generalized: a violation yields an artifact
    placeholder: str | None = None  # lonely: the record left when refused

    @property
    def names(self) -> tuple[str, ...]:
        return (self.name, *self.also)

    def record(self, name: str, q: SimpleNamespace, witness: dict) -> ClaimRecord:
        hyp = self.hyp is None or self.hyp(q)
        return _claim(name, hyp, hyp and self.concl(q), witness)


def _patching_claim(row: Claim, g: Graph, guards: Guards) -> list[ClaimRecord]:
    """Stinginess of patched colorings, tested constructively on H = one
    maximum independent set: when chi(G) = chi(G - H) + chi(H), require
    iota(G) >= iota(G - H) + iota(H). H is independent, so the one class H
    is the only optimal coloring of G[H]: chi(H) is 1 (0 for H empty) and
    iota(H) is 1 only when |H| = 1."""
    h_mask = max_independent_set_mask(g)
    h = list(bits(h_mask))
    rest = g._induced_mask(((1 << g.n) - 1) ^ h_mask)
    chi_g = stats(g, guards).chi
    chi_rest = chromatic_number(rest)
    chi_h = 1 if h else 0
    hyp = chi_g == chi_rest + chi_h
    witness = {"H": h, "chi": chi_g, "chi_rest": chi_rest, "chi_H": chi_h}
    if not hyp:
        return [_claim(row.name, False, None, witness)]
    iota_g = stats(g, guards).iota
    iota_rest = stats(rest, guards).iota
    iota_h = 1 if len(h) == 1 else 0
    witness.update({"iota": iota_g, "iota_rest": iota_rest, "iota_H": iota_h})
    return [_claim(row.name, True, iota_g >= iota_rest + iota_h, witness)]


def verify_matching_corollary(g: Graph, guards: Guards = DEFAULT_GUARDS) -> list[ClaimRecord]:
    """4*nu >= n - alpha + min_deg, plus the cross-check identity
    iota_2 = n - 2*nu(complement)."""
    bound_name, identity_name = MATCHING_PAIR.names
    inv = invariants(g)
    base = {"n": g.n, "alpha": inv.alpha, "min_deg": inv.min_deg, "nu": inv.nu}
    out = [
        _claim(bound_name, True,
               4 * inv.nu >= g.n - inv.alpha + inv.min_deg, base)
    ]
    try:
        bs2 = bounded_stats(g, 2, guards)
    except GuardExceededError as exc:
        out.append(_not_evaluated(identity_name, str(exc)))
        return out
    nu_comp = matching_number(g.complement())
    out.append(
        _claim(identity_name, True,
               bs2.iota_r == g.n - 2 * nu_comp,
               {"iota_2": bs2.iota_r, "n": g.n, "nu_complement": nu_comp})
    )
    return out


def _gen_patching_claim(name: str, g: Graph, bs, guards: Guards) -> ClaimRecord:
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
    r = bs.r
    h_mask = sum(m for m in bs.m_masks if m.bit_count() == r)  # disjoint classes
    k_rest = bs.chi_r - bs.m_r
    n_rest = g.n - r * bs.m_r
    if k_rest == n_rest:
        iota_rest = n_rest
    else:
        rest = g._induced_mask(((1 << g.n) - 1) ^ h_mask)
        iota_rest = _best_partition_score(rest.adj, n_rest, k_rest, r, "singletons")[0]
    iota_h = h_mask.bit_count() if r == 1 else 0
    witness = {"r": r, "H": list(bits(h_mask)), "chi_r": bs.chi_r, "chi_r_rest": k_rest,
               "chi_r_H": bs.m_r, "iota_r": bs.iota_r, "iota_r_rest": iota_rest,
               "iota_r_H": iota_h}
    return _claim(name, True, bs.iota_r >= iota_rest + iota_h, witness)


MATCHING_PAIR = Claim("matching-bound", CLASSIC, also=("iota2-matching-identity",),
                      compute=lambda row, g, guards: verify_matching_corollary(g, guards))

# Every claim in report order. Classic rows read n, omega, alpha, max_deg, chi
# and iota; generalized rows r, n, omega, max_deg, chi_r, m_r, iota_r and
# gap = chi_r - m_r. A ceiling ceil((x + 1) / 2) is written (x + 2) // 2.
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
    MATCHING_PAIR,
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
    # lonely-path-join[B_R] reads the cap = R stream
    Claim("lonely-path-join", LONELY, placeholder=GEN_LONELY_REFUSED),
    Claim("class-meets-all-classes", LONELY, placeholder=LONELY_REFUSED),
    Claim("lonely-degree-bound", LONELY, placeholder=LONELY_REFUSED),
    Claim("swap-preserves-frame", LONELY, placeholder=LONELY_REFUSED),
    Claim("doubly-critical-iff-two-singletons", LONELY, placeholder=LONELY_REFUSED),
    Claim("singleton-meets-small-classes", LONELY, placeholder=GEN_LONELY_REFUSED),
    Claim("gen-lonely-degree-bound", LONELY, placeholder=GEN_LONELY_REFUSED),
)
CLASSIC_ROWS = tuple(row for row in CLAIMS if row.family == CLASSIC)
GENERALIZED_ROWS = tuple(row for row in CLAIMS if row.family == GENERALIZED)
_ROW_BY_NAME = {name: row for row in CLAIMS for name in row.names}


def base_name(claim: str) -> str:
    return claim.split("[", 1)[0]


def _r_tag(claim: str) -> str | None:
    """The R of a name tagged ``[r=R]``, ``[r=R,...]`` or ``[B_R]`` (a claim
    read from the cap = R stream), else None."""
    tag = claim.partition("[")[2]
    return tag[2:].rstrip("]").split(",")[0] if tag[:2] in ("r=", "B_") else None


def evaluate_bounds(g: Graph, params: VerificationParams = VerificationParams()) -> BoundsReport:
    """All unparameterized claims on one graph."""
    inv = invariants(g)
    g6 = emit_graph6(g)
    inv_dict = {
        "n": g.n, "omega": inv.omega, "alpha": inv.alpha,
        "max_deg": inv.max_deg, "min_deg": inv.min_deg, "nu": inv.nu,
        "chi": None, "iota": None,
    }
    try:
        st = stats(g, params.guards)
    except GuardExceededError as exc:
        return BoundsReport(g6, inv_dict, tuple(
            _not_evaluated(name, str(exc)) for row in CLASSIC_ROWS for name in row.names))
    inv_dict["chi"] = st.chi
    inv_dict["iota"] = st.iota
    base = {"n": g.n, "omega": inv.omega, "alpha": inv.alpha, "max_deg": inv.max_deg,
            "chi": st.chi, "iota": st.iota}
    q = SimpleNamespace(**base)
    claims = []
    for row in CLASSIC_ROWS:
        if row.compute:
            claims.extend(row.compute(row, g, params.guards))
        else:
            claims.append(row.record(row.name, q, base))
    return BoundsReport(g6, inv_dict, tuple(claims))


@functools.lru_cache(maxsize=None)
def _generalized_rows(r: int) -> tuple[tuple[Claim, str], ...]:
    """The generalized rows that apply at ``r``, each with its record name."""
    return tuple((row, row.name if row.rs else f"{row.name}[r={r}]")
                 for row in GENERALIZED_ROWS if not row.rs or r in row.rs)


def evaluate_generalized(g: Graph, r: int,
                         params: VerificationParams = VerificationParams()) -> GeneralizedReport:
    """All r-parameterized claims on one graph, for a single r."""
    inv = invariants(g)
    g6 = emit_graph6(g)
    rows = _generalized_rows(r)
    try:
        bs = bounded_stats(g, r, params.guards)
    except GuardExceededError as exc:
        return GeneralizedReport(
            g6, r, None, None, None,
            tuple(_not_evaluated(name, str(exc)) for _, name in rows),
        )
    chi_r, m_r, iota_r = bs.chi_r, bs.m_r, bs.iota_r
    base = {"r": r, "n": g.n, "omega": inv.omega, "max_deg": inv.max_deg,
            "chi_r": chi_r, "m_r": m_r, "iota_r": iota_r}
    q = SimpleNamespace(gap=chi_r - m_r, **base)
    claims = []
    counterexamples = []
    for row, name in rows:
        if row.compute:
            rec = row.compute(name, g, bs, params.guards)
        else:
            rec = row.record(name, q, base)
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
    return GeneralizedReport(g6, r, chi_r, m_r, iota_r, tuple(claims),
                             tuple(counterexamples))


class UnknownClaimError(ValueError):
    def __init__(self, claim: str):
        valid = ", ".join(sorted(_ROW_BY_NAME))
        super().__init__(f"unknown claim {claim!r}; valid claims: {valid}")


def claim_records_for(g: Graph, query: str, params: VerificationParams) -> list[ClaimRecord]:
    """The claim records on ``g`` whose name matches ``query`` (exact name or
    base name, in which case every parameterization in params is covered),
    and the placeholders a refused stream left in place of a lonely claim's:
    ``lonely-claims`` always, and a capped stream's ``[r=R]`` placeholder
    for a base-name query or a query tagged with the same r (``[B_R]``
    counts as r = R)."""
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
            if rec.name == query or (query == base and base_name(rec.name) == base)
            or (rec.verdict == VERDICT_NOT_EVALUATED
                and (rec.name == LONELY_REFUSED
                     or (base_name(rec.name) == row.placeholder
                         and (query == base or _r_tag(rec.name) == _r_tag(query)))))]


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
    """Half-integer slack rendered exactly, e.g. 0, 1/2, 1."""
    return str(Fraction(t2, 2))


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
    then capped at each r) is built once and feeds every claim on it (see
    ``lonely.optimal_views``: a stream capped at r >= alpha is the uncapped
    one); each distinct coloring gets one view, built from its class masks,
    and one join check, shared by the streams it appears in."""
    guards = params.guards
    views = lonely.ViewCache()
    joins: dict[tuple[int, ...], tuple[int, list[dict]]] = {}

    def join(cg: lonely.ColoredGraph) -> tuple[int, list[dict]]:
        found = joins.get(cg.masks)
        if found is None:
            found = joins[cg.masks] = lonely.join_failures(cg, params.max_path_len)
        return found

    out: list[ClaimRecord] = []
    try:
        optimal = lonely.optimal_views(g, None, guards, views)
        out.append(stream_record("lonely-path-join", optimal, join, extra=_ALL_OPTIMAL))
        out.extend(stream_claims(g, None, optimal, params.t2_list, guards))
        out.append(stream_record("swap-preserves-frame", optimal, lonely.swap_failures))
        dc = lonely.doubly_critical_edges(g, guards)
        out.append(_claim(
            "doubly-critical-iff-two-singletons", True, dc.consistent,
            {"edges": [list(e) for e in dc.edges], "iota": dc.iota}))
    except GuardExceededError as exc:
        out.append(_not_evaluated(LONELY_REFUSED, str(exc)))
        return out
    for r in params.r_list:
        try:
            bounded = lonely.optimal_views(g, r, guards, views)
            out.extend(stream_claims(g, r, bounded, params.t2_list, guards))
        except GuardExceededError as exc:
            out.append(_not_evaluated(f"{GEN_LONELY_REFUSED}[r={r}]", str(exc)))
            continue
        if r >= 2:
            # The optimal r-bounded colorings are the B_r-optimal ones, in the
            # same order, so B_r's path claim reads the same stream. B_r
            # passes both property checks without enumerating for r >= 2.
            prop = b_r(r)
            lonely.check_path_join_property(g, prop, guards)
            out.append(stream_record(f"lonely-path-join[{prop.name}]", bounded, join))
    return out


def full_report(g: Graph, params: VerificationParams = VerificationParams()) -> dict:
    """The analyze/sweep JSON object for one graph: invariants plus every
    claim record (bounds, generalized per r, lonely-edge lemmas)."""
    base = evaluate_bounds(g, params)
    claims = list(base.claims)
    inv = dict(base.inv)
    bounded: dict[str, dict] = {}
    counterexamples: list[dict] = []
    for r in params.r_list:
        rep = evaluate_generalized(g, r, params)
        claims.extend(rep.claims)
        bounded[str(r)] = {"chi_r": rep.chi_r, "m_r": rep.m_r, "iota_r": rep.iota_r}
        counterexamples.extend(rep.counterexamples)
    inv["bounded"] = bounded
    claims.extend(_lonely_claims(g, params))
    report = {
        "g6": base.g6,
        "inv": inv,
        "claims": [c.to_dict() for c in claims],
    }
    if counterexamples:
        report["counterexamples"] = counterexamples
    return report


def report_violations(report: dict) -> list[dict]:
    return [c for c in report["claims"] if c["verdict"] == VERDICT_VIOLATION]
