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

from dataclasses import dataclass

from .graphs import (
    Graph,
    bits,
    emit_graph6,
    invariants,
    max_independent_set_mask,
    parse_graph6,
)
from .coloring import (
    Guards,
    DEFAULT_GUARDS,
    GuardExceededError,
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
        if self.max_path_len < 1:
            raise ValueError("max_path_len must be at least 1")


@dataclass(frozen=True)
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


def _from_report(rep: lonely.LemmaReport, extra: dict | None = None) -> ClaimRecord:
    witness = {
        "colorings_checked": rep.colorings_checked,
        "checks": rep.checks,
    }
    if extra:
        witness.update(extra)
    if rep.violations:
        witness["violations"] = rep.violations
    return _claim(rep.name, rep.hypothesis_holds, not rep.violations, witness)


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


def evaluate_bounds(g: Graph, params: VerificationParams = VerificationParams()) -> BoundsReport:
    """All unparameterized claims on one graph."""
    inv = invariants(g)
    n = g.n
    omega, alpha = inv.omega, inv.alpha
    dmax, dmin, nu = inv.max_deg, inv.min_deg, inv.nu
    g6 = emit_graph6(g)

    inv_dict = {
        "n": n, "omega": omega, "alpha": alpha,
        "max_deg": dmax, "min_deg": dmin, "nu": nu,
        "chi": None, "iota": None,
    }
    claim_names = [
        "very-stingy-reed", "stinginess-patching", "chi-avg-bound",
        "reed-disjunct", "reed-disjunct-gap", "reed-chi-above-half",
        "reed-alpha-two", "simple-bound", "chi-at-least-half",
        "ceil-reed-gap", "matching-bound", "iota2-matching-identity",
    ]
    try:
        st = stats(g, params.guards)
    except GuardExceededError as exc:
        return BoundsReport(
            g6, inv_dict, tuple(_not_evaluated(name, str(exc)) for name in claim_names)
        )
    chi, iota = st.chi, st.iota
    inv_dict["chi"] = chi
    inv_dict["iota"] = iota
    base = {"n": n, "omega": omega, "alpha": alpha, "max_deg": dmax,
            "chi": chi, "iota": iota}

    claims = [
        _claim("very-stingy-reed",
               2 * iota > omega,
               2 * chi <= omega + dmax + 1,
               base),
        _patching_claim(g, params.guards),
        _claim("chi-avg-bound", True, 2 * chi <= iota + n, base),
        _claim("reed-disjunct", True,
               2 * chi <= omega + dmax + 1 or 4 * chi <= omega + 2 * (n - alpha) + 4,
               base),
        _claim("reed-disjunct-gap",
               2 * chi > omega + dmax + 1,
               2 * (n - dmax) >= 2 * alpha + omega - 1,
               base),
        _claim("reed-chi-above-half",
               chi > (n + 1) // 2,
               2 * chi <= omega + dmax + 1,
               base),
        _claim("reed-alpha-two",
               alpha <= 2,
               chi <= (omega + dmax + 2) // 2,
               base),
        _claim("simple-bound",
               2 * chi > n + 3 - alpha,
               chi <= (omega + dmax + 2) // 2,
               base),
        _claim("chi-at-least-half",
               2 * chi >= n + 1,
               chi <= (omega + dmax + 2) // 2,
               base),
        _claim("ceil-reed-gap",
               chi > (omega + dmax + 2) // 2,
               n - dmax >= alpha + omega,
               base),
    ]
    claims.extend(verify_matching_corollary(g, params.guards))
    return BoundsReport(g6, inv_dict, tuple(claims))


def _patching_claim(g: Graph, guards: Guards) -> ClaimRecord:
    """Stinginess of patched colorings, tested constructively on H = one
    maximum independent set: when chi(G) = chi(G - H) + chi(H), require
    iota(G) >= iota(G - H) + iota(H)."""
    h_mask = max_independent_set_mask(g)
    h = sorted(bits(h_mask))
    rest = g.without(h)
    sub_h = g.induced(h)
    chi_g = stats(g, guards).chi
    chi_rest = chromatic_number(rest)
    chi_h = chromatic_number(sub_h)
    hyp = chi_g == chi_rest + chi_h
    witness = {"H": h, "chi": chi_g, "chi_rest": chi_rest, "chi_H": chi_h}
    if not hyp:
        return _claim("stinginess-patching", False, None, witness)
    iota_g = stats(g, guards).iota
    iota_rest = stats(rest, guards).iota
    iota_h = stats(sub_h, guards).iota
    witness.update({"iota": iota_g, "iota_rest": iota_rest, "iota_H": iota_h})
    return _claim("stinginess-patching", True,
                  iota_g >= iota_rest + iota_h, witness)


def verify_matching_corollary(g: Graph, guards: Guards = DEFAULT_GUARDS) -> list[ClaimRecord]:
    """4*nu >= n - alpha + min_deg, plus the cross-check identity
    iota_2 = n - 2*nu(complement)."""
    inv = invariants(g)
    base = {"n": g.n, "alpha": inv.alpha, "min_deg": inv.min_deg, "nu": inv.nu}
    out = [
        _claim("matching-bound", True,
               4 * inv.nu >= g.n - inv.alpha + inv.min_deg, base)
    ]
    try:
        bs2 = bounded_stats(g, 2, guards)
    except GuardExceededError as exc:
        out.append(_not_evaluated("iota2-matching-identity", str(exc)))
        return out
    nu_comp = invariants(g.complement()).nu if g.n else 0
    out.append(
        _claim("iota2-matching-identity", True,
               bs2.iota_r == g.n - 2 * nu_comp,
               {"iota_2": bs2.iota_r, "n": g.n, "nu_complement": nu_comp})
    )
    return out


def evaluate_generalized(g: Graph, r: int,
                         params: VerificationParams = VerificationParams()) -> GeneralizedReport:
    """All r-parameterized claims on one graph, for a single r."""
    inv = invariants(g)
    n = g.n
    omega, dmax = inv.omega, inv.max_deg
    g6 = emit_graph6(g)
    tag = f"[r={r}]"
    names = [
        f"gen-very-stingy-reed{tag}", f"gen-reed-conjecture{tag}",
        f"gen-reed-disjunct{tag}", f"gen-disjunct-gap{tag}",
        f"gen-stinginess-patching{tag}", f"gen-chi-avg-bound{tag}",
    ]
    if r == 1:
        names.append("r1-sanity")
    if r == 2:
        names.extend(["iota2-bound", "chi2-identity"])
    try:
        bs = bounded_stats(g, r, params.guards)
    except GuardExceededError as exc:
        return GeneralizedReport(
            g6, r, None, None, None,
            tuple(_not_evaluated(name, str(exc)) for name in names),
        )
    chi_r, m_r, iota_r = bs.chi_r, bs.m_r, bs.iota_r
    gap = chi_r - m_r
    base = {"r": r, "n": n, "omega": omega, "max_deg": dmax,
            "chi_r": chi_r, "m_r": m_r, "iota_r": iota_r}

    counterexamples = []
    conjecture_ok = gap <= (omega + dmax + 2) // 2
    if not conjecture_ok:
        counterexamples.append({
            "claim": f"gen-reed-conjecture{tag}",
            "g6": g6,
            "r": r,
            "chi_r": chi_r,
            "m_r": m_r,
            "omega": omega,
            "max_deg": dmax,
            "m_witness": bs.m_witness.as_lists(),
            "iota_witness": bs.iota_witness.as_lists(),
        })

    claims = [
        _claim(f"gen-very-stingy-reed{tag}",
               2 * iota_r > omega,
               2 * gap <= omega + dmax + 1,
               base),
        _claim(f"gen-reed-conjecture{tag}", True, conjecture_ok, base),
        _claim(f"gen-reed-disjunct{tag}", True,
               2 * gap <= omega + dmax + 1 or 4 * gap <= omega + 2 * (n - r * m_r),
               base),
        _claim(f"gen-disjunct-gap{tag}",
               2 * gap > omega + dmax + 1,
               2 * (n - dmax) >= 2 * r * m_r + omega + 3,
               base),
        _gen_patching_claim(g, r, bs, params.guards),
        _claim(f"gen-chi-avg-bound{tag}", True, 2 * chi_r <= iota_r + n, base),
    ]
    if r == 1:
        claims.append(_claim("r1-sanity", True, chi_r == n and m_r == n, base))
    if r == 2:
        claims.append(_claim("iota2-bound", True,
                             2 * iota_r <= omega + dmax + 1, base))
        claims.append(_claim("chi2-identity", True, gap == iota_r, base))
    return GeneralizedReport(g6, r, chi_r, m_r, iota_r, tuple(claims),
                             tuple(counterexamples))


def _gen_patching_claim(g: Graph, r: int, bs, guards: Guards) -> ClaimRecord:
    """r-bounded patching, tested on H = the union of the size-r classes of
    the M_r witness coloring."""
    name = f"gen-stinginess-patching[r={r}]"
    h = sorted(v for cls in bs.m_witness.classes if len(cls) == r for v in cls)
    rest = g.without(h)
    sub_h = g.induced(h)
    chi_rest = chromatic_number(rest, cap=r)
    chi_h = chromatic_number(sub_h, cap=r)
    hyp = bs.chi_r == chi_rest + chi_h
    witness = {"r": r, "H": h, "chi_r": bs.chi_r,
               "chi_r_rest": chi_rest, "chi_r_H": chi_h}
    if not hyp:
        return _claim(name, False, None, witness)
    iota_rest = bounded_stats(rest, r, guards).iota_r if rest.n else 0
    iota_h = bounded_stats(sub_h, r, guards).iota_r if sub_h.n else 0
    witness.update({"iota_r": bs.iota_r, "iota_r_rest": iota_rest, "iota_r_H": iota_h})
    return _claim(name, True, bs.iota_r >= iota_rest + iota_h, witness)


def recheck_counterexample(artifact: dict,
                           params: VerificationParams = VerificationParams()) -> bool:
    """True iff the claimed violation reproduces from scratch on the artifact's
    graph. Independent of the run that produced it."""
    g = parse_graph6(artifact["g6"])
    claim_name = artifact["claim"]
    r = artifact.get("r")
    if r is not None:
        rep = evaluate_generalized(g, r, params)
        records = {c.name: c for c in rep.claims}
    else:
        records = {c.name: c for c in evaluate_bounds(g, params).claims}
    record = records.get(claim_name)
    return record is not None and record.verdict == VERDICT_VIOLATION


# ---------------------------------------------------------------------------
# Combined per-graph report (bounds + generalized + lonely-edge claims)
# ---------------------------------------------------------------------------


def _lonely_claims(g: Graph, params: VerificationParams) -> list[ClaimRecord]:
    """The lonely-edge lemma records. Each optimal-coloring stream (uncapped,
    then capped at each r) is enumerated once and feeds every claim on it;
    each distinct coloring gets one view and one join check, shared by the
    streams it appears in."""
    guards = params.guards
    views: dict[tuple, lonely.ColoredGraph] = {}
    joins: dict[tuple, tuple[int, list[dict]]] = {}

    def join(cg: lonely.ColoredGraph) -> tuple[int, list[dict]]:
        found = joins.get(cg.c.classes)
        if found is None:
            found = joins[cg.c.classes] = lonely.join_failures(cg, params.max_path_len)
        return found

    out: list[ClaimRecord] = []
    scope = {"scope": "all optimal colorings"}
    try:
        optimal = lonely.optimal_views(g, None, guards, views)
        out.append(_from_report(lonely.path_join_report(optimal, join), scope))
        out.append(_from_report(lonely.touches_report(optimal), scope))
        for t2 in params.t2_list:
            out.append(_from_report(lonely.replete_report(g, optimal, t2=t2, guards=guards)))
        out.append(_from_report(lonely.swap_report(optimal)))
        dc = lonely.doubly_critical_edges(g, guards)
        out.append(_claim(
            "doubly-critical-iff-two-singletons", True, dc.consistent,
            {"edges": [list(e) for e in dc.edges], "iota": dc.iota}))
    except GuardExceededError as exc:
        out.append(_not_evaluated("lonely-claims", str(exc)))
        return out
    for r in params.r_list:
        try:
            bounded = lonely.optimal_views(g, r, guards, views)
            out.append(_from_report(lonely.touches_report(bounded, r)))
            for t2 in params.t2_list:
                out.append(_from_report(
                    lonely.replete_report(g, bounded, r, t2, guards)))
        except GuardExceededError as exc:
            out.append(_not_evaluated(f"gen-lonely-claims[r={r}]", str(exc)))
            continue
        if r >= 2:
            # The optimal r-bounded colorings are the B_r-optimal ones, in the
            # same order, so B_r's path claim reads the same stream. B_r
            # passes both property checks without enumerating for r >= 2.
            prop = b_r(r)
            lonely.check_path_join_property(g, prop, guards)
            out.append(_from_report(lonely.path_join_report(bounded, join, prop)))
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
