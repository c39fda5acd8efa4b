import gc
import hashlib
import json
import random
import weakref
from dataclasses import replace
from fractions import Fraction

import pytest

import oracles

from stingycolor import (
    GuardExceededError,
    Guards,
    VerificationParams,
    all_graphs,
    b_r,
    bounded_stats,
    chromatic_number,
    complete,
    cycle,
    doubly_critical_edges,
    emit_graph6,
    empty,
    enumerate_optimal_colorings,
    er_random,
    evaluate_bounds,
    evaluate_generalized,
    full_report,
    petersen,
    recheck_counterexample,
    stats,
    verify_matching_corollary,
)
from stingycolor import bounds
from stingycolor.bounds import (
    VERDICT_CHECKED,
    VERDICT_NOT_EVALUATED,
    VERDICT_VACUOUS,
    VERDICT_VIOLATION,
    _lonely_claims,
    claim_records_for,
    format_t,
)
from stingycolor.coloring import (
    _best_partition_score,
    _color_bb,
    enumerate_optimal_colorings,
    enumerate_p_optimal,
)
from stingycolor.graphs import Graph, bits, graph_from_mask, invariants
from stingycolor.lonely import (
    ColoredGraph,
    check_path_join_property,
    join_failures,
    replete_failures,
    touches_failures,
)

PARAMS = VerificationParams()
ALL_VERDICTS = {VERDICT_CHECKED, VERDICT_VACUOUS, VERDICT_VIOLATION, VERDICT_NOT_EVALUATED}


def claims_by_name(report):
    return {c.name: c for c in report.claims}


# --- worked examples ---------------------------------------------------------


def test_c5_classic_claims(c5):
    rep = evaluate_bounds(c5, PARAMS)
    assert rep.inv == {
        "n": 5, "omega": 2, "alpha": 2, "max_deg": 2, "min_deg": 2,
        "nu": 2, "chi": 3, "iota": 1,
    }
    by = claims_by_name(rep)
    # 2*chi = 6 <= iota + n = 6, always-on claim
    assert by["chi-avg-bound"].verdict == VERDICT_CHECKED
    # branch 1 fails (6 > 5) but branch 2 holds with 4*chi = 12 <= 12
    assert by["reed-disjunct"].verdict == VERDICT_CHECKED
    # hypothesis 6 > 5 true, conclusion 2*(5-2) = 6 >= 2*2 + 2 - 1 = 5
    gap = by["reed-disjunct-gap"]
    assert gap.hyp is True and gap.concl is True and gap.verdict == VERDICT_CHECKED
    assert by["very-stingy-reed"].verdict == VERDICT_VACUOUS  # 2*1 = 2 <= 2
    assert by["chi-at-least-half"].verdict == VERDICT_CHECKED  # 6 >= 6, 3 <= 3
    assert by["simple-bound"].verdict == VERDICT_VACUOUS  # 6 <= 6


def test_k4_very_stingy(k4):
    by = claims_by_name(evaluate_bounds(k4, PARAMS))
    claim = by["very-stingy-reed"]
    # iota = 4 > omega/2 = 2 and 2*chi = 8 <= 4 + 3 + 1
    assert claim.hyp is True and claim.verdict == VERDICT_CHECKED


def test_petersen_simple_bound_vacuous(pete):
    by = claims_by_name(evaluate_bounds(pete, PARAMS))
    # hypothesis 2*3 = 6 > 10 + 3 - 4 = 9 is false
    assert by["simple-bound"].verdict == VERDICT_VACUOUS
    assert by["simple-bound"].concl is None


def test_c5_generalized_r2(c5):
    rep = evaluate_generalized(c5, 2, PARAMS)
    assert (rep.chi_r, rep.m_r, rep.iota_r) == (3, 2, 1)
    by = claims_by_name(rep)
    assert by["iota2-bound"].verdict == VERDICT_CHECKED  # 2*1 <= 5
    assert by["gen-reed-conjecture[r=2]"].verdict == VERDICT_CHECKED  # 1 <= 3
    assert by["chi2-identity"].verdict == VERDICT_CHECKED
    assert rep.counterexamples == ()


def test_conjecture_violation_yields_an_artifact(monkeypatch):
    # No graph here breaks gen-reed-conjecture, so the row's conclusion is
    # forced false in the rows _generalized_rows hands out (the wrapper
    # leaves its cache and the claim table as they are). The artifact must
    # carry the graph's values and witnesses, full_report must carry the
    # artifacts, and the artifact must re-check as a violation.
    g = er_random(7, 0.5, seed=31)
    assert "counterexamples" not in full_report(g, PARAMS)
    rows = bounds._generalized_rows
    monkeypatch.setattr(bounds, "_generalized_rows", lambda r: tuple(
        (replace(row, concl=lambda q: False) if row.name == "gen-reed-conjecture" else row,
         name) for row, name in rows(r)))
    inv = invariants(g)
    artifacts = []
    for r in PARAMS.r_list:
        bs = bounded_stats(g, r)
        (art,) = evaluate_generalized(g, r, PARAMS).counterexamples
        assert {k: v for k, v in art.items() if not k.endswith("_witness")} == {
            "claim": f"gen-reed-conjecture[r={r}]", "g6": emit_graph6(g), "r": r,
            "chi_r": bs.chi_r, "m_r": bs.m_r, "omega": inv.omega, "max_deg": inv.max_deg}
        assert art["m_witness"] == bs.m_witness.as_lists()
        assert art["iota_witness"] == bs.iota_witness.as_lists()
        for witness in (art["m_witness"], art["iota_witness"]):
            assert len(witness) == bs.chi_r and all(len(c) <= r for c in witness)
        assert sum(len(c) == r for c in art["m_witness"]) == bs.m_r
        assert sum(len(c) == 1 for c in art["iota_witness"]) == bs.iota_r
        assert recheck_counterexample(art, PARAMS)
        artifacts.append(art)
    assert full_report(g, PARAMS)["counterexamples"] == artifacts


def test_r1_sanity_everywhere():
    for g in (cycle(5), complete(4), empty(6), petersen()):
        rep = evaluate_generalized(g, 1, PARAMS)
        by = claims_by_name(rep)
        assert by["r1-sanity"].verdict == VERDICT_CHECKED
        assert rep.chi_r == g.n and rep.m_r == g.n


def test_c6_generalized_r3():
    rep = evaluate_generalized(cycle(6), 3, PARAMS)
    assert (rep.chi_r, rep.m_r) == (2, 2)
    assert claims_by_name(rep)["gen-reed-conjecture[r=3]"].verdict == VERDICT_CHECKED


def test_matching_corollary_examples(c5, k4):
    bound, identity = verify_matching_corollary(c5)
    assert bound.verdict == VERDICT_CHECKED  # 8 >= 5 - 2 + 2
    assert identity.verdict == VERDICT_CHECKED  # iota_2 = 1 = 5 - 2*2
    bound, identity = verify_matching_corollary(k4)
    assert bound.verdict == VERDICT_CHECKED  # 8 >= 4 - 1 + 3
    bound, identity = verify_matching_corollary(empty(4))
    assert bound.verdict == VERDICT_CHECKED  # 0 >= 4 - 4 + 0, boundary
    assert identity.verdict == VERDICT_CHECKED  # iota_2 = 0 = 4 - 2*2


# --- structural properties -----------------------------------------------------


def test_verdict_trichotomy_small():
    for n in range(0, 5):
        for g in all_graphs(n):
            rep = evaluate_bounds(g, PARAMS)
            for claim in rep.claims:
                assert claim.verdict in ALL_VERDICTS
                if claim.verdict == VERDICT_CHECKED:
                    assert claim.hyp is True and claim.concl is True
                elif claim.verdict == VERDICT_VACUOUS:
                    assert claim.hyp is False and claim.concl is None
                elif claim.verdict == VERDICT_VIOLATION:
                    assert claim.hyp is True and claim.concl is False


def test_conjecture_agrees_with_iota2_bound():
    for n in range(0, 6):
        for g in all_graphs(n):
            by = claims_by_name(evaluate_generalized(g, 2, PARAMS))
            assert (by["gen-reed-conjecture[r=2]"].verdict
                    == by["iota2-bound"].verdict == VERDICT_CHECKED)


def _gnm_graphs(ns, per_cell, seed):
    """``per_cell`` seeded G(n, M) graphs per (n, p), M = round(p * n(n-1)/2)
    for p = .2, .5, .8."""
    rng = random.Random(seed)
    graphs = []
    for n in ns:
        pairs = n * (n - 1) // 2
        for frac in (0.2, 0.5, 0.8):
            for _ in range(per_cell):
                edges = rng.sample(range(pairs), round(frac * pairs))
                graphs.append(graph_from_mask(n, sum(1 << i for i in edges)))
    return graphs


def _patching_graphs():
    return [g for n in range(7) for g in all_graphs(n)] + _gnm_graphs(range(7, 11), 10, 1109)


def test_rest_of_m_r_witness_read_not_searched():
    # gen-stinginess-patching reads chi_r(G - H) as chi_r - M_r and
    # iota_r(G - H) as |G - H| when that is the class count (always at
    # r = 1, 2), else from one singleton search; the searches they replace
    # must agree, on H = the size-r classes of the M_r witness.
    graphs = [g for n in range(7) for g in all_graphs(n)] + _gnm_graphs(range(7, 11), 10, 2207)
    read = {True: 0, False: 0}
    for g in graphs:
        for r in (1, 2, 3, 4):
            bs = bounded_stats(g, r)
            chi_r = _color_bb(g, r)[0]
            iota_r, i_masks = _best_partition_score(g, chi_r, r, 1)
            assert (bs.chi_r, bs.iota_r, bs.iota_masks) == (chi_r, iota_r, tuple(i_masks))
            h = {v for m in bs.m_masks if m.bit_count() == r for v in bits(m)}
            rest = g.induced(v for v in range(g.n) if v not in h)
            chi_rest = _color_bb(rest, r)[0]
            assert chi_rest == bs.chi_r - bs.m_r
            iota_rest = _best_partition_score(rest, chi_rest, r, 1)[0]
            rest_bs = bounded_stats(rest, r)
            assert (rest_bs.chi_r, rest_bs.iota_r) == (chi_rest, iota_rest)
            rec = claims_by_name(evaluate_generalized(g, r, PARAMS))[
                f"gen-stinginess-patching[r={r}]"]
            assert (rec.witness["chi_r_rest"], rec.witness["iota_r_rest"]) == (
                chi_rest, iota_rest)
            discrete = chi_rest == rest.n
            assert discrete or r > 2
            read[discrete] += 1
    assert read[True] and read[False], read


def test_patching_rest_side_matches_search_on_g_minus_h():
    # stinginess-patching decides its hypothesis as (chi - 1)-colorability of
    # G - H and reads chi(G - H) from it (chi - 1 or chi for H nonempty);
    # under the hypothesis one singleton search gives iota(G - H). Both must
    # equal the full searches on G - H built by Graph.induced.
    rng = random.Random(2929)
    graphs = [g for n in range(7) for g in all_graphs(n)]
    graphs += [er_random(n, p, seed=rng.getrandbits(32))
               for n in range(7, 11) for p in (0.3, 0.5, 0.8) for _ in range(10)]
    seen = set()
    for g in graphs:
        rec = claims_by_name(evaluate_bounds(g, PARAMS))["stinginess-patching"]
        rest = g.induced(v for v in range(g.n) if v not in rec.witness["H"])
        assert rec.witness["chi_rest"] == chromatic_number(rest), (g.n, g.adj)
        if rec.hyp:
            assert rec.witness["iota_rest"] == stats(rest).iota, (g.n, g.adj)
        seen.add((rec.hyp, rec.witness["chi"] - rec.witness["chi_rest"]))
    assert seen == {(True, 1), (True, 0), (False, 0)}, seen


def test_patching_h_side_matches_search_on_induced_subgraph():
    # The patching claims read chi, iota, chi_r and iota_r of G[H] from |H|
    # alone; each value a record reports must equal the search on G[H].
    seen = set()
    for g in _patching_graphs():
        rec = claims_by_name(evaluate_bounds(g, PARAMS))["stinginess-patching"]
        sub = g.induced(rec.witness["H"])
        assert rec.witness["chi_H"] == chromatic_number(sub)
        if rec.hyp:
            assert rec.witness["iota_H"] == stats(sub).iota
            seen.add(("iota_H", min(sub.n, 2)))
        for r in (1, 2, 3, 4):
            rec = claims_by_name(evaluate_generalized(g, r, PARAMS))[
                f"gen-stinginess-patching[r={r}]"]
            sub = g.induced(rec.witness["H"])
            assert rec.witness["chi_r_H"] == chromatic_number(sub, cap=r)
            assert rec.hyp  # chi_r(G - H) = chi_r - M_r always
            assert rec.witness["iota_r_H"] == bounded_stats(sub, r).iota_r
            seen.add((r, min(sub.n, 1)))
    assert {("iota_H", 0), ("iota_H", 1), ("iota_H", 2)} <= seen
    assert {(r, h) for r in (1, 2, 3, 4) for h in (0, 1)} <= seen


# sha256 of the JSON lines (bound-claims' format: the evaluate_bounds report
# plus the evaluate_generalized reports for r = 1..3) on seeded G(n, M) graphs
# at n = 7..10, past the n <= 6 the sweep digest covers.
BOUND_CLAIMS_GNM_SHA256 = "9c12c327fc910566076369828fe248dcdd11021e21f19b1af52156b9672f98ca"


def test_bound_claims_gnm_n7_to_n10_pin():
    text = "".join(
        json.dumps({"bounds": evaluate_bounds(g, PARAMS).to_dict(),
                    "generalized": [evaluate_generalized(g, r, PARAMS).to_dict()
                                    for r in (1, 2, 3)]},
                   sort_keys=True, separators=(",", ":")) + "\n"
        for g in _gnm_graphs(range(7, 11), 8, 1313))
    assert hashlib.sha256(text.encode()).hexdigest() == BOUND_CLAIMS_GNM_SHA256


def test_no_graph_outlives_its_evaluation():
    # Every quantity computed on a graph is kept on the graph itself, so
    # nothing holds the graph once its caller drops it.
    g = er_random(8, 0.5, seed=2626)
    ref = weakref.ref(g)
    full_report(g)
    evaluate_bounds(g)
    for r in (1, 2, 3):
        evaluate_generalized(g, r)
    for query in ("stinginess-patching", "gen-reed-conjecture", "lonely-path-join"):
        assert claim_records_for(g, query, PARAMS)
    del g
    gc.collect()
    assert ref() is None


def _every_evaluation(g, params):
    """full_report, then evaluate_bounds and evaluate_generalized per r, as JSON."""
    return json.dumps([full_report(g, params), evaluate_bounds(g, params).to_dict(),
                       *(evaluate_generalized(g, r, params).to_dict() for r in params.r_list)])


def test_guards_still_refuse_once_quantities_are_handed_down():
    # One graph object evaluated under wide guards keeps its quantities; the
    # same object under narrow guards must still read as a fresh copy does, so
    # no kept or handed-down value passes a refusal by.
    g = er_random(9, 0.5, seed=5)
    wide = VerificationParams(guards=Guards(optimal=20, full=20))
    narrow = VerificationParams(guards=Guards(optimal=8, full=8))
    _every_evaluation(g, wide)
    got = _every_evaluation(g, narrow)
    assert got == _every_evaluation(er_random(9, 0.5, seed=5), narrow)
    records = full_report(g, narrow)["claims"]
    assert len(records) == 34
    assert {c["verdict"] for c in records} == {VERDICT_NOT_EVALUATED}


class _CountingMemo(dict):
    """A graph's ``__dict__`` that counts the per-graph memo's reads (its
    ``get`` calls) and the reads that found nothing kept."""

    def __init__(self, kept):
        super().__init__(kept)
        self.reads = self.misses = 0

    def get(self, key, default=None):
        self.reads += 1
        self.misses += key not in self
        return super().get(key, default)


def _bound_claims(g):
    evaluate_bounds(g, PARAMS)
    for r in PARAMS.r_list:
        evaluate_generalized(g, r, PARAMS)


@pytest.mark.parametrize("make, evaluate, reads", [
    (lambda: complete(1), lambda g: full_report(g, PARAMS), 41),
    (lambda: cycle(5), lambda g: full_report(g, PARAMS), 42),
    (petersen, lambda g: full_report(g, PARAMS), 46),
    (lambda: er_random(8, 0.5, seed=3), lambda g: full_report(g, PARAMS), 44),
    (lambda: complete(1), _bound_claims, 27),
    (lambda: cycle(5), _bound_claims, 27),
    (petersen, _bound_claims, 29),
    (lambda: er_random(8, 0.5, seed=3), _bound_claims, 28),
], ids=["K1-report", "C5-report", "petersen-report", "er8-report",
        "K1-bound-claims", "C5-bound-claims", "petersen-bound-claims", "er8-bound-claims"])
def test_memo_reads_per_evaluation(make, evaluate, reads):
    # A deterministic count of the per-graph memo's reads: each kept value is
    # computed on its first read only, and a change in how often a report
    # re-reads its graph's quantities shows up here.
    g = make()
    counting = _CountingMemo(vars(g))
    object.__setattr__(g, "__dict__", counting)
    evaluate(g)
    assert counting.misses == len(counting) - 2  # every key but the fields n and adj
    assert counting.reads == reads


def test_guard_exceeded_gives_not_evaluated(c5):
    params = VerificationParams(guards=Guards(optimal=3, full=3))
    rep = evaluate_bounds(c5, params)
    assert rep.inv["chi"] is None and rep.inv["iota"] is None
    assert {c.verdict for c in rep.claims} == {VERDICT_NOT_EVALUATED}
    for claim in rep.claims:
        assert claim.hyp is None and claim.concl is None
    gen = evaluate_generalized(c5, 2, params)
    assert {c.verdict for c in gen.claims} == {VERDICT_NOT_EVALUATED}


def test_full_report_structure(c5):
    rep = full_report(c5, PARAMS)
    assert set(rep) == {"g6", "inv", "claims"}
    assert rep["g6"] == "Dhc"
    assert rep["inv"]["bounded"]["2"] == {"chi_r": 3, "m_r": 2, "iota_r": 1}
    assert rep.violations() == []
    names = [c["name"] for c in rep["claims"]]
    assert len(names) == len(set(names))
    for expected in ("lonely-path-join", "swap-preserves-frame",
                     "doubly-critical-iff-two-singletons",
                     "lonely-degree-bound[t=1/2]",
                     "gen-lonely-degree-bound[r=2,t=0]",
                     "lonely-path-join[B_3]"):
        assert expected in names


def test_reports_are_their_json_objects_and_share_no_dict():
    # full_report extends the report evaluate_bounds returns: an earlier
    # evaluate_bounds report of the same graph object must not change.
    g = er_random(8, 0.5, seed=3)
    first = evaluate_bounds(g, PARAMS)
    report = full_report(g, PARAMS)
    assert len(first.claims) == 12 and "bounded" not in first.inv
    assert json.dumps(first) == json.dumps(evaluate_bounds(er_random(8, 0.5, seed=3), PARAMS))
    assert "bounded" in report.inv and len(report.claims) > 12
    gen = evaluate_generalized(g, 2, PARAMS)
    for rep, keys in ((first, ["g6", "inv", "claims"]),
                      (gen, ["g6", "r", "chi_r", "m_r", "iota_r", "claims", "counterexamples"]),
                      (gen.claims[0], ["name", "hyp", "concl", "verdict", "witness"])):
        assert rep.to_dict() is rep and list(rep) == keys
        for key in keys:
            assert getattr(rep, key) is rep[key]


def test_violations_lists_the_violation_records():
    bad, good = bounds._claim("a", True, False, {}), bounds._claim("b", True, True, {})
    assert bounds.BoundsReport(g6="@", inv={}, claims=(bad, good)).violations() == [bad]
    assert bounds.GeneralizedReport(claims=(good,)).violations() == []


def test_recheck_counterexample_false_for_sound_claim(c5):
    from stingycolor import emit_graph6

    fake = {"claim": "gen-reed-conjecture[r=3]", "g6": emit_graph6(c5), "r": 3}
    assert recheck_counterexample(fake) is False
    fake_classic = {"claim": "chi-avg-bound", "g6": emit_graph6(c5), "r": None}
    assert recheck_counterexample(fake_classic) is False


def test_params_validation():
    with pytest.raises(ValueError):
        VerificationParams(r_list=(0,))
    with pytest.raises(ValueError):
        VerificationParams(t2_list=(-1,))
    with pytest.raises(ValueError):
        VerificationParams(max_path_len=0)
    with pytest.raises(ValueError, match="r values must be distinct"):
        VerificationParams(r_list=(2, 3, 2))
    with pytest.raises(ValueError, match="slacks must be distinct"):
        VerificationParams(t2_list=(1, 1))


def test_format_t_matches_fraction():
    for t2 in range(201):
        assert format_t(t2) == str(Fraction(t2, 2))


@pytest.mark.parametrize("g", [petersen(), cycle(9)], ids=["petersen", "C9"])
def test_b_r_path_join_evaluated_up_to_optimal_guard(g):
    claims = {c["name"]: c for c in full_report(g, PARAMS)["claims"]}
    for r in (2, 3):
        claim = claims[f"lonely-path-join[B_{r}]"]
        assert claim["verdict"] == VERDICT_CHECKED
        assert (claim["witness"]["colorings_checked"]
                == len(oracles.optimal_colorings_oracle(g, cap=r)))


# --- one pass per coloring stream ----------------------------------------------


def _tally(name, views, check, hyp=True, extra=None):
    """One lonely claim's record as a dict: ``check`` run on every view of
    the stream when the hypothesis holds, counted here."""
    colorings = checks = 0
    violations = []
    for cg in views if hyp else ():
        made, bad = check(cg)
        colorings += 1
        checks += made
        violations.extend(bad)
    witness = {"colorings_checked": colorings, "checks": checks, **(extra or {})}
    if violations:
        witness["violations"] = violations
    if not hyp:
        return {"name": name, "hyp": False, "concl": None, "verdict": VERDICT_VACUOUS,
                "witness": witness}
    return {"name": name, "hyp": True, "concl": not violations,
            "verdict": VERDICT_VIOLATION if violations else VERDICT_CHECKED,
            "witness": witness}


def _optimal_stream(g, cap, guards):
    return (ColoredGraph(g, c) for c in enumerate_optimal_colorings(g, cap, guards))


def _swap_record_by_vertex_pairs(g, guards):
    """The swap claim by testing every vertex pair with is_lonely."""
    colorings = checks = 0
    violations = []
    for c in enumerate_optimal_colorings(g, guards=guards):
        colorings += 1
        made, bad = oracles.swap_failures_oracle(g, c)
        checks += made
        violations.extend(bad)
    witness = {"colorings_checked": colorings, "checks": checks}
    if violations:
        witness["violations"] = violations
    return {"name": "swap-preserves-frame", "hyp": True, "concl": not violations,
            "verdict": VERDICT_VIOLATION if violations else VERDICT_CHECKED,
            "witness": witness}


def _not_evaluated_record(name, exc):
    return {"name": name, "hyp": None, "concl": None, "verdict": VERDICT_NOT_EVALUATED,
            "witness": {"reason": str(exc)}}


def _lonely_records_per_lemma(g, params):
    """The lonely-claim records with each lemma run on its own coloring stream
    (B_r through enumerate_p_optimal), its hypothesis stated here and its
    record tallied here."""
    guards, max_len = params.guards, params.max_path_len
    inv = invariants(g)
    scope = {"scope": "all optimal colorings"}

    def join(cg):
        return join_failures(cg, max_len)

    def degree_bound(name, cap, gap, t2):
        need = inv.omega + t2
        return _tally(f"{name}t={Fraction(t2, 2)}]", _optimal_stream(g, cap, guards),
                      lambda cg: replete_failures(cg, cap, need),
                      2 * gap > inv.omega + inv.max_deg + 1 + t2)

    out = []
    try:
        out.append(_tally("lonely-path-join", _optimal_stream(g, None, guards), join,
                          extra=scope))
        out.append(_tally("class-meets-all-classes", _optimal_stream(g, None, guards),
                          touches_failures, extra=scope))
        for t2 in params.t2_list:
            out.append(degree_bound("lonely-degree-bound[", None, chromatic_number(g), t2))
        out.append(_swap_record_by_vertex_pairs(g, guards))
        dc = doubly_critical_edges(g, guards)
        out.append({"name": "doubly-critical-iff-two-singletons", "hyp": True,
                    "concl": dc.consistent,
                    "verdict": VERDICT_CHECKED if dc.consistent else VERDICT_VIOLATION,
                    "witness": {"edges": [list(e) for e in dc.edges], "iota": dc.iota}})
    except GuardExceededError as exc:
        return out + [_not_evaluated_record("lonely-claims", exc)]
    for r in params.r_list:
        try:
            out.append(_tally(f"singleton-meets-small-classes[r={r}]",
                              _optimal_stream(g, r, guards),
                              lambda cg: touches_failures(cg, r)))
            for t2 in params.t2_list:
                bs = bounded_stats(g, r, guards)
                out.append(degree_bound(f"gen-lonely-degree-bound[r={r},", r,
                                        bs.chi_r - bs.m_r, t2))
        except GuardExceededError as exc:
            out.append(_not_evaluated_record(f"gen-lonely-claims[r={r}]", exc))
            continue
        if r >= 2:
            try:
                check_path_join_property(g, b_r(r), guards)
                views = (ColoredGraph(g, c) for c in enumerate_p_optimal(g, b_r(r), guards))
                out.append(_tally(f"lonely-path-join[B_{r}]", views, join))
            except GuardExceededError as exc:
                out.append(_not_evaluated_record(f"lonely-path-join[B_{r}]", exc))
    return out


def _stream_test_graphs():
    graphs = [g for n in range(7) for g in all_graphs(n)]
    rng = random.Random(6060)
    for n in (7, 8):
        pairs = n * (n - 1) // 2
        for frac in (0.2, 0.5, 0.8):
            for _ in range(3):
                mask = sum(1 << i for i in rng.sample(range(pairs), round(frac * pairs)))
                graphs.append(graph_from_mask(n, mask))
    return graphs


@pytest.mark.parametrize("guards", [Guards(), Guards(optimal=5, full=4)],
                         ids=["default-guards", "guards-5-4"])
def test_lonely_claims_match_per_lemma_route(guards):
    # One pass per stream with shared per-coloring results must give exactly
    # the records of running every lemma on its own stream.
    params = VerificationParams(guards=guards)
    for g in _stream_test_graphs():
        got = [rec.to_dict() for rec in _lonely_claims(g, params)]
        assert got == _lonely_records_per_lemma(g, params), emit_graph6(g)


def _relabeled(g, rng):
    """``g`` with vertex v renamed perm[v], for a seeded shuffle perm."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    adj = [0] * g.n
    for v in range(g.n):
        adj[perm[v]] = sum(1 << perm[u] for u in bits(g.adj[v]))
    return Graph(g.n, tuple(adj))


# stinginess-patching tests one H, the first maximum independent set in label
# order, so its hypothesis can flip between two labelings of one graph (ROADMAP
# item 6): it is exempt until the claim ranges over every such H.
LABEL_DEPENDENT = {"stinginess-patching"}


def test_reports_are_invariant_under_relabeling():
    # Every other record reads only isomorphism-invariant quantities, so G and
    # a relabeled G must give the same invariants and the same name,
    # hypothesis, conclusion and verdict per record. Witnesses name vertices
    # and are not compared.
    def fields(report):
        return [(c["name"], c["hyp"], c["concl"], c["verdict"])
                for c in report["claims"] if c["name"] not in LABEL_DEPENDENT]

    rng = random.Random(2727)
    for n in range(5, 10):
        for p in (0.2, 0.5, 0.8):
            for seed in range(8):
                g = er_random(n, p, seed=1000 * n + seed)
                h = _relabeled(g, rng)
                want, got = full_report(g, PARAMS), full_report(h, PARAMS)
                assert got["inv"] == want["inv"], (emit_graph6(g), emit_graph6(h))
                assert fields(got) == fields(want), (emit_graph6(g), emit_graph6(h))
