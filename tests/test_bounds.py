import json

import pytest

import oracles

from stingycolor import (
    BoundsReport,
    GeneralizedReport,
    Guards,
    VerificationParams,
    all_graphs,
    complete,
    cycle,
    empty,
    evaluate_bounds,
    evaluate_generalized,
    full_report,
    petersen,
    recheck_counterexample,
    verify_matching_corollary,
)
from stingycolor.bounds import (
    VERDICT_CHECKED,
    VERDICT_NOT_EVALUATED,
    VERDICT_VACUOUS,
    VERDICT_VIOLATION,
    report_violations,
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


def test_serialization_round_trip(c5):
    rep = evaluate_bounds(c5, PARAMS)
    assert BoundsReport.from_dict(json.loads(json.dumps(rep.to_dict()))) == rep
    gen = evaluate_generalized(c5, 2, PARAMS)
    assert GeneralizedReport.from_dict(json.loads(json.dumps(gen.to_dict()))) == gen


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
    assert report_violations(rep) == []
    names = [c["name"] for c in rep["claims"]]
    assert len(names) == len(set(names))
    for expected in ("lonely-path-join", "swap-preserves-frame",
                     "doubly-critical-iff-two-singletons",
                     "lonely-degree-bound[t=1/2]",
                     "gen-lonely-degree-bound[r=2,t=0]",
                     "lonely-path-join[B_3]"):
        assert expected in names


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


@pytest.mark.parametrize("g", [petersen(), cycle(9)], ids=["petersen", "C9"])
def test_b_r_path_join_evaluated_up_to_optimal_guard(g):
    claims = {c["name"]: c for c in full_report(g, PARAMS)["claims"]}
    for r in (2, 3):
        claim = claims[f"lonely-path-join[B_{r}]"]
        assert claim["verdict"] == VERDICT_CHECKED
        assert (claim["witness"]["colorings_checked"]
                == len(oracles.optimal_colorings_oracle(g, cap=r)))
