from dataclasses import replace

import pytest

from stingycolor import (
    VerificationParams,
    cycle,
    emit_graph6,
    er_random,
    full_report,
    petersen,
    recheck_counterexample,
)
from stingycolor import bounds, lonely, suites
from stingycolor.coloring import DEFAULT_GUARDS, GuardExceededError, Guards
from stingycolor.bounds import CLAIMS, LONELY_REFUSED, base_name
from stingycolor.suites import (
    UnknownClaimError,
    claim_records_for,
    exhaustive_graphs,
    load_graph6_lines,
    sample_specs,
    search_claim,
    split_counts,
    suite_gen_lonely_path,
    suite_identities,
    suite_lonely_path,
    suite_properties,
    suite_replete,
    suite_swap,
    sweep_reports,
)

PARAMS = VerificationParams()


def test_split_counts():
    assert split_counts(10, 3) == [4, 3, 3]
    assert split_counts(9, 3) == [3, 3, 3]
    assert sum(split_counts(10000, 9)) == 10000


def test_sample_specs_cover_total():
    specs = sample_specs(100, (7, 8))
    assert sum(c for _, _, c in specs) == 100
    assert [(n, p) for n, p, _ in specs] == [
        (7, 0.2), (7, 0.5), (7, 0.8), (8, 0.2), (8, 0.5), (8, 0.8)]


@pytest.mark.parametrize("sample", [
    lambda: sample_specs(5, ()),
    lambda: sample_specs(5, (7,), densities=()),
    lambda: suite_lonely_path(2, samples=5, sample_ns=()),
    lambda: search_claim("simple-bound", VerificationParams(), max_n=2, samples=5,
                         sample_ns=()),
], ids=["sample_specs", "no-density", "suite_lonely_path", "search_claim"])
def test_samples_need_a_grid(sample):
    with pytest.raises(ValueError, match="at least one vertex count and one density"):
        sample()


def test_suite_swap_passes():
    result = suite_swap(4)
    assert result.passed and result.checked > 0
    assert result.details["colorings"] > 0


def test_suite_lonely_path_with_samples():
    result = suite_lonely_path(4, samples=30, sample_ns=(7,), seed=99)
    assert result.passed
    two = suite_lonely_path(4, samples=30, sample_ns=(7,), seed=99)
    assert result.to_dict() == two.to_dict()


def test_suite_gen_lonely_path():
    assert suite_gen_lonely_path(4, rs=(2, 3)).passed


@pytest.mark.parametrize("suite", [suite_lonely_path, suite_gen_lonely_path])
@pytest.mark.parametrize("max_len", [0, -1])
def test_lonely_path_suites_refuse_path_length_below_1(monkeypatch, suite, max_len):
    def enumerated(*_args):
        raise AssertionError("enumerated graphs before checking max_len")

    monkeypatch.setattr(suites, "exhaustive_graphs", enumerated)
    with pytest.raises(ValueError, match="max_len must be at least 1"):
        suite(3, max_len=max_len)


def test_suite_replete():
    result = suite_replete(4, t2s=(0, 1), rs=(2, 3))
    assert result.passed
    assert result.vacuous > 0  # most small graphs fail the hypotheses


@pytest.mark.parametrize("suite, check, tags", [
    (lambda: suite_swap(3), "swap_failures", ["g6"]),
    (lambda: suite_lonely_path(3), "join_failures", ["g6"]),
    (lambda: suite_gen_lonely_path(3, rs=(2,)), "join_failures", ["g6", "r"]),
    (lambda: suite_replete(3, t2s=(0,), rs=(2,)), "touches_failures", ["g6", "claim"]),
], ids=["swap", "lonely-path", "generalized-lonely-path", "replete"])
def test_suite_violations_carry_their_tags(monkeypatch, suite, check, tags):
    # Each violation is the check's payload followed by the suite's tags.
    monkeypatch.setattr(lonely, check, _one_violation_per_coloring)
    result = suite()
    assert result.violations and not result.passed
    for bad in result.violations:
        assert list(bad) == ["coloring", *tags]
    if "claim" in tags:
        assert {bad["claim"] for bad in result.violations} == {
            "class-meets-all-classes", "singleton-meets-small-classes[r=2]"}


def test_suite_identities(monkeypatch):
    result = suite_identities(4)
    assert result.passed and result.checked == 2 * len(list(exhaustive_graphs(0, 4)))
    with pytest.raises(GuardExceededError,
                       match=r"^r-bounded stats guarded at n <= 3 \(graph has 4\)$"):
        suite_identities(4, Guards(optimal=3))
    # The suite reads the rows of bounds.CLAIMS: an iota_2 one too large breaks
    # both; each payload is the record's witness plus g6 and claim.
    real = bounds.bounded_stats

    def off_by_one(g, r, guards=DEFAULT_GUARDS):
        bs = real(g, r, guards)
        return replace(bs, iota_r=bs.iota_r + 1)

    monkeypatch.setattr(bounds, "bounded_stats", off_by_one)
    bad = suite_identities(1)
    assert bad.checked == 4
    assert [(v["claim"], v["g6"]) for v in bad.violations] == [
        ("iota2-matching-identity", "?"), ("chi2-identity", "?"),
        ("iota2-matching-identity", "@"), ("chi2-identity", "@")]
    assert bad.violations[2] == {"iota_2": 2, "n": 1, "nu_complement": 0,
                                 "g6": "@", "claim": "iota2-matching-identity"}
    assert bad.violations[3] == {"r": 2, "n": 1, "omega": 1, "max_deg": 0, "chi_r": 1,
                                 "m_r": 0, "iota_r": 2, "g6": "@", "claim": "chi2-identity"}


def test_suite_properties_structure():
    result = suite_properties(seed=31, predicates=10, max_n_br=4)
    # the b_r and frame3 parts never fail; only the claimed equivalence may
    for violation in result.violations:
        assert violation["claim"] == "complete-condition-iff"
        assert violation["frame_property"] and violation["singleton_friendly"]
        assert not violation["complete_condition"]


def test_sweep_reports_sorted_and_mergeable():
    graphs = list(exhaustive_graphs(1, 4))
    whole = sweep_reports(graphs, PARAMS)
    ids = [(rep["inv"]["n"], rep["g6"]) for rep in whole]
    assert ids == sorted(ids)
    # split the corpus across two workers, merge, re-sort: same reports
    part = sweep_reports(graphs[::2], PARAMS) + sweep_reports(graphs[1::2], PARAMS)
    part.sort(key=lambda rep: (rep["inv"]["n"], rep["g6"]))
    assert part == whole


def test_load_graph6_lines(tmp_path):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("Dhc\n\nbroken line\nD??\n")
    graphs, errors = load_graph6_lines(str(corpus))
    assert [lineno for lineno, _ in graphs] == [1, 4]
    assert [lineno for lineno, _ in errors] == [3]


def test_claim_records_for(c5):
    records = claim_records_for(c5, "gen-reed-conjecture", PARAMS)
    assert {rec.name for rec in records} == {
        f"gen-reed-conjecture[r={r}]" for r in (1, 2, 3)}
    records = claim_records_for(c5, "gen-reed-conjecture[r=2]", PARAMS)
    assert [rec.name for rec in records] == ["gen-reed-conjecture[r=2]"]
    records = claim_records_for(c5, "lonely-path-join", PARAMS)
    assert "lonely-path-join" in {rec.name for rec in records}
    with pytest.raises(UnknownClaimError):
        claim_records_for(c5, "nope", PARAMS)


INVARIANT_GRAPHS = (*exhaustive_graphs(1, 5),
                    *(er_random(n, p, seed=n) for n in (7, 8, 9) for p in (0.2, 0.5, 0.8)))
NOT_LONELY = {row.name for row in CLAIMS if row.family != bounds.LONELY}


@pytest.mark.parametrize("full", [0, 3, 8])
def test_lonely_streams_refuse_together(full):
    # Every lonely stream, bounded_stats and the B_r checks refuse at the one
    # optimal guard, so a report is wholly refused or wholly evaluated, and
    # lonely-claims is the only lonely record a refusal leaves. A per-cap
    # refusal would need a placeholder of its own and an input that reaches it.
    params = VerificationParams(r_list=(1, 2, 3, 4))
    for g in INVARIANT_GRAPHS:
        below = full_report(g, replace(params, guards=Guards(optimal=g.n - 1, full=full)))
        assert {rec["verdict"] for rec in below["claims"]} == {"not-evaluated"}, g
        assert [rec["name"] for rec in below["claims"]
                if base_name(rec["name"]) not in NOT_LONELY] == [LONELY_REFUSED], g
        at = full_report(g, replace(params, guards=Guards(optimal=g.n, full=full)))
        assert "not-evaluated" not in {rec["verdict"] for rec in at["claims"]}, g


def test_search_claim_no_counterexamples():
    result = search_claim("reed-disjunct", PARAMS, max_n=4)
    assert result["graphs"] == 18
    assert result["counterexamples"] == []
    sampled = search_claim("gen-reed-conjecture[r=2]",
                           VerificationParams(r_list=(2,)),
                           max_n=4, samples=20, sample_ns=(7,), seed=3)
    assert sampled["counterexamples"] == []
    assert sampled["graphs"] == 18 + 20


def test_search_claim_unknown():
    with pytest.raises(UnknownClaimError, match="valid claims"):
        search_claim("foo", PARAMS)


def test_search_claim_counts_not_evaluated():
    evaluated = search_claim("simple-bound", PARAMS, max_n=4)
    assert (evaluated["not_evaluated"], evaluated["guard_reason"]) == (0, None)
    refused = search_claim("simple-bound", PARAMS, max_n=0,
                           samples=3, sample_ns=(11,), seed=1)
    assert refused["records"] == refused["not_evaluated"] == 3
    assert refused["guard_reason"] == "stinginess guarded at n <= 10 (graph has 11)"
    # The uncapped stream's placeholder stands for every lonely claim.
    lonely = search_claim("lonely-path-join", PARAMS, max_n=2,
                          samples=3, sample_ns=(11,), seed=1)
    assert (lonely["graphs"], lonely["records"], lonely["not_evaluated"]) == (6, 12, 3)


@pytest.mark.parametrize("run", [
    lambda: suite_lonely_path(3, samples=5, sample_ns=(7,), seed=-3),
    lambda: search_claim("reed-disjunct", PARAMS, max_n=3, samples=5, sample_ns=(7,), seed=-4),
    lambda: suite_properties(seed=-1, predicates=3, max_n_br=2),
], ids=["suite_lonely_path", "search_claim", "suite_properties"])
def test_negative_seed_is_refused_before_any_graph(monkeypatch, run):
    # random.Random seeds by the absolute value, so seed -s would silently
    # draw exactly seed s's samples while the config recorded -s.
    def no_graph(*args, **kwargs):
        raise AssertionError("read a graph before refusing the seed")

    monkeypatch.setattr(suites, "exhaustive_graphs", no_graph)
    monkeypatch.setattr(suites, "er_random", no_graph)
    with pytest.raises(ValueError, match="seed must be nonnegative, got -"):
        run()


# --- the claim table -----------------------------------------------------------

DRIFT_PARAMS = VerificationParams(r_list=(1, 2, 3, 4), t2_list=(0, 1, 2))


def test_claim_table_matches_emitted_records():
    # Every record full_report emits resolves through the table to exactly
    # itself, and the table names no claim that is never emitted. A base-name
    # query covers every parameterization, so lonely-path-join also returns
    # lonely-path-join[B_r].
    placeholders = {LONELY_REFUSED}
    emitted = set()
    for g in (cycle(5), petersen(), er_random(11, 0.5, seed=1)):
        for rec in full_report(g, DRIFT_PARAMS)["claims"]:
            name = rec["name"]
            if base_name(name) in placeholders:
                continue
            emitted.add(base_name(name))
            got = claim_records_for(g, name, DRIFT_PARAMS)
            assert [r.to_dict() for r in got if r.name == name] == [rec], name
            assert {base_name(r.name) for r in got} == {base_name(name)}, name
    assert {row.name for row in CLAIMS} == emitted


# --- rechecking artifacts --------------------------------------------------------


def _one_violation_per_coloring(cg, *args):
    return 1, [{"coloring": cg.c.as_lists()}]


@pytest.mark.parametrize("check, claim", [
    ("swap_failures", "swap-preserves-frame"),
    ("touches_failures", "singleton-meets-small-classes[r=3]"),
])
def test_recheck_reproduces_lonely_artifacts(monkeypatch, check, claim):
    monkeypatch.setattr(lonely, check, _one_violation_per_coloring)
    artifacts = search_claim(claim, PARAMS, max_n=3)["counterexamples"]
    assert len(artifacts) == 7  # every graph on 1..3 vertices
    assert all(recheck_counterexample(a, PARAMS) for a in artifacts)


def test_recheck_evaluates_the_artifact_r(monkeypatch):
    # Inflating chi_r by n violates the conjecture on every graph. The
    # artifacts are made at r = 4 and recheck under params without r = 4.
    real = bounds.bounded_stats

    def inflated(g, r, guards):
        bs = real(g, r, guards)
        return replace(bs, chi_r=bs.chi_r + g.n)

    monkeypatch.setattr(bounds, "bounded_stats", inflated)
    artifacts = search_claim("gen-reed-conjecture[r=4]", VerificationParams(r_list=(4,)),
                             max_n=3)["counterexamples"]
    assert len(artifacts) == 7 and {a["r"] for a in artifacts} == {4}
    assert PARAMS.r_list == (1, 2, 3)
    assert all(recheck_counterexample(a, PARAMS) for a in artifacts)
