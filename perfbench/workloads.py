"""The three benchmark workloads, run in-process against the public API.

Each workload has an input builder (set-up, outside the timed region) and a
body that runs inside the timed region. The body goes through ``clock``,
which times every step, so the harness can separate per-graph operations
from the rest of the region. Functions are looked up on their module at call
time, so the wrappers of a traced run see every call.

Sizes are per repetition; one repetition is one fresh interpreter.
"""

from __future__ import annotations

import hashlib
import json

from corpus import DENSITIES, er_corpus

REPORT_SWEEP_NS = (7, 8)
REPORT_SWEEP_PER_CELL = 12       # 72 ER graphs beside the 209 classes on n <= 6
BOUND_CLAIMS_NS = (7, 8, 9, 10)
BOUND_CLAIMS_PER_CELL = 50       # 600 ER graphs
BOUND_CLAIMS_RS = (1, 2, 3)
LONELY_SAMPLES = 2000
LONELY_SAMPLE_NS = (7, 8)
EXHAUSTIVE_MAX_N = 6
EXHAUSTIVE_CLASSES = 209         # isomorphism classes on 0..6 vertices (OEIS A000088)
NOT_EVALUATED = "not-evaluated"

GRAPHS_PER_REPETITION = {
    "report-sweep": EXHAUSTIVE_CLASSES
    + len(REPORT_SWEEP_NS) * len(DENSITIES) * REPORT_SWEEP_PER_CELL,
    "bound-claims": len(BOUND_CLAIMS_NS) * len(DENSITIES) * BOUND_CLAIMS_PER_CELL,
    "lonely-sample": EXHAUSTIVE_CLASSES + LONELY_SAMPLES,
}


def repetition_seed(seed: int, rep: int) -> int:
    """Input seed of repetition ``rep`` of a run with ``seed``: the run seed
    itself for the first, then distinct seeds derived from both. Costs vary
    a lot between inputs (one complete graph on 8 vertices holds 19684 lonely
    path pairs), so a run measures many inputs rather than one input many
    times."""
    if rep == 0:
        return seed
    return int(hashlib.sha256(f"perfbench-{seed}-{rep}".encode()).hexdigest()[:8], 16)


def dump_json(obj) -> str:
    """The CLI's JSON line format."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Result:
    """What one repetition produced: canonical output text plus counts."""

    def __init__(self, text: str, graphs: int, checks_done: int, facts: dict):
        self.text = text
        self.graphs = graphs
        self.checks_done = checks_done
        self.facts = facts


def _claim_facts(claims) -> dict:
    """Counts read from claim records: not-evaluated claims, lonely pairs
    join-checked and colorings checked by the lemma verifiers."""
    not_evaluated = pairs = colorings = 0
    for claim in claims:
        if claim["verdict"] == NOT_EVALUATED:
            not_evaluated += 1
            continue
        witness = claim["witness"]
        if claim["name"].startswith("lonely-path-join"):
            pairs += witness.get("checks", 0)
        colorings += witness.get("colorings_checked", 0)
    return {"not_evaluated": not_evaluated, "pairs_checked": pairs,
            "colorings_checked": colorings}


def _sum_facts(facts: list[dict]) -> dict:
    total: dict = {}
    for f in facts:
        for key, value in f.items():
            total[key] = total.get(key, 0) + value
    return total


# -- report-sweep -------------------------------------------------------------


def report_sweep_inputs(seed: int) -> list[str]:
    return er_corpus(seed, REPORT_SWEEP_NS, REPORT_SWEEP_PER_CELL)


def report_sweep(lines: list[str], clock, sc) -> Result:
    """The sweep path: every class on n <= 6 plus the corpus, one full_report
    per graph, sorted by (n, g6) and written as JSON lines."""
    graphs = clock.step(lambda: list(sc.suites.exhaustive_graphs(0, EXHAUSTIVE_MAX_N)))
    graphs += clock.step(lambda: [sc.graphs.parse_graph6(line) for line in lines])
    params = sc.bounds.VerificationParams()
    reports = [clock.op(sc.bounds.full_report, g, params) for g in graphs]
    reports = [rep for rep in reports if rep is not None]

    def write():
        reports.sort(key=lambda rep: (rep["inv"]["n"], rep["g6"]))
        return "".join(dump_json(rep) + "\n" for rep in reports)

    text = clock.step(write)
    facts = _sum_facts([_claim_facts(rep["claims"]) for rep in reports])
    checks = sum(1 for rep in reports for c in rep["claims"]
                 if c["verdict"] != NOT_EVALUATED)
    return Result(text, len(graphs), checks, facts)


# -- bound-claims -------------------------------------------------------------


def bound_claims_inputs(seed: int) -> list[str]:
    return er_corpus(seed, BOUND_CLAIMS_NS, BOUND_CLAIMS_PER_CELL)


def bound_claims(lines: list[str], clock, sc) -> Result:
    """The search / criterion-06 path: evaluate_bounds plus evaluate_generalized
    for each r on every corpus graph. No coloring enumeration."""
    graphs = clock.step(lambda: [sc.graphs.parse_graph6(line) for line in lines])
    params = sc.bounds.VerificationParams(r_list=BOUND_CLAIMS_RS)

    def evaluate(g):
        base = sc.bounds.evaluate_bounds(g, params)
        gen = [sc.bounds.evaluate_generalized(g, r, params) for r in BOUND_CLAIMS_RS]
        return base, gen

    results = [clock.op(evaluate, g) for g in graphs]
    results = [res for res in results if res is not None]

    def write():
        return "".join(
            dump_json({"bounds": base.to_dict(),
                       "generalized": [rep.to_dict() for rep in gen]}) + "\n"
            for base, gen in results)

    text = clock.step(write)
    claims = [c.to_dict() for base, gen in results
              for rep in [base, *gen] for c in rep.claims]
    facts = _claim_facts(claims)
    checks = sum(1 for c in claims if c["verdict"] != NOT_EVALUATED)
    return Result(text, len(graphs), checks, facts)


# -- lonely-sample ------------------------------------------------------------


def lonely_sample_inputs(seed: int) -> int:
    return seed


def lonely_sample(seed: int, clock, sc) -> Result:
    """Criterion 03 at a smaller count: the lonely-path suite over n <= 6 and
    seeded samples, the sampling path of ``verify --samples``.

    The suite is one call, so the clock marks each call of ``er_random``, the
    start of each sample, to time samples one by one. Without those marks the
    whole call is one operation over all of its graphs."""
    graphs = GRAPHS_PER_REPETITION["lonely-sample"]
    with clock.boundaries("er_random"):
        result = clock.op(sc.suites.suite_lonely_path, EXHAUSTIVE_MAX_N, max_len=3,
                          samples=LONELY_SAMPLES, sample_ns=LONELY_SAMPLE_NS, seed=seed,
                          covers=graphs)
    if result is None:
        return Result("", graphs, 0, {})
    text = clock.step(lambda: dump_json(result.to_dict()) + "\n")
    facts = {"not_evaluated": 0, "pairs_checked": result.checked,
             "colorings_checked": result.details.get("colorings", 0),
             "violations": len(result.violations)}
    return Result(text, graphs, result.checked, facts)


WORKLOADS = {
    "report-sweep": (report_sweep_inputs, report_sweep),
    "bound-claims": (bound_claims_inputs, bound_claims),
    "lonely-sample": (lonely_sample_inputs, lonely_sample),
}
