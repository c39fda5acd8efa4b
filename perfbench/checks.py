"""Output checks, run after the timed region of a repetition.

* For the default seed the sha256 of the canonical output must equal the
  digest recorded in ``expected.json`` (byte identity of the reports).
* For every seed, the numbers in the output (chi, iota, chi_r, M_r, iota_r,
  omega, alpha, nu) must agree with the brute-force oracles of
  ``tests/oracles.py`` (for r = 1, with the discrete coloring) on every
  graph with at most ``ORACLE_MAX_N`` vertices,
  and the output must cover exactly the graphs the workload fed in.
* The reports on the classes with n <= 6 are the same in every repetition
  of report-sweep, so only the first repetition checks them by oracle; the
  others return their digest for the harness to compare.

Returns the graphs whose output is wrong, and the problems found.
"""

from __future__ import annotations

import json
import os
import sys

import corpus
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ORACLE_MAX_N = 7
CLASS_COUNTS = (1, 1, 2, 4, 11, 34, 156)   # classes on n = 0..6 vertices (OEIS A000088)


def expected() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _oracles():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "tests"))
    import oracles

    return oracles


def _oracle_inv(g, oracles) -> dict:
    return {
        "omega": oracles.clique_number_oracle(g),
        "alpha": oracles.independence_number_oracle(g),
        "nu": oracles.matching_number_oracle(g),
        "chi": oracles.chromatic_number_oracle(g),
        "iota": oracles.iota_oracle(g),
    }


def _oracle_bounded(g, r: int, oracles) -> dict:
    if r == 1:
        # The only coloring with classes of size <= 1 is the discrete one;
        # enumerating every partition to find it would double the check time.
        return {"chi_r": g.n, "m_r": g.n, "iota_r": g.n}
    chi_r, m_r, iota_r = oracles.bounded_oracle(g, r)
    return {"chi_r": chi_r, "m_r": m_r, "iota_r": iota_r}


def _graph(g6: str, sc):
    n, edges = corpus.graph6_to_edges(g6)
    return sc.graphs.Graph.from_edges(n, edges)


def _mismatches(label: str, got: dict, want: dict) -> list[str]:
    return [f"{label} {key}: program {got.get(key)!r}, oracle {value!r}"
            for key, value in want.items() if got.get(key) != value]


def _check_report_sweep(text: str, seed: int, first_rep: bool, sc, oracles):
    lines = text.splitlines()
    reports = [json.loads(line) for line in lines]
    problems, bad = [], set()
    fixed = workloads.digest("".join(line for line, rep in zip(lines, reports)
                                     if rep["inv"]["n"] < len(CLASS_COUNTS)))
    per_n = [0] * len(CLASS_COUNTS)
    fed = sorted(workloads.report_sweep_inputs(seed))
    got = []
    for rep in reports:
        n = rep["inv"]["n"]
        if n < len(CLASS_COUNTS):
            per_n[n] += 1
            if not first_rep:
                continue
        else:
            got.append(rep["g6"])
        if n > ORACLE_MAX_N:
            continue
        g = _graph(rep["g6"], sc)
        found = _mismatches(rep["g6"], rep["inv"], _oracle_inv(g, oracles))
        for r, numbers in rep["inv"]["bounded"].items():
            found += _mismatches(f"{rep['g6']} r={r}", numbers,
                                 _oracle_bounded(g, int(r), oracles))
        if found:
            bad.add(rep["g6"])
            problems += found
    if tuple(per_n) != CLASS_COUNTS:
        problems.append(f"classes per n {per_n}, expected {list(CLASS_COUNTS)}")
        bad.add("<exhaustive>")
    if sorted(got) != fed:
        problems.append("corpus graphs in the output differ from the corpus fed in")
        bad.add("<corpus>")
    return bad, problems, fixed


def _check_bound_claims(text: str, seed: int, first_rep: bool, sc, oracles):
    rows = [json.loads(line) for line in text.splitlines()]
    fed = workloads.bound_claims_inputs(seed)
    problems, bad = [], set()
    if [row["bounds"]["g6"] for row in rows] != fed:
        problems.append("output graphs differ from the corpus fed in")
        bad.add("<corpus>")
    for row in rows:
        base = row["bounds"]
        if base["inv"]["n"] > ORACLE_MAX_N:
            continue
        g = _graph(base["g6"], sc)
        found = _mismatches(base["g6"], base["inv"], _oracle_inv(g, oracles))
        for rep in row["generalized"]:
            found += _mismatches(f"{base['g6']} r={rep['r']}", rep,
                                 _oracle_bounded(g, rep["r"], oracles))
        if found:
            bad.add(base["g6"])
            problems += found
    return bad, problems, None


def _check_lonely_sample(text: str, seed: int, first_rep: bool, sc, oracles):
    """The suite's samples are not in its output, so the check covers what is:
    the joined-paths lemma holds (no violation), the configuration is the
    one asked for, and the colorings visited are every optimal coloring of
    every class on n <= 6 (counted by the oracle) plus one per sample."""
    result = json.loads(text)
    problems = []
    config = result["config"]
    if (config["samples"], config["seed"], config["max_n"]) != (
            workloads.LONELY_SAMPLES, seed, workloads.EXHAUSTIVE_MAX_N):
        problems.append(f"suite ran with config {config}")
    if result["violations"] or not result["passed"]:
        problems.append(f"{len(result['violations'])} lonely-path violations")
    exhaustive = sum(len(oracles.optimal_colorings_oracle(g))
                     for g in sc.suites.exhaustive_graphs(0, workloads.EXHAUSTIVE_MAX_N))
    want = exhaustive + workloads.LONELY_SAMPLES
    if result["details"].get("colorings") != want:
        problems.append(f"colorings visited {result['details'].get('colorings')}, "
                        f"expected {want}")
    if result["checked"] <= 0:
        problems.append("no path pair checked")
    return ({"<suite>"} if problems else set()), problems, None


CHECKS = {
    "report-sweep": _check_report_sweep,
    "bound-claims": _check_bound_claims,
    "lonely-sample": _check_lonely_sample,
}


def check_output(workload: str, seed: int, first_rep: bool, text: str, sc) -> dict:
    """Check one repetition's output; ``seed`` is the seed of its inputs."""
    try:
        bad, problems, fixed = CHECKS[workload](text, seed, first_rep, sc, _oracles())
    except (ValueError, KeyError, TypeError) as exc:
        bad, problems, fixed = {"<output>"}, [f"unreadable output: {exc!r}"], None
    want = expected()
    digest_ok = None
    if first_rep and seed == want["seed"]:
        digest_ok = workloads.digest(text) == want["digests"].get(workload)
        if not digest_ok:
            problems.append(f"default-seed output digest {workloads.digest(text)} "
                            f"differs from expected.json")
    return {"bad_graphs": sorted(bad), "problems": problems, "digest_ok": digest_ok,
            "fixed_digest": fixed}
