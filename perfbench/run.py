"""stingycolor benchmark: one workload, measured from outside the program.

    python3 perfbench/run.py --workload report-sweep --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Runs repetitions of the workload one after another, each in a fresh
interpreter (``worker.py``), because every CLI invocation starts with cold
caches. Every repetition checks its output (``checks.py``). The last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of traced repetitions with ``--trace 1``. Lines before it list every
metric by name, unit and workload, plus the raw (not speed-normalized)
figures. Workload rationale and metric definitions are in DESIGN.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from worker import probe  # noqa: E402

MIN_REPS = 3
MIN_TRACED_REPS = 2
REP_TIMEOUT_S = 120
RUN_LIMIT_S = 150     # no repetition starts after this, so a run ends within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("graphs_per_s", "1/s"),
    ("graph_ms_p50", "ms"),
    ("graph_ms_p95", "ms"),
    ("peak_rss_mb", "MB"),
    ("checks_done", "count"),
)

# (metric, unit, traced function(s), what): how each per-layer metric is read.
SELF = "self_s"
PER_LAYER = (
    ("graphs.all_graphs.self_s", "s", ("graphs.all_graphs",), SELF),
    ("graphs.parse_graph6.self_s", "s", ("graphs.parse_graph6",), SELF),
    ("graphs.invariants.calls", "count", ("graphs.invariants",), "calls"),
    ("graphs.invariants.self_s", "s", ("graphs.invariants",), SELF),
    ("graphs.graph_builds", "count", (), "graph_builds"),
    ("graphs.max_clique_mask.hit_ratio", "ratio", ("graphs.max_clique_mask",), "hit_ratio"),
    ("graphs.matching_number.hit_ratio", "ratio", ("graphs.matching_number",), "hit_ratio"),
    ("coloring.chromatic_number.calls", "count", ("coloring.chromatic_number",), "calls"),
    ("coloring.chromatic_number.self_s", "s", ("coloring.chromatic_number",), SELF),
    ("coloring.chromatic_number.hit_ratio", "ratio", ("coloring.chromatic_number",),
     "hit_ratio"),
    ("coloring.stats.self_s", "s", ("coloring.stats",), SELF),
    ("coloring.stats.hit_ratio", "ratio", ("coloring.stats",), "hit_ratio"),
    ("coloring.bounded_stats.self_s", "s", ("coloring.bounded_stats",), SELF),
    ("coloring.bounded_stats.hit_ratio", "ratio", ("coloring.bounded_stats",), "hit_ratio"),
    ("coloring.one_optimal_coloring.self_s", "s", ("coloring.one_optimal_coloring",), SELF),
    ("coloring.enumerate_optimal_colorings.yielded", "count",
     ("coloring.enumerate_optimal_colorings",), "yielded"),
    ("coloring.enumerate_optimal_colorings.self_s", "s",
     ("coloring.enumerate_optimal_colorings",), SELF),
    ("coloring.enumerate_colorings.yielded", "count", ("coloring.enumerate_colorings",),
     "yielded"),
    ("coloring.enumerate_colorings.self_s", "s", ("coloring.enumerate_colorings",), SELF),
    ("coloring.property_checks.self_s", "s",
     ("coloring.is_frame_property", "coloring.is_singleton_friendly", "coloring.chi_p",
      "coloring.enumerate_p_optimal"), SELF),
    ("lonely.verify_lonely_path_lemma.self_s", "s", ("lonely.verify_lonely_path_lemma",),
     SELF),
    ("lonely.verify_touches_lemma.self_s", "s", ("lonely.verify_touches_lemma",), SELF),
    ("lonely.verify_replete_lemma.self_s", "s", ("lonely.verify_replete_lemma",), SELF),
    ("lonely.doubly_critical_edges.self_s", "s", ("lonely.doubly_critical_edges",), SELF),
    ("lonely.enumerate_lonely_path_pairs.yielded", "count",
     ("lonely.enumerate_lonely_path_pairs",), "yielded"),
    ("lonely.enumerate_lonely_path_pairs.self_s", "s",
     ("lonely.enumerate_lonely_path_pairs",), SELF),
    ("lonely.pairs_per_check", "ratio", ("lonely.enumerate_lonely_path_pairs",),
     "pairs_per_check"),
    ("lonely.enumerated_per_checked", "ratio", ("coloring.enumerate_colorings",),
     "enumerated_per_checked"),
    ("bounds.full_report.self_s", "s", ("bounds.full_report",), SELF),
    ("bounds.evaluate_bounds.self_s", "s", ("bounds.evaluate_bounds",), SELF),
    ("bounds.evaluate_generalized.self_s", "s", ("bounds.evaluate_generalized",), SELF),
    ("bounds.not_evaluated", "count", (), "not_evaluated"),
    ("suites.suite_lonely_path.self_s", "s", ("suites.suite_lonely_path",), SELF),
    ("trace.overhead_ratio", "ratio", (), "overhead"),
)


def repetition(workload: str, seed: int, rep: int, traced: bool) -> dict:
    """Run one fresh-interpreter repetition; {"error": ...} if it failed."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--rep", str(rep), "--traced", str(int(traced))]
    if traced and rep == 0:
        cmd += ["--sidecar", os.path.join(OUT, f"trace-{workload}-seed{seed}.jsonl")]
    cmd += ["--probe-before", repr(probe())]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"rep": rep, "traced": traced,
                "error": f"repetition exceeded {REP_TIMEOUT_S} s"}
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"rep": rep, "traced": traced,
                "error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out.update(rep=rep, traced=traced)
    out["setup_raw_s"] = out["setup_end"] - spawned
    out["setup_s"] = out["setup_raw_s"] * out["setup_factor"]
    return out


def run_repetitions(workload: str, seed: int, seconds: int, trace: bool) -> list[dict]:
    """Repetitions until ``seconds`` are used, each on its own inputs. A traced
    run pairs an untraced and a traced repetition on the same inputs, so the
    tracing overhead compares like with like."""
    os.makedirs(OUT, exist_ok=True)
    began = time.monotonic()
    reps: list[dict] = []
    needed = 2 * MIN_TRACED_REPS if trace else MIN_REPS
    while True:
        index = len(reps) // 2 if trace else len(reps)
        traced = trace and len(reps) % 2 == 1
        rep = repetition(workload, seed, index, traced)
        reps.append(rep)
        if "error" in rep:
            print(f"error: {rep['error']}", file=sys.stderr)
            if len(reps) >= 2 and all("error" in r for r in reps):
                break
        elapsed = time.monotonic() - began
        mean = elapsed / len(reps)
        if trace and len(reps) % 2:
            continue
        if len(reps) >= needed and elapsed + mean * (2 if trace else 1) > seconds:
            break
        if elapsed + mean * 2 > RUN_LIMIT_S:
            break
    return reps


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tally(workload: str, reps: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): graphs attempted over all repetitions,
    and those that raised or failed a check. A traced repetition must give
    the output of the untraced one on the same inputs, and the output every
    repetition shares must equal that of the first, which the oracles checked."""
    per_rep = workloads.GRAPHS_PER_REPETITION[workload]
    attempted = failed = 0
    problems: list[str] = []
    digests: dict[int, str] = {}
    fixed = next((r["check"]["fixed_digest"] for r in reps if r.get("rep") == 0
                  and "check" in r), None)
    for rep in reps:
        attempted += per_rep
        if "error" in rep:
            failed += per_rep
            problems.append(rep["error"].splitlines()[0])
            continue
        check = rep["check"]
        problems += check["problems"]
        marks = check["bad_graphs"]
        bad = per_rep if any(m.startswith("<") for m in marks) else len(marks)
        if digests.setdefault(rep["rep"], rep["digest"]) != rep["digest"]:
            problems.append(f"repetition {rep['rep']}: traced output differs from untraced")
            bad = per_rep
        if check["fixed_digest"] != fixed:
            problems.append(f"repetition {rep['rep']}: reports on n <= 6 differ from "
                            f"the first repetition")
            bad = per_rep
        failed += min(per_rep, bad + rep["failed_graphs"])
    return attempted, failed, problems


def end_to_end(reps: list[dict]) -> tuple[dict, dict]:
    """(normalized, raw) end-to-end values over the untraced repetitions."""
    latencies = [s * 1000 for rep in reps for s in rep["graph_s"]]
    latencies_raw = [s * 1000 for rep in reps for s in rep["graph_raw_s"]]
    graphs = sum(r["graphs"] for r in reps)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "graphs_per_s": graphs / sum(r["timed_s"] for r in reps),
        "graph_ms_p50": percentile(latencies, 50),
        "graph_ms_p95": percentile(latencies, 95),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
        "checks_done": statistics.fmean(r["checks_done"] for r in reps),
    }
    raw = {
        "setup_s": statistics.median(r["setup_raw_s"] for r in reps),
        "graphs_per_s": graphs / sum(r["timed_raw_s"] for r in reps),
        "graph_ms_p50": percentile(latencies_raw, 50),
        "graph_ms_p95": percentile(latencies_raw, 95),
    }
    return values, raw


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer values: counts and ratios from the traced repetition on the
    run seed's own inputs, self times as medians over traced repetitions,
    scaled to nominal host speed like the timed region that holds them."""
    first = traced[0]
    summary = first["trace"]
    notes = [f"{name}: not in the program, not measured"
             for name in summary["unmeasured"]]
    facts = first["facts"]
    self_s = [{k: v * r["timed_s"] / r["timed_raw_s"] for k, v in r["trace"]["self_s"].items()}
              for r in traced]
    paired = {r["rep"] for r in traced} & {r["rep"] for r in untraced}
    gps, gps_traced = (
        sum(r["graphs"] for r in reps if r["rep"] in paired)
        / sum(r["timed_s"] for r in reps if r["rep"] in paired)
        for reps in (untraced, traced))
    yielded = summary["yielded"]
    values = {}
    for name, _unit, sources, what in PER_LAYER:
        if what == SELF:
            value = statistics.median(sum(s.get(src, 0.0) for src in sources) for s in self_s)
        elif what in ("calls", "yielded"):
            value = sum(summary[what].get(src, 0) for src in sources)
        elif what == "hit_ratio":
            ratio = summary["hit_ratio"].get(sources[0])
            if ratio is None:
                notes.append(f"{name}: the cache saw no calls, reported as 0")
            value = ratio or 0.0
        elif what == "graph_builds":
            value = summary["graph_builds"]
        elif what == "not_evaluated":
            value = facts["not_evaluated"]
        elif what == "pairs_per_check":
            checked = facts["pairs_checked"]
            value = yielded.get(sources[0], 0) / checked if checked else 0.0
        elif what == "enumerated_per_checked":
            checked = facts["colorings_checked"]
            value = yielded.get(sources[0], 0) / checked if checked else 0.0
        else:  # overhead
            value = gps / gps_traced
        values[name] = value
    notes.append(f"traced graphs_per_s {gps_traced:.6g} vs untraced {gps:.6g} "
                 f"on the inputs of {len(paired)} repetitions")
    return values, notes


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict | None:
    """Run one workload and print its metrics; the result object, or None if
    no repetition completed."""
    reps = run_repetitions(workload, seed, seconds, trace)
    good = [r for r in reps if "error" not in r]
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not any(r["graph_s"] for r in untraced) or (trace and not traced):
        print(f"error: {workload}: no repetition completed", file=sys.stderr)
        return None
    attempted, failed, problems = tally(workload, reps)
    for problem in problems:
        print(f"check: {problem}")
    for name in sorted({name for r in good for name in r["cold_skipped"]}):
        print(f"note: {name} exposes no cache_info(); cold-state guard skipped it")

    values, raw = end_to_end(untraced)
    units = dict(END_TO_END)
    print(f"workload {workload} seed {seed}: {len(untraced)} repetitions, "
          f"{sum(len(r['graph_s']) for r in untraced)} latency samples, "
          f"{attempted} graphs attempted, {failed} failed")
    for name, unit in END_TO_END:
        extra = f"  (raw {raw[name]:.6g})" if name in raw else ""
        print(f"  {workload:14} {name:14} {values[name]:12.6g} {unit}{extra}")
    print(f"  {workload:14} {'failed_frac':14} {failed / attempted:12.6g} ratio")

    if trace:
        layer, notes = per_layer(traced, untraced)
        for note in notes:
            print(f"note: {note}")
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        for name, value in layer.items():
            print(f"  {workload:14} {name:46} {value:12.6g} {units[name]}")
        values = layer

    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "stingycolor", "__init__.py")):
        print(f"error: no stingycolor sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    # A terminated run raises SystemExit, so subprocess.run kills and reaps
    # the repetition in flight instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.workload != "all":
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        if result is None:
            return 1
        print(json.dumps(result))
        return 0
    results = {}
    for workload in workloads.WORKLOADS:
        results[workload] = measure(workload, args.seed, args.seconds, bool(args.trace))
        if results[workload] is None:
            return 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{workload}/{name}": metric for workload, r in results.items()
                    for name, metric in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
