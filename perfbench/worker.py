"""One repetition of one workload, in a fresh interpreter.

Run by ``run.py``; prints one JSON object on stdout. The program is imported
from ``src/`` of the checkout this file sits in, every memoized kernel is
checked to be empty, and then the workload body runs in the timed region.

Host speed on a shared machine swings by up to 2x within seconds, so the
timed region is interleaved with a fixed reference routine (a probe, about
2 ms of pure-Python work owned by this benchmark) at least every
``PROBE_EVERY_S``. Each timed step is reported twice: as measured, and
scaled by ``NOMINAL_PROBE_S`` over the duration of the probes around it,
which is the time the step would take at the host's nominal speed. Probe
time is excluded from both.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import resource
import statistics
import sys
import time
import traceback
import types

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

PROBE_EVERY_S = 0.1
# Median probe duration on the reference host (2-vCPU Xeon VM, Python 3.11).
NOMINAL_PROBE_S = 0.0029


# Adjacency rows of a fixed 8-vertex, 9-edge graph: the probe enumerates its
# 456 proper colorings, the kind of work the program spends its time on.
PROBE_ADJ = (144, 96, 192, 96, 129, 138, 14, 53)


def _partitions(adj: tuple[int, ...], n: int):
    masks: list[int] = []

    def rec(v: int):
        if v == n:
            yield tuple(masks)
            return
        bit = 1 << v
        for j in range(len(masks)):
            if not masks[j] & adj[v]:
                masks[j] |= bit
                yield from rec(v + 1)
                masks[j] ^= bit
        masks.append(bit)
        yield from rec(v + 1)
        masks.pop()

    yield from rec(0)


def probe() -> float:
    """Seconds taken by a fixed piece of benchmark-owned work: enumerating the
    proper colorings of PROBE_ADJ twice, building and sorting their frames."""
    began = time.perf_counter()
    frames = []
    for _ in range(2):
        for masks in _partitions(PROBE_ADJ, len(PROBE_ADJ)):
            frames.append(tuple(sorted(m.bit_count() for m in masks)))
    frames.sort()
    return time.perf_counter() - began


class Clock:
    """Times the steps of the timed region and interleaves probes.

    Events are ("probe", seconds) or ("step", seconds, graphs), where
    ``graphs`` is how many graphs a per-graph operation covers (0 for a step
    that is not one)."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.events: list[tuple] = []
        self.failed_graphs = 0
        self.ops = 0
        self._boundaries = 0
        self._last_probe = 0.0
        self._piece_start = None
        self._piece_graphs = 0

    def _probe(self):
        self.events.append(("probe", probe()))
        self._last_probe = time.perf_counter()

    def _due(self):
        if time.perf_counter() - self._last_probe >= PROBE_EVERY_S:
            self._probe()

    def step(self, fn):
        """A timed step that is not a per-graph operation."""
        self._due()
        began = time.perf_counter()
        out = fn()
        self.events.append(("step", time.perf_counter() - began, 0))
        return out

    def op(self, fn, *args, covers=1, **kwargs):
        """One top-level call over ``covers`` graphs; its latency per graph is
        a sample. A call that raises fails its graphs and yields None."""
        self._due()
        if self.tracer is not None:
            self.tracer.trace_id = self.ops
        self.ops += 1
        self._boundaries = 0
        self._piece_graphs = covers
        self._piece_start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed_graphs += covers
            out = None
        self.events.append(("step", time.perf_counter() - self._piece_start,
                            self._piece_graphs))
        self._piece_start = None
        return out

    def _boundary(self):
        """Inside an op: end the current piece, and start a one-graph one."""
        now = time.perf_counter()
        self._boundaries += 1
        self.events.append(("step", now - self._piece_start,
                            0 if self._boundaries == 1 else 1))
        self._piece_graphs = 1
        if self.tracer is None:
            self._due()
        else:
            self.tracer.trace_id = self.ops + self._boundaries
        self._piece_start = time.perf_counter()

    @contextlib.contextmanager
    def boundaries(self, attr: str):
        """Split ops at each call of ``stingycolor.graphs.<attr>``: the piece
        before the first call is not per-graph, each later piece is one graph.
        The function is rebound in every package module that holds it; if the
        program no longer has it, ops are not split."""
        original = tracing.package_attr("graphs", attr)
        if original is None:
            yield
            return
        clock = self

        @functools.wraps(original)
        def marked(*args, **kwargs):
            if clock._piece_start is not None:
                clock._boundary()
            return original(*args, **kwargs)

        undo = tracing.rebind(original, marked)
        try:
            yield
        finally:
            tracing.restore(undo)

    def start(self):
        self._probe()

    def finish(self) -> dict:
        """Raw and normalized step times, per-graph latencies, and the probes.

        The steps between two probes are scaled by the median of the four
        probes around them, so one probe stretched by preemption does not
        skew them."""
        self._probe()
        probes = [e[1] for e in self.events if e[0] == "probe"]
        raw_total = norm_total = 0.0
        graph_raw, graph_norm = [], []
        seen = 0
        for event in self.events:
            if event[0] == "probe":
                seen += 1
                continue
            _, seconds, graphs = event
            near = probes[max(0, seen - 2):seen + 2]
            factor = NOMINAL_PROBE_S / statistics.median(near)
            raw_total += seconds
            norm_total += seconds * factor
            if graphs:
                graph_raw.append(seconds / graphs)
                graph_norm.append(seconds * factor / graphs)
        return {"timed_raw_s": raw_total, "timed_s": norm_total,
                "graph_raw_s": graph_raw, "graph_s": graph_norm, "probes_s": probes}


def import_program():
    """The checkout's stingycolor modules, refusing any other copy."""
    sys.path.insert(0, SRC)
    import stingycolor
    from stingycolor import bounds, coloring, graphs, lonely, suites

    where = os.path.dirname(os.path.abspath(stingycolor.__file__))
    if where != os.path.join(SRC, "stingycolor"):
        raise SystemExit(f"imported stingycolor from {where}, not from {SRC}")
    return types.SimpleNamespace(graphs=graphs, coloring=coloring, lonely=lonely,
                                 bounds=bounds, suites=suites)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="the run's seed")
    parser.add_argument("--rep", type=int, required=True,
                        help="repetition index; picks this repetition's inputs")
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sidecar", help="write the traced run's spans here")
    parser.add_argument("--probe-before", type=float, required=True,
                        help="duration of the probe run just before this process started")
    args = parser.parse_args(argv)

    sc = import_program()
    build, body = workloads.WORKLOADS[args.workload]
    seed = workloads.repetition_seed(args.seed, args.rep)
    inputs = build(seed)
    warm, skipped = tracing.cold_cache_violations()
    if warm:
        raise SystemExit(f"memoized kernels not cold before timing: {warm}")
    tracer = None
    if args.traced:
        tracer = tracing.Tracer()
        tracer.install()
    setup_end = time.monotonic()

    clock = Clock(tracer)
    clock.start()
    result = body(inputs, clock, sc)
    timing = clock.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    first_probe = timing["probes_s"][0]
    out = {
        "setup_end": setup_end,
        "setup_factor": NOMINAL_PROBE_S / ((args.probe_before + first_probe) / 2),
        "graphs": result.graphs,
        "ops": clock.ops,
        "failed_graphs": clock.failed_graphs,
        "checks_done": result.checks_done,
        "facts": result.facts,
        "digest": workloads.digest(result.text),
        "peak_rss_mb": peak_rss_mb,
        "cold_skipped": skipped,
        **timing,
    }
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.summary()
        if args.sidecar:
            tracer.write_sidecar(args.sidecar, {
                "workload": args.workload, "seed": args.seed, "rep": args.rep,
                "input_seed": seed, **out["trace"],
                "facts": result.facts})
    out["check"] = checks.check_output(args.workload, seed, args.rep == 0,
                                       result.text, sc)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
