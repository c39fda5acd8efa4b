"""Outside-in tracing of the stingycolor layers.

``Tracer.install`` wraps each traced function once and rebinds every module
of the package that holds the original, so a call is counted once whichever
module it goes through. Nothing inside ``src/`` changes. A span is recorded
per wrapped call: (id, name, start, end, parent id, trace id). A generator is
one span whose busy time is the sum of its resumptions, so work the consumer
does between two items is not charged to it; the number of items it yields
is counted too. Self time is busy time minus the busy time of child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute): functions wrapped in a traced run.
TRACED = (
    ("graphs", "all_graphs"),
    ("graphs", "parse_graph6"),
    ("graphs", "invariants"),
    ("graphs", "max_clique_mask"),
    ("graphs", "matching_number"),
    ("coloring", "chromatic_number"),
    ("coloring", "stats"),
    ("coloring", "bounded_stats"),
    ("coloring", "one_optimal_coloring"),
    ("coloring", "enumerate_optimal_colorings"),
    ("coloring", "enumerate_colorings"),
    ("coloring", "is_frame_property"),
    ("coloring", "is_singleton_friendly"),
    ("coloring", "chi_p"),
    ("coloring", "enumerate_p_optimal"),
    ("lonely", "verify_lonely_path_lemma"),
    ("lonely", "verify_touches_lemma"),
    ("lonely", "verify_replete_lemma"),
    ("lonely", "doubly_critical_edges"),
    ("lonely", "enumerate_lonely_path_pairs"),
    ("bounds", "full_report"),
    ("bounds", "evaluate_bounds"),
    ("bounds", "evaluate_generalized"),
    ("suites", "suite_lonely_path"),
)

# Memoized kernels: the cold-state guard and the hit ratios read their
# cache_info(). Each maps to the traced layer name its ratio is reported under.
CACHES = {
    ("graphs", "all_graphs"): "graphs.all_graphs",
    ("graphs", "max_clique_mask"): "graphs.max_clique_mask",
    ("graphs", "matching_number"): "graphs.matching_number",
    ("coloring", "_chi_cached"): "coloring.chromatic_number",
    ("coloring", "_stats_cached"): "coloring.stats",
    ("coloring", "_bounded_cached"): "coloring.bounded_stats",
}

PACKAGE = "stingycolor"


def package_attr(module: str, attr: str):
    """``stingycolor.<module>.<attr>``, or None if the program no longer has it."""
    mod = sys.modules.get(f"{PACKAGE}.{module}")
    return getattr(mod, attr, None) if mod is not None else None


def rebind(original, replacement) -> list[tuple]:
    """Point every package module attribute that holds ``original`` at
    ``replacement``; returns (module, name, original) triples to undo it."""
    undo = []
    for key, mod in list(sys.modules.items()):
        if key != PACKAGE and not key.startswith(PACKAGE + "."):
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)
                undo.append((mod, name, original))
    return undo


def restore(undo: list[tuple]):
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


def cold_cache_violations() -> tuple[list[str], list[str]]:
    """(warm, missing): memoized kernels holding entries, and kernels that
    no longer expose cache_info() and were skipped."""
    warm, missing = [], []
    for (module, attr) in CACHES:
        fn = package_attr(module, attr)
        if fn is None or not hasattr(fn, "cache_info"):
            missing.append(f"{module}.{attr}")
        elif fn.cache_info().currsize:
            warm.append(f"{module}.{attr}")
    return warm, missing


class _Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "trace_id", "busy", "child")

    def __init__(self, sid, name, start, parent, trace_id):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.trace_id = trace_id
        self.busy = 0.0
        self.child = 0.0


class Tracer:
    """Spans, counts and self times of one run; state lives on the instance."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[_Span] = []
        self.calls: Counter = Counter()
        self.yielded: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.graph_builds = 0
        self.trace_id: int | None = None
        self.unmeasured: list[str] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> _Span:
        parent = self.stack[-1].sid if self.stack else None
        span = _Span(self._next_id, name, time.perf_counter(), parent, self.trace_id)
        self._next_id += 1
        return span

    def _run(self, span: _Span, step):
        """Run ``step()`` as one busy interval of ``span``."""
        self.stack.append(span)
        began = time.perf_counter()
        try:
            return step()
        finally:
            ended = time.perf_counter()
            self.stack.pop()
            span.busy += ended - began
            span.end = ended
            if self.stack:
                self.stack[-1].child += ended - began

    def _finish(self, span: _Span):
        self.self_s[span.name] += span.busy - span.child
        self.spans.append((span.sid, span.name, span.start, span.end,
                           span.parent, span.trace_id))

    # -- wrappers ----------------------------------------------------------

    def _wrap_call(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            span = tracer._open(name)
            try:
                return tracer._run(span, lambda: fn(*args, **kwargs))
            finally:
                tracer._finish(span)

        return traced

    def _wrap_generator(self, name, fn):
        tracer = self
        done = object()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            inner = fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                while True:
                    item = tracer._run(span, lambda: next(inner, done))
                    if item is done:
                        return
                    tracer.yielded[name] += 1
                    yield item
            finally:
                inner.close()
                tracer._finish(span)

        return traced

    def install(self):
        """Wrap every function in TRACED and count Graph constructions."""
        for module, attr in TRACED:
            original = package_attr(module, attr)
            if original is None:
                self.unmeasured.append(f"{module}.{attr}")
                continue
            name = f"{module}.{attr}"
            wrap = (self._wrap_generator if inspect.isgeneratorfunction(original)
                    else self._wrap_call)
            self._restore += rebind(original, wrap(name, original))
        graph = package_attr("graphs", "Graph")
        post_init = getattr(graph, "__post_init__", None)
        if post_init is None:
            self.unmeasured.append("graphs.Graph.__post_init__")
            return
        tracer = self

        @functools.wraps(post_init)
        def counted(obj):
            tracer.graph_builds += 1
            post_init(obj)

        graph.__post_init__ = counted
        self._restore.append((graph, "__post_init__", post_init))

    def uninstall(self):
        restore(self._restore)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def hit_ratios(self) -> dict[str, float | None]:
        out = {}
        for (module, attr), layer in CACHES.items():
            fn = package_attr(module, attr)
            if fn is None or not hasattr(fn, "cache_info"):
                continue
            info = fn.cache_info()
            total = info.hits + info.misses
            out[layer] = info.hits / total if total else None
        return out

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "yielded": dict(self.yielded),
            "self_s": dict(self.self_s),
            "graph_builds": self.graph_builds,
            "hit_ratio": self.hit_ratios(),
            "unmeasured": self.unmeasured,
            "spans": len(self.spans),
        }

    def write_sidecar(self, path: str, header: dict):
        """One header line (counts, hit ratios, run facts), then one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for sid, name, start, end, parent, trace_id in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "trace": trace_id}) + "\n")
