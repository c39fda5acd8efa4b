"""Seeded Erdos-Renyi corpora written as graph6 text.

Standard library only and independent of the ``stingycolor`` package, so a
change to the program under test cannot change the benchmark's inputs.

A cell (n, p) draws from G(n, M) with M = round(p * n(n-1)/2): uniform over
graphs with exactly M edges. Under G(n, p) the edge count alone moves the
cost of a sparse graph on 8 vertices by 5x, which made per-graph latency
percentiles jump between seeds; fixing M keeps each cell's cost tight.
"""

from __future__ import annotations

import random

DENSITIES = (0.2, 0.5, 0.8)


def _pairs(n: int):
    """Vertex pairs in graph6 bit order: columns j = 1..n-1, rows i < j."""
    for j in range(1, n):
        for i in range(j):
            yield i, j


def edges_to_graph6(n: int, edges) -> str:
    """graph6 text for an ``n``-vertex graph (n <= 62) given as vertex pairs."""
    if not 0 <= n <= 62:
        raise ValueError("short graph6 form holds 0..62 vertices")
    present = {(min(u, v), max(u, v)) for u, v in edges}
    out = [chr(n + 63)]
    acc = filled = 0
    for pair in _pairs(n):
        acc = acc << 1 | (pair in present)
        filled += 1
        if filled == 6:
            out.append(chr(acc + 63))
            acc = filled = 0
    if filled:
        out.append(chr((acc << (6 - filled)) + 63))
    return "".join(out)


def graph6_to_edges(text: str) -> tuple[int, list[tuple[int, int]]]:
    """(n, edges) of a short-form graph6 line; the inverse of edges_to_graph6."""
    vals = [ord(ch) - 63 for ch in text.strip()]
    n = vals[0]
    if not 0 <= n <= 62 or any(not 0 <= v < 64 for v in vals):
        raise ValueError(f"not a short-form graph6 line: {text!r}")
    body = vals[1:]
    edges = []
    for t, pair in enumerate(_pairs(n)):
        if body[t // 6] >> (5 - t % 6) & 1:
            edges.append(pair)
    return n, edges


def er_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """A uniform sample of round(p * n(n-1)/2) distinct vertex pairs."""
    pairs = list(_pairs(n))
    return rng.sample(pairs, round(p * len(pairs)))


def er_corpus(seed: int, ns, per_cell: int,
              densities=DENSITIES) -> list[str]:
    """``per_cell`` graph6 lines for every (n, p) in ns x densities, in that order."""
    rng = random.Random(f"perfbench-er-{seed}")
    return [
        edges_to_graph6(n, er_edges(n, p, rng))
        for n in ns
        for p in densities
        for _ in range(per_cell)
    ]
