"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

* The corpus generator's graph6 text parses with the program's
  ``parse_graph6`` to the same edge set, and re-emits byte for byte.
* Every count a traced repetition reports (calls, items yielded, Graph
  constructions, cache hit ratios, checks done) is identical across two
  traced repetitions of the same code on the same inputs.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import corpus  # noqa: E402
import workloads  # noqa: E402
from stingycolor import emit_graph6, parse_graph6  # noqa: E402


class Graph6RoundTrip(unittest.TestCase):
    def test_corpora_parse_to_the_generated_edges(self):
        lines = (workloads.report_sweep_inputs(3) + workloads.bound_claims_inputs(3)
                 + corpus.er_corpus(3, (0, 1, 2, 5, 11, 30, 62), 2))
        for line in lines:
            n, edges = corpus.graph6_to_edges(line)
            g = parse_graph6(line)
            self.assertEqual(g.n, n)
            self.assertEqual(sorted(g.edges()), sorted(edges))
            self.assertEqual(emit_graph6(g), line)

    def test_edge_sets_round_trip(self):
        rng = random.Random(5)
        for n in range(0, 63, 7):
            edges = corpus.er_edges(n, rng.random(), rng)
            line = corpus.edges_to_graph6(n, edges)
            self.assertEqual(sorted(parse_graph6(line).edges()), sorted(edges))

    def test_same_seed_same_corpus(self):
        self.assertEqual(workloads.bound_claims_inputs(9), workloads.bound_claims_inputs(9))
        self.assertNotEqual(workloads.bound_claims_inputs(9),
                            workloads.bound_claims_inputs(10))


def traced_repetition(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
         "--seed", "4", "--rep", "0", "--traced", "1", "--probe-before", "0.003"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TracedCountsRepeat(unittest.TestCase):
    def test_counts_identical_across_traced_runs(self):
        for workload in sorted(workloads.WORKLOADS):
            with self.subTest(workload=workload):
                runs = [traced_repetition(workload) for _ in range(2)]
                counts = [
                    (r["trace"]["calls"], r["trace"]["yielded"], r["trace"]["graph_builds"],
                     r["trace"]["hit_ratio"], r["checks_done"], r["facts"], r["digest"])
                    for r in runs]
                self.assertEqual(counts[0], counts[1])
                self.assertFalse(runs[0]["check"]["problems"])
                self.assertGreater(sum(counts[0][0].values()), 0)


if __name__ == "__main__":
    unittest.main()
