"""Pins of the branch-and-bound witnesses, as sha256 digests.

The kernels may be made faster, but every value and every witness they
return must stay the same: the reports print witnesses, and the coloring
streams and sampled colorings depend on them. Each digest covers every class
on n <= 6 plus seeded G(n, p) graphs with n = 7..11.
"""

import hashlib
import random

import pytest

from stingycolor import Guards, bounded_stats, er_random, one_optimal_coloring, stats
from stingycolor.coloring import _color_bb
from stingycolor.suites import exhaustive_graphs

GUARDS = Guards(optimal=11)
CAPS = (None, 1, 2, 3, 4)
RS = (1, 2, 3, 4)


def _graphs():
    graphs = list(exhaustive_graphs(0, 6))
    for n in range(7, 12):
        for i, p in enumerate((0.2, 0.35, 0.5, 0.65, 0.8)):
            graphs += [er_random(n, p, seed=10000 * n + 1000 * i + k) for k in range(104)]
    return graphs


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(repr(line).encode())
        h.update(b"\n")
    return h.hexdigest()


def _color_bb_lines(graphs):
    for g in graphs:
        for cap in CAPS:
            k, masks = _color_bb(g, cap)
            yield g.adj, cap, k, sorted(masks)


def _stats_lines(graphs):
    for g in graphs:
        st = stats(g, GUARDS)
        yield g.adj, st.chi, st.iota, st.stingy_witness.classes
        for r in RS:
            bs = bounded_stats(g, r, GUARDS)
            yield (g.adj, r, bs.chi_r, bs.m_r, bs.iota_r,
                   bs.m_witness.classes, bs.iota_witness.classes)


def _sampled_lines(cap=None):
    def lines(graphs):
        for s, g in enumerate(graphs):
            yield g.adj, one_optimal_coloring(g, cap, rng=random.Random(s)).classes
    return lines


PINS = {
    "color_bb": (_color_bb_lines,
                 "22eb0c3b9606e9df8c928ae71deb4bbbe39824c9c27b773348bc890ec22959ee"),
    "stats": (_stats_lines,
              "ff6a4b74b98a54cb87faeccfcdca4cb82ef40403d471ad65ea933f243ac41771"),
    "one_optimal_coloring": (_sampled_lines(),
                             "f5bc1a7f77b5fa93524805e99635d58344334ed9bdc2d25f97c90ee87fcd27f4"),
    "one_optimal_coloring[cap=2]": (
        _sampled_lines(2), "163fcf963b61bfdb8549d1aa9e32a7120037a913c51176f93285115d18bf31eb"),
    "one_optimal_coloring[cap=3]": (
        _sampled_lines(3), "0c2952d106f42aadc5ccbbc7c298abce4e2bd06ff1ceee25788e2e7628783527"),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_witness_pin(name):
    lines, want = PINS[name]
    assert _digest(lines(_graphs())) == want
