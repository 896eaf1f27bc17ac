"""The harness bites: results corrupted on one path fail the comparison.

The results are computed afresh on configuration 1 at one round (not
taken from the session's cache), once as they are and once with a
corruption planted in the path under test.
"""

from __future__ import annotations

import pytest

from repro.jackal.kernel import FrontierKernel
from repro.lts.engine import SearchTree
from repro.lts.trace import Trace
from tests.conformance import harness

CELL = harness.Cell("c1r1", "error2")


def _fresh(*paths) -> dict:
    got: dict = {}
    for path in paths:
        got[path] = harness.compute(path, CELL, got)
    return got


def test_uncorrupted_results_agree():
    got = _fresh("scalar", "explore_fast", "search_tree", "certified")
    for path in got:
        harness.compare(path, CELL, got)


def test_a_candidate_dropped_from_a_kernel_level_is_caught(monkeypatch):
    expand = FrontierKernel.expand
    dropped = []

    def dropping(self, rows):
        succ, src_pos, lids = expand(self, rows)
        if not dropped and len(lids) > 1:
            dropped.append(lids[-1])
            return succ[:-1], src_pos[:-1], lids[:-1]
        return succ, src_pos, lids

    monkeypatch.setattr(FrontierKernel, "expand", dropping)
    got = _fresh("scalar", "explore_fast")
    assert dropped
    with pytest.raises(AssertionError):
        harness.compare("explore_fast", CELL, got)


def test_a_flipped_certified_verdict_is_caught():
    got = _fresh("explore_fast", "certified")
    report = got["certified"]["reports"]["3.1"]
    report.holds = not report.holds
    with pytest.raises(AssertionError):
        harness.compare("certified", CELL, got)


def test_two_swapped_trace_steps_are_caught(monkeypatch):
    trace_to = SearchTree.trace_to
    swapped = []

    def swapping(self, targets):
        trace = trace_to(self, targets)
        if trace is not None and len(set(trace.labels[:2])) == 2:
            swapped.append(trace)
            first, second, *rest = trace.labels
            trace = Trace((second, first, *rest))
        return trace

    monkeypatch.setattr(SearchTree, "trace_to", swapping)
    got = _fresh("explore_fast", "search_tree")
    assert swapped
    with pytest.raises(AssertionError):
        harness.compare("search_tree", CELL, got)
