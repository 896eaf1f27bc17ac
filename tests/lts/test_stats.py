"""Tests for LTS statistics."""

from repro.lts.lts import TAU
from repro.lts.stats import lts_summary
from tests.oracles import lts_of


def test_summary(small_lts):
    s = lts_summary(small_lts)
    assert s.states == 4
    assert s.transitions == 4
    assert s.labels == 4
    assert s.tau_transitions == 0
    assert s.terminal_states == 1
    assert s.avg_out_degree == 1.0
    assert s.max_out_degree == 2


def test_summary_tau():
    l = lts_of([(0, TAU, 1), (1, "a", 0)])
    s = lts_summary(l)
    assert s.tau_transitions == 1
    assert s.terminal_states == 0


def test_summary_empty():
    s = lts_summary(lts_of([]))
    assert s.states == 0
    assert s.avg_out_degree == 0.0
    assert s.max_out_degree == 0


def test_as_row(small_lts):
    row = lts_summary(small_lts).as_row()
    assert row["states"] == 4
    assert row["avg_deg"] == 1.0

