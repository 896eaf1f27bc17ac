"""Tests for deadlock detection and shortest traces."""

import pytest

from repro.errors import ReproError
from repro.lts.deadlock import find_deadlocks, shortest_trace_to
from repro.lts.explore import explore
from tests.oracles import lts_of


def test_no_deadlock_in_cycle():
    l = lts_of([(0, "a", 1), (1, "b", 0)])
    rep = find_deadlocks(l)
    assert rep.deadlock_free
    assert rep.summary().startswith("deadlock free")


def test_simple_deadlock(small_lts):
    rep = find_deadlocks(small_lts)
    assert not rep.deadlock_free
    assert rep.deadlocks == [3]
    assert rep.shortest_trace.labels == ("a", "d")
    assert "2 transitions" in rep.summary()


def test_probe_labels_do_not_mask():
    l = lts_of([(0, "a", 1), (1, "probe", 1)])
    rep = find_deadlocks(l, ignore_labels=["probe"])
    assert rep.deadlocks == [1]


def test_valid_end_predicate(chain_system):
    l = explore(chain_system, keep_states=True)
    # state 3 is terminal; accept it as proper termination
    rep = find_deadlocks(l, is_valid_end=lambda meta: meta == 3)
    assert rep.deadlock_free
    assert len(rep.terminal_ok) == 1


def test_valid_end_without_meta_is_an_error(small_lts):
    # no metadata stored: the predicate cannot be evaluated, and a
    # terminal state is neither a deadlock nor a proper end
    with pytest.raises(ReproError, match="keep_states=True"):
        find_deadlocks(small_lts, is_valid_end=lambda meta: True)
    # without a predicate every terminal state is a deadlock
    assert find_deadlocks(small_lts).deadlocks == [3]


def test_shortest_trace_to():
    l = lts_of([(0, "long1", 1), (1, "long2", 2), (0, "short", 2)])
    t = shortest_trace_to(l, [2])
    assert t.labels == ("short",)


def test_shortest_trace_to_initial(small_lts):
    assert shortest_trace_to(small_lts, [0]).labels == ()


def test_shortest_trace_unreachable():
    l = lts_of([(0, "a", 1)], n_states=3)
    assert shortest_trace_to(l, [2]) is None
    assert shortest_trace_to(l, []) is None


def test_shortest_trace_is_shortest(small_lts):
    # to state 3: a.d is the only path, length 2
    assert len(shortest_trace_to(small_lts, [3])) == 2


# -- edge paths: empty LTS, deadlock at state 0, violation sinks ------------


def test_empty_lts_deadlocks_at_state_zero():
    """An LTS with only its initial state is one big deadlock."""
    l = lts_of([], n_states=1)
    rep = find_deadlocks(l)
    assert not rep.deadlock_free
    assert rep.deadlocks == [0]
    # the error trace is the empty trace: we are already stuck
    assert rep.shortest_trace is not None
    assert len(rep.shortest_trace) == 0


def test_empty_lts_with_valid_end_meta_is_proper_termination():
    l = lts_of([], n_states=1)
    l.state_meta[0] = {"done": True}
    rep = find_deadlocks(l, is_valid_end=lambda meta: meta["done"])
    assert rep.deadlock_free
    assert rep.terminal_ok == [0]


def test_zero_state_lts_reports_nothing():
    """A degenerate LTS with no states at all has no deadlocks."""
    l = lts_of([])
    rep = find_deadlocks(l)
    assert rep.deadlock_free
    assert rep.deadlocks == []


def test_shortest_trace_to_empty_targets_is_none(small_lts):
    assert shortest_trace_to(small_lts, []) is None


def test_shortest_trace_into_violation_sink():
    """Requirement-2 style: trace ends at the assertion-violation sink."""
    l = lts_of([
        (0, "write(t0)", 1),
        (1, "assertion_violation(unexpected_data_return)", 2),
        (1, "writeover(t0)", 0),
    ])
    sinks = [
        s
        for s in range(l.n_states)
        if any(
            t.src == s and t.label.startswith("assertion_violation")
            for t in l.transitions()
        )
    ]
    trace = shortest_trace_to(l, sinks)
    assert trace is not None
    assert list(trace) == ["write(t0)"]
    rep = find_deadlocks(l)
    assert rep.deadlocks == [2]
    assert list(rep.shortest_trace) == [
        "write(t0)",
        "assertion_violation(unexpected_data_return)",
    ]
