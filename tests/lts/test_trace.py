"""Tests for traces and replay."""

import pytest

from repro.errors import TraceError
from repro.lts.trace import Trace, replay


def test_trace_basics():
    t = Trace(("a", "b", "a"))
    assert len(t) == 3
    assert list(t) == ["a", "b", "a"]
    assert t.count("a") == 2


def test_trace_state_annotation_mismatch():
    with pytest.raises(TraceError):
        Trace(("a",), (0,))


def test_trace_final_state():
    t = Trace(("a",), (0, 1))
    assert t.final_state == 1
    with pytest.raises(TraceError):
        Trace(("a",)).final_state


def test_prefix():
    t = Trace(("a", "b", "c", "b"), (0, 1, 2, 3, 4))
    p = t.prefix(2)
    assert p.labels == ("a", "b")
    assert p.states == (0, 1, 2)


def test_format():
    t = Trace(("x", "y"))
    assert t.format() == "1. x\n2. y"
    assert t.format(numbered=False) == "x\ny"


def test_replay(chain_system):
    t = replay(chain_system, ["a", "b", "c", "a"])
    assert t.states == (0, 1, 2, 0, 1)


def test_replay_not_enabled(chain_system):
    with pytest.raises(TraceError, match="not enabled"):
        replay(chain_system, ["b", "b"])


def test_replay_ambiguous():
    class Amb:
        def initial_state(self):
            return 0

        def successors(self, s):
            return [("a", 1), ("a", 2)] if s == 0 else []

    with pytest.raises(TraceError, match="ambiguous"):
        replay(Amb(), ["a"])


def test_replay_duplicate_same_target_ok():
    class Dup:
        def initial_state(self):
            return 0

        def successors(self, s):
            return [("a", 1), ("a", 1)] if s == 0 else []

    t = replay(Dup(), ["a"])
    assert t.final_state == 1


# -- edge paths ------------------------------------------------------------


def test_empty_trace():
    t = Trace(())
    assert len(t) == 0
    assert list(t) == []
    assert t.format() == ""
    assert t.prefix(3).labels == ()
    with pytest.raises(TraceError):
        t.final_state


def test_empty_trace_with_initial_state_annotation():
    t = Trace((), (42,))
    assert t.final_state == 42


def test_replay_empty_sequence(chain_system):
    t = replay(chain_system, [])
    assert t.labels == ()
    assert t.states == (0,)
    assert t.final_state == 0


def test_replay_into_violation_sink():
    class ViolationSystem:
        def initial_state(self):
            return 0

        def successors(self, s):
            return {
                0: [("write(t0)", 1)],
                1: [("assertion_violation(x)", 2)],
                2: [],
            }[s]

    t = replay(
        ViolationSystem(), ["write(t0)", "assertion_violation(x)"]
    )
    assert t.final_state == 2
    assert t.count("assertion_violation(x)") == 1
    # the sink is terminal: any further label errors out
    with pytest.raises(TraceError, match="not enabled"):
        replay(
            ViolationSystem(),
            ["write(t0)", "assertion_violation(x)", "write(t0)"],
        )


def test_prefix_keeps_state_alignment():
    t = Trace(("a", "b"), (0, 1, 2))
    p = t.prefix(1)
    assert p.labels == ("a",)
    assert p.states == (0, 1)
    assert p.final_state == 1
