"""Tests for the scriptable simulator."""

import pytest

from repro.analysis.simulator import Simulator
from repro.errors import TraceError
from repro.jackal.model import JackalModel
from repro.jackal.params import CONFIG_1, ProtocolVariant


@pytest.fixture
def sim(chain_system):
    return Simulator(chain_system)


def test_initial(sim):
    assert sim.state == 0
    assert sim.depth() == 0
    assert sorted(sim.enabled_labels()) == ["a", "b"]


def test_step_by_label(sim):
    assert sim.step("a") == "a"
    assert sim.state == 1
    assert sim.depth() == 1


def test_step_by_index(sim):
    sim.step(0)
    assert sim.state in (1, 3)


def test_step_by_prefix():
    m = JackalModel(CONFIG_1, ProtocolVariant.fixed())
    s = Simulator(m)
    taken = s.step("write(t0")
    assert taken == "write(t0)"


def test_bad_choices(sim):
    with pytest.raises(TraceError, match="out of range"):
        sim.step(9)
    with pytest.raises(TraceError, match="not enabled"):
        sim.step("zz")


def test_ambiguous_prefix():
    m = JackalModel(CONFIG_1, ProtocolVariant.fixed())
    s = Simulator(m)
    with pytest.raises(TraceError, match="ambiguous"):
        s.step("write")  # write(t0) and write(t1)


def test_terminal_state(sim):
    sim.step("b")  # to state 3, terminal
    with pytest.raises(TraceError, match="terminal"):
        sim.step(0)


def test_undo_and_reset(sim):
    sim.run(["a", "b", "c"])
    assert sim.depth() == 3
    sim.undo()
    assert sim.depth() == 2 and sim.state == 2
    sim.undo(2)
    assert sim.depth() == 0 and sim.state == 0
    with pytest.raises(TraceError):
        sim.undo()
    sim.run(["a", "b"])
    sim.undo(sim.depth())  # back to the initial state
    assert sim.depth() == 0 and sim.state == 0


def test_history(sim):
    sim.run(["a", "b"])
    h = sim.history()
    assert h.labels == ("a", "b")
    assert h.states == (0, 1, 2)


def test_describe_plain(sim):
    assert sim.describe() == "0"


def test_describe_decodes_protocol_state():
    m = JackalModel(CONFIG_1, ProtocolVariant.fixed())
    s = Simulator(m)
    d = s.describe()
    assert isinstance(d, dict) and "threads" in d
