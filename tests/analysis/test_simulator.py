"""Tests for the ``Simulator`` shim: its ``run`` is ``replay``, so a
label prefix is refused like any label that is not enabled."""

import pytest

from repro.analysis.simulator import Simulator
from repro.errors import TraceError
from repro.jackal.model import JackalModel
from repro.jackal.params import CONFIG_1, ProtocolVariant
from repro.lts.trace import replay


@pytest.fixture
def sim(chain_system):
    return Simulator(chain_system)


def test_initial(sim):
    assert sim.run([]).states == (0,)


def test_step_by_label(sim):
    assert sim.run(["a"]).final_state == 1


def test_step_by_prefix():
    # a trace is evidence only if it replays label for label
    s = Simulator(JackalModel(CONFIG_1, ProtocolVariant.fixed()))
    with pytest.raises(TraceError, match="step 1: label 'write\\(t0' not enabled"):
        s.run(["write(t0", "lock_s"])


def test_bad_choices(sim):
    with pytest.raises(TraceError, match="not enabled"):
        sim.run(["zz"])


def test_ambiguous_prefix():
    # write(t0) and write(t1) share the prefix; neither is taken
    s = Simulator(JackalModel(CONFIG_1, ProtocolVariant.fixed()))
    with pytest.raises(TraceError, match="not enabled"):
        s.run(["write"])


def test_terminal_state(sim):
    with pytest.raises(TraceError, match="step 2: label 'a' not enabled"):
        sim.run(["b", "a"])  # b leads to state 3, which is terminal


def test_history(sim, chain_system):
    h = sim.run(["a", "b"])
    assert h.labels == ("a", "b")
    assert h.states == (0, 1, 2)
    assert h == replay(chain_system, ["a", "b"])
