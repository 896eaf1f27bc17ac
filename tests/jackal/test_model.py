"""Tests for the protocol state machine basics."""

import dataclasses

import pytest

from repro.jackal.actions import PROBE_LABELS, Labels
from repro.jackal.model import VIOLATION, JackalModel, Msg, Phase, RegionState
from repro.jackal.params import CONFIG_1, CONFIG_2, Config, ProtocolVariant
from repro.lts.explore import explore


@pytest.fixture
def model():
    return JackalModel(CONFIG_1, ProtocolVariant.fixed())


def test_initial_state_shape(model):
    s = model.initial_state()
    threads, copies, hq, rq, hqa, rqa, locks, migs = s
    assert len(threads) == 2
    assert all(th[0] == Phase.IDLE for th in threads)
    assert copies[0][0] == (0, RegionState.UNUSED, 0, 0)
    assert copies[1][0] == (0, RegionState.UNUSED, 0, 0)
    assert hq == (0, 0) and rq == (0, 0)
    assert locks == ((0, 0, 0, 0, 0, 0),) * 2


def test_initial_moves(model):
    labels = {l for l, _ in model.successors(model.initial_state())}
    # both threads can start a write; plus the probes
    assert Labels.write(0) in labels
    assert Labels.write(1) in labels
    assert "homequeue_empty" in labels
    assert "lock_empty" in labels


def test_probes_are_self_loops(model):
    s = model.initial_state()
    for label, nxt in model.successors(s):
        if label in PROBE_LABELS:
            assert nxt == s


def test_probes_can_be_disabled():
    cfg = dataclasses.replace(CONFIG_1, with_probes=False)
    m = JackalModel(cfg, ProtocolVariant.fixed())
    labels = {l for l, _ in m.successors(m.initial_state())}
    assert not labels & set(PROBE_LABELS)


def test_successors_deterministic(model):
    s = model.initial_state()
    assert model.successors(s) == model.successors(s)


def test_states_hashable(model):
    seen = set()
    s = model.initial_state()
    frontier = [s]
    for _ in range(3):
        nxt = []
        for st in frontier:
            for _l, d in model.successors(st):
                if d not in seen:
                    seen.add(d)
                    nxt.append(d)
        frontier = nxt
    assert len(seen) > 2


def test_violation_is_terminal(model):
    assert model.successors(VIOLATION) == []
    assert not model.is_done_state(VIOLATION)


def test_is_done_state(model):
    s = model.initial_state()
    assert not model.is_done_state(s)  # rounds pending
    threads, *rest = s
    done_threads = tuple(
        (int(Phase.IDLE), 0, 0, 0, 0, 0) for _ in threads
    )
    assert model.is_done_state((done_threads, *rest))


def test_decode_state(model):
    d = model.decode_state(model.initial_state())
    assert d["threads"][0]["phase"] == "IDLE"
    assert d["threads"][1]["pid"] == 1
    assert d["copies"][0][0]["home"] == 0
    assert d["copies"][0][0]["state"] == "UNUSED"
    assert d["homequeue"] == [None, None]
    assert model.decode_state(VIOLATION) == {"violation": True}


def test_decode_message_kinds(model):
    s = model.initial_state()
    threads, copies, hq, rq, hqa, rqa, locks, migs = s
    msg = (int(Msg.REQ), 0, 0, 0)
    d = model.decode_state(
        (threads, copies, (0, msg), rq, hqa, rqa, locks, migs)
    )
    assert d["homequeue"][1][0] == "REQ"


def test_write_goes_server_path_at_home(model):
    s = model.initial_state()
    # thread 0 lives on processor 0, the initial home
    (nxt,) = [d for l, d in model.successors(s) if l == Labels.write(0)]
    threads = nxt[0]
    assert threads[0][0] == Phase.WANT_SERVER
    # and it is registered as a server-lock waiter
    assert nxt[6][0][1] == 1  # srv_wait bitmask on p0 contains t0


def test_write_goes_fault_path_remote(model):
    s = model.initial_state()
    (nxt,) = [d for l, d in model.successors(s) if l == Labels.write(1)]
    threads = nxt[0]
    assert threads[1][0] == Phase.WANT_FAULT
    assert nxt[6][1][3] == 2  # flt_wait bitmask on p1 contains t1


def test_multi_region_config():
    cfg = Config(threads_per_processor=(1, 1), n_regions=2)
    m = JackalModel(cfg, ProtocolVariant.fixed())
    l = explore(m)
    assert l.n_states > 300  # strictly more behaviour than one region
    # writes may target either region
    labels = {lab for lab, _ in m.successors(m.initial_state())}
    assert Labels.write(0) in labels


def test_rounds_none_is_cyclic():
    cfg = dataclasses.replace(CONFIG_1, rounds=None, with_probes=False)
    m = JackalModel(cfg, ProtocolVariant.fixed())
    l = explore(m)
    assert l.deadlock_states() == []  # cyclic: no terminal states


def test_writes_per_round_uses_local_path():
    cfg = dataclasses.replace(CONFIG_1, writes_per_round=2, with_probes=False)
    m = JackalModel(cfg, ProtocolVariant.fixed())
    # a second write to a still-dirty region goes through Phase.LOCAL
    from repro.lts.explore import explore

    lts = explore(m, max_states=100_000, keep_states=True)
    assert any(
        any(th[0] == Phase.LOCAL for th in state[0])
        for state in lts.state_meta.values()
        if state != VIOLATION
    )
