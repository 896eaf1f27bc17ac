"""Whole-state-space invariants of the fixed protocol.

These sweep every reachable state of small configurations and assert
structural properties the informal description promises — the
reproduction of the paper's Requirement 2 methodology at the model
level.
"""

import dataclasses

import pytest

from repro.jackal.model import VIOLATION, JackalModel, Msg, Phase
from repro.jackal.params import CONFIG_1, CONFIG_2, Config, ProtocolVariant
from repro.lts.explore import explore

CONFIGS = [
    dataclasses.replace(CONFIG_1, with_probes=False),
    dataclasses.replace(CONFIG_1, rounds=2, with_probes=False),
    dataclasses.replace(CONFIG_2, with_probes=False),
]


def sweep(config: Config, variant=ProtocolVariant.fixed()):
    model = JackalModel(config, variant)
    lts = explore(model, max_states=400_000, keep_states=True)
    for state in lts.state_meta.values():
        if state == VIOLATION:
            continue
        yield model, state


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.describe())
def test_at_most_one_home(config):
    for model, state in sweep(config):
        copies = state[1]
        for r in range(model.n_regions):
            homes = [p for p in range(model.n_proc) if copies[p][r][0] == p]
            assert len(homes) <= 1, model.decode_state(state)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.describe())
def test_writerlist_only_at_home(config):
    for model, state in sweep(config):
        copies = state[1]
        for p in range(model.n_proc):
            for r in range(model.n_regions):
                home, _rs, wl, _lt = copies[p][r]
                if home != p:
                    assert wl == 0, model.decode_state(state)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.describe())
def test_localthreads_bounded(config):
    for model, state in sweep(config):
        copies = state[1]
        for p in range(model.n_proc):
            n_local = len(model.threads_on[p])
            for r in range(model.n_regions):
                lt = copies[p][r][3]
                assert 0 <= lt <= n_local


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.describe())
def test_lock_holders_match_thread_phases(config):
    have_phase = {
        0: (Phase.HAVE_SERVER,),  # server slot
        2: (Phase.HAVE_FAULT, Phase.WAIT_DATA, Phase.REMOTE_READY),
        4: (Phase.HAVE_FLUSH,),
    }
    for model, state in sweep(config):
        threads, _c, _hq, _rq, _hqa, _rqa, locks, _m = state
        for p in range(model.n_proc):
            for slot, phases in have_phase.items():
                holder = locks[p][slot]
                if holder:
                    tid = holder - 1
                    assert model.pid_of[tid] == p
                    assert threads[tid][0] in phases, model.decode_state(state)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.describe())
def test_mutual_exclusions_of_locks(config):
    for model, state in sweep(config):
        locks = state[6]
        for p in range(model.n_proc):
            sh, _sw, fh, _fw, lh, _lw = locks[p]
            # server/flush and fault/flush mutually exclusive (paper 5.2.4)
            assert not (sh and lh)
            assert not (fh and lh)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.describe())
def test_waiting_threads_are_in_want_phase(config):
    want_phase = {1: Phase.WANT_SERVER, 3: Phase.WANT_FAULT, 5: Phase.WANT_FLUSH}
    for model, state in sweep(config):
        threads, _c, _hq, _rq, _hqa, _rqa, locks, _m = state
        for p in range(model.n_proc):
            for slot, phase in want_phase.items():
                mask = locks[p][slot]
                for tid in JackalModel._bits(mask):
                    assert threads[tid][0] == phase
                    assert model.pid_of[tid] == p


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.describe())
def test_messages_well_formed(config):
    for model, state in sweep(config):
        _t, _c, hq, rq, _hqa, _rqa, _l, _m = state
        for p in range(model.n_proc):
            m = hq[p]
            if m != 0:
                assert m[0] in (Msg.REQ, Msg.FLUSH)
            m = rq[p]
            if m != 0:
                assert m[0] == Msg.RET
                # a Data Return is always for a local waiting thread
                tid = m[1]
                assert model.pid_of[tid] == p


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.describe())
def test_handler_holds_well_formed_message(config):
    for model, state in sweep(config):
        _t, _c, hq, rq, hqa, rqa, _l, _m = state
        for p in range(model.n_proc):
            if hqa[p] != 0:
                # migrations never pass through the handler: they are
                # absorbed eagerly from their dedicated slot
                assert hqa[p][0] in (Msg.REQ, Msg.FLUSH)
            if rqa[p] != 0:
                assert rqa[p][0] == Msg.RET
                assert model.pid_of[rqa[p][1]] == p


def test_dirty_thread_has_positive_localthreads():
    config = CONFIGS[0]
    for model, state in sweep(config):
        threads, copies, *_ = state
        for tid in range(model.n_threads):
            ph, _reg, _aho, _w, _rounds, dirty = threads[tid]
            p = model.pid_of[tid]
            for r in range(model.n_regions):
                if dirty >> r & 1:
                    assert copies[p][r][3] >= 1


def test_no_assertion_violations_reachable_fixed():
    for config in CONFIGS:
        model = JackalModel(config, ProtocolVariant.fixed())
        lts = explore(model, max_states=400_000, keep_states=True)
        for state in lts.state_meta.values():
            assert state != VIOLATION


VARIANTS = [
    ProtocolVariant.fixed(),
    ProtocolVariant.error1(),
    ProtocolVariant.error2(),
    ProtocolVariant.buggy(),
    ProtocolVariant.no_migration(),
    ProtocolVariant.alf(),
]


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.describe())
def test_at_most_one_home_across_variants(variant):
    # even the buggy variants never create TWO homes (Error 2 loses it)
    config = dataclasses.replace(CONFIG_1, rounds=2, with_probes=False)
    for model, state in sweep(config, variant):
        copies = state[1]
        for r in range(model.n_regions):
            homes = [p for p in range(model.n_proc) if copies[p][r][0] == p]
            assert len(homes) <= 1, model.decode_state(state)


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.describe())
def test_lock_exclusions_across_variants(variant):
    config = dataclasses.replace(CONFIG_1, rounds=2, with_probes=False)
    for model, state in sweep(config, variant):
        locks = state[6]
        for p in range(model.n_proc):
            sh, _sw, fh, _fw, lh, _lw = locks[p]
            assert not (sh and lh)
            assert not (fh and lh)


def test_alf_variant_invariants():
    config = dataclasses.replace(CONFIG_2, rounds=1, with_probes=False)
    for model, state in sweep(config, ProtocolVariant.alf()):
        threads, copies, *_ = state
        for p in range(model.n_proc):
            for r in range(model.n_regions):
                home, _rs, wl, lt = copies[p][r]
                if home != p:
                    assert wl == 0
                assert 0 <= lt <= model.n_threads
