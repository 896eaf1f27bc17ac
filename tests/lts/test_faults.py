"""Tests for crash detection, batch re-dispatch, and fault injection.

The acceptance bar for the fault-tolerant coordinator: a sweep that
loses workers mid-run must report state/transition totals identical to
the fault-free serial sweep, and a coordinator facing dead workers must
return or raise within the poll interval instead of hanging. Wall-clock
guards are asserted directly (no pytest-timeout dependency).
"""

import time

import pytest

from repro.errors import ExplorationLimitError, ReproError, WorkerFailureError
from repro.lts.distributed import distributed_explore
from repro.lts.explore import explore
from repro.lts.faults import FaultPlan, WorkerFault
from repro.lts.reduction import minimize_strong
from tests.lts.systems import Diamond, jackal


# -- FaultPlan parsing ------------------------------------------------------


def test_fault_plan_parse():
    plan = FaultPlan.parse("kill:0@2, delay:1@0.05,raise:2@3")
    assert plan.kill == {0: 2}
    assert plan.delay == {1: 0.05}
    assert plan.raise_in == {2: 3}
    assert plan.for_worker(0) == WorkerFault(kill_after=2)
    assert plan.for_worker(1) == WorkerFault(delay=0.05)
    assert plan.for_worker(2) == WorkerFault(raise_at=3)
    assert plan.for_worker(3) is None


@pytest.mark.parametrize(
    "bad",
    [
        "kill", "kill:x@2", "fry:0@1", "kill:0", "delay:1@fast",
        "kill:-1@2",
        # negative/non-finite arguments must be parse errors, not
        # in-worker failures (time.sleep(-1) would fake a crash)
        "delay:0@-1", "delay:0@nan", "delay:0@inf",
        "kill:0@-2", "raise:1@-1",
    ],
)
def test_fault_plan_parse_rejects_garbage(bad):
    with pytest.raises(ReproError):
        FaultPlan.parse(bad)


def test_bad_poll_and_batch_arguments():
    with pytest.raises(ValueError):
        distributed_explore(Diamond(4), poll_interval=0.0)
    with pytest.raises(ValueError):
        distributed_explore(Diamond(4), batch_size=0)


# -- the compact acknowledged-key ledger ------------------------------------


def test_ack_ledger_add_bytes_matches_codec_wire_format():
    from repro.lts.distributed import _AckLedger
    from repro.lts.shmring import pack_keys

    led = _AckLedger(width=4)
    led.add_bytes(pack_keys([5, 1 << 24], 4))     # straight append
    led.add_bytes(pack_keys([7, 5], 4))
    assert led.nbytes == 16
    assert led.to_set() == {5, 1 << 24, 7}
    led.clear()
    assert led.to_set() == set()
    with pytest.raises(ValueError):
        _AckLedger(width=0)


# -- crash recovery ---------------------------------------------------------


@pytest.mark.slow
def test_kill_one_worker_recovers_exact_counts():
    sys_ = Diamond(24)
    exact = explore(sys_)
    _lts, stats = distributed_explore(
        sys_, n_workers=2,
        faults=FaultPlan.parse("kill:0@2"),
        batch_size=8, poll_interval=0.05,
    )
    assert stats.states == exact.n_states
    assert stats.transitions == exact.n_transitions
    assert stats.deadlocks == len(exact.deadlock_states())
    assert stats.worker_deaths == 1
    assert stats.redispatched_batches >= 1
    assert stats.recovered
    # the dead worker keeps its reconstructed visited-set size, and the
    # per-worker totals still add up to the exact state count
    assert sum(stats.per_worker_states) == stats.states


@pytest.mark.slow
def test_two_kills_at_different_times_recover_exact_counts():
    """Two deaths at different points of the sweep, >= 4 workers.

    Regression for the re-route instability bug: with a modulo-style
    live-list assignment, a key owned by the first dead worker could be
    re-routed to survivor A, counted, and then — after the second death
    re-shuffled the assignment — re-routed to survivor B and counted
    again. Rendezvous hashing keeps the assignment stable, so the
    totals must stay exact across successive crashes.
    """
    sys_ = Diamond(26)
    exact = explore(sys_)
    _lts, stats = distributed_explore(
        sys_, n_workers=4,
        faults=FaultPlan.parse("kill:0@1,kill:1@6"),
        batch_size=4, poll_interval=0.05,
    )
    assert stats.states == exact.n_states
    assert stats.transitions == exact.n_transitions
    assert stats.deadlocks == len(exact.deadlock_states())
    assert stats.worker_deaths == 2
    assert stats.recovered
    assert sum(stats.per_worker_states) == stats.states


@pytest.mark.slow
def test_kill_with_collect_builds_equivalent_lts():
    sys_ = Diamond(12)
    exact = explore(sys_)
    lts, stats = distributed_explore(
        sys_, n_workers=3, collect=True,
        faults=FaultPlan.parse("kill:1@1"),
        batch_size=4, poll_interval=0.05,
    )
    assert stats.worker_deaths == 1
    assert lts.n_states == exact.n_states
    assert lts.n_transitions == exact.n_transitions
    assert minimize_strong(lts) == minimize_strong(exact)


@pytest.mark.slow
def test_raise_in_successors_recovers():
    sys_ = Diamond(20)
    exact = explore(sys_)
    _lts, stats = distributed_explore(
        sys_, n_workers=2,
        faults=FaultPlan.parse("raise:1@1"),
        batch_size=8, poll_interval=0.05,
    )
    assert stats.states == exact.n_states
    assert stats.transitions == exact.n_transitions
    assert stats.worker_deaths == 1
    assert stats.recovered


@pytest.mark.slow
def test_delay_injection_exercises_poll_without_deaths():
    sys_ = Diamond(10)
    exact = explore(sys_)
    _lts, stats = distributed_explore(
        sys_, n_workers=2,
        faults=FaultPlan.parse("delay:0@0.03"),
        batch_size=16, poll_interval=0.01,
    )
    assert stats.states == exact.n_states
    assert stats.worker_deaths == 0
    assert not stats.recovered


@pytest.mark.slow
def test_kill_recovery_on_jackal_model_packed_keys():
    """Recovery on real packed keys, under a reduction certificate: the
    re-routed keys are orbit-canonical ones and must still be counted
    exactly once."""
    from repro.jackal.params import ProtocolVariant
    from repro.staticcheck.symmetry import certify

    model = jackal()
    cert, _findings = certify(model.config, ProtocolVariant.fixed())
    exact = explore(model, certificate=cert)
    _lts, stats = distributed_explore(
        model, n_workers=2, certificate=cert,
        faults=FaultPlan.parse("kill:1@2"),
        batch_size=32, poll_interval=0.05,
    )
    assert stats.states == exact.n_states
    assert stats.transitions == exact.n_transitions
    assert stats.deadlocks == len(exact.deadlock_states())
    assert stats.worker_deaths == 1
    assert stats.recovered


# -- liveness: bounded detection, no hangs ----------------------------------


@pytest.mark.slow
def test_all_workers_dead_raises_within_bounded_time():
    t0 = time.monotonic()
    with pytest.raises(WorkerFailureError) as ei:
        distributed_explore(
            Diamond(30), n_workers=2,
            faults=FaultPlan.parse("kill:0@0,kill:1@0"),
            batch_size=8, poll_interval=0.05,
        )
    # two deaths, each detected within one poll interval plus process
    # startup — far under the guard; the seed code hung forever here
    assert time.monotonic() - t0 < 10.0
    stats = ei.value.stats
    assert stats is not None
    assert stats.worker_deaths == 2
    assert not stats.recovered
    assert stats.seconds > 0.0


@pytest.mark.slow
def test_limit_raises_cleanly_with_dead_worker():
    t0 = time.monotonic()
    with pytest.raises(ExplorationLimitError) as ei:
        distributed_explore(
            Diamond(80), n_workers=2,
            faults=FaultPlan.parse("kill:0@1"), max_states=150,
            batch_size=8, poll_interval=0.05,
        )
    assert time.monotonic() - t0 < 20.0
    stats = ei.value.stats
    assert stats is not None
    assert stats.states > 150
    assert stats.seconds > 0.0
    assert stats.worker_deaths == 1
