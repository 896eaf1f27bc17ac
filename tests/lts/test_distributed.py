"""Tests for partitioned (distributed) state-space generation."""

import multiprocessing as mp
import os

import pytest

from repro.errors import ExplorationLimitError, ReproError, WorkerFailureError
from repro.lts.distributed import DistributedStats, distributed_explore
from repro.lts.explore import explore
from repro.lts.faults import FaultPlan
from repro.lts.statehash import key_owner
from tests.lts.systems import Diamond, GeneratorDiamond, jackal


@pytest.mark.slow
def test_process_limit_fills_stats_and_attaches():
    with pytest.raises(ExplorationLimitError) as ei:
        distributed_explore(
            Diamond(60), n_workers=2, max_states=100, batch_size=8
        )
    stats = ei.value.stats
    assert stats is not None
    assert stats.states > 100
    assert stats.seconds > 0.0


@pytest.mark.slow
def test_generator_successors_process_backend():
    sys_ = GeneratorDiamond(6)
    exact = explore(sys_)
    _lts, stats = distributed_explore(sys_, n_workers=2)
    assert stats.states == exact.n_states
    assert stats.transitions == exact.n_transitions
    assert stats.deadlocks == len(exact.deadlock_states())


def test_bad_arguments(chain_system):
    with pytest.raises(ValueError):
        distributed_explore(chain_system, n_workers=0)
    # every option of a removed data plane is gone, not ignored
    for gone in ("backend", "transport", "packed", "fault_tolerant",
                 "ring_bytes"):
        with pytest.raises(TypeError):
            distributed_explore(Diamond(3), **{gone: None})


def test_packed_requires_codec(chain_system):
    # the rings carry packed codec keys: a system without a codec() is
    # refused up front and pointed at the backend that serves it
    with pytest.raises(ReproError, match="explore_fast"):
        distributed_explore(chain_system, n_workers=2)


@pytest.mark.slow
def test_process_backend_matches_serial():
    sys = Diamond(7)
    exact = explore(sys)
    lts, stats = distributed_explore(sys, n_workers=2, collect=True)
    assert stats.states == exact.n_states
    assert stats.transitions == exact.n_transitions
    assert lts.n_states == exact.n_states


def test_imbalance_metric():
    s = DistributedStats(states=100, per_worker_states=[50, 50])
    assert s.imbalance() == 1.0
    s2 = DistributedStats(states=100, per_worker_states=[75, 25])
    assert s2.imbalance() == 1.5
    assert DistributedStats().imbalance() == 1.0


def test_imbalance_excludes_workers_that_never_held_states():
    """Regression: a worker that crashed before holding any states must
    not dilute the mean — [100, 0, 50] is a 1.33 skew over the two
    holders, not 2.0 over three partitions."""
    s = DistributedStats(
        states=150, per_worker_states=[100, 0, 50], worker_deaths=1
    )
    assert s.imbalance() == pytest.approx(100 / 75)
    # all-dead edge case: no holders, no skew to report
    assert DistributedStats(per_worker_states=[0, 0]).imbalance() == 1.0


def _partition_imbalance(keys, n, owner_of):
    counts = [0] * n
    for k in keys:
        counts[owner_of(k, n)] += 1
    return max(counts) / (sum(counts) / n)


def test_owner_mixing_improves_imbalance():
    """The splitmix64-mixed owner beats raw ``hash(state) % n``.

    Packed codec keys are the worst case for the raw scheme: every
    ordinary key carries a tag bit (always-odd integers), so
    ``hash(k) % 2**m`` abandons whole partitions. The mixed owner must
    spread the same keys almost evenly.
    """
    from repro.lts.explore import breadth_first_states

    model = jackal()
    codec = model.codec()
    keys = [codec.encode(s) for s in breadth_first_states(model)]

    def raw_owner(k, n):
        return hash(k) % n

    for n in (2, 4):
        raw = _partition_imbalance(keys, n, raw_owner)
        mixed = _partition_imbalance(keys, n, key_owner)
        assert mixed < raw  # the mixer strictly improves the partition
        assert mixed < 1.25
        assert raw > 1.5  # raw hashing really is pathological here


@pytest.mark.slow
@pytest.mark.parametrize("certified", [True, False])
def test_process_backend_matches_serial_on_jackal(certified):
    from repro.jackal.params import ProtocolVariant
    from repro.staticcheck.symmetry import certify

    model = jackal()
    cert = (
        certify(model.config, ProtocolVariant.fixed())[0]
        if certified else None
    )
    exact = explore(model, certificate=cert)
    _lts, stats = distributed_explore(model, n_workers=2, certificate=cert)
    assert stats.states == exact.n_states
    assert stats.transitions == exact.n_transitions
    assert stats.deadlocks == len(exact.deadlock_states())
    assert sum(stats.per_worker_batches) == stats.batches > 0


# -- failure paths leave nothing behind --------------------------------------


def _shm_segments():
    return sorted(n for n in os.listdir("/dev/shm") if n.startswith("psm_"))


@pytest.mark.slow
@pytest.mark.parametrize(
    "plan,max_states,raises",
    [
        (None, None, None),
        ("kill:0@2", None, None),
        ("raise:1@1", None, None),
        ("kill:0@0,kill:1@0", None, WorkerFailureError),
        (None, 100, ExplorationLimitError),
    ],
    ids=["clean", "kill", "raise", "all-dead", "limit"],
)
def test_no_shm_residue_on_any_exit_path(plan, max_states, raises):
    before = _shm_segments()
    kwargs = dict(
        n_workers=2, max_states=max_states, batch_size=8,
        poll_interval=0.05,
        faults=FaultPlan.parse(plan) if plan else None,
    )
    if raises is None:
        _lts, stats = distributed_explore(Diamond(24), **kwargs)
        assert stats.states == explore(Diamond(24)).n_states
    else:
        with pytest.raises(raises):
            distributed_explore(Diamond(60), **kwargs)
    assert _shm_segments() == before


@pytest.mark.slow
def test_failed_worker_start_releases_rings_and_stops_started_workers(
    monkeypatch,
):
    """Regression: the rings and the first workers used to be created
    outside the sweep's ``finally``, so an ``OSError`` from ``fork`` on
    a later worker leaked every segment and left the started workers
    spinning in their idle loop."""
    ctx = mp.get_context("fork")
    real_start = ctx.Process.start
    started = []

    def start(self):
        if started:
            raise OSError("fork: resource temporarily unavailable")
        real_start(self)
        started.append(self)

    monkeypatch.setattr(ctx.Process, "start", start)
    before = _shm_segments()
    with pytest.raises(OSError, match="fork"):
        distributed_explore(Diamond(8), n_workers=3)
    assert len(started) == 1
    assert not started[0].is_alive()
    assert _shm_segments() == before
