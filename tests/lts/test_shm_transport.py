"""Tests for the shared-memory ring data plane.

Three layers: the SPSC ring primitive and the key packing helpers
(:mod:`repro.lts.shmring`), the adaptive quantum controller, and the
full sweep over the rings on Jackal models — which must explore exactly
the same LTS as the serial reference, with and without injected worker
faults, because a transport that changes counts is not a transport but
a bug.
"""

import multiprocessing as mp

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.lts.distributed import distributed_explore
from repro.lts.explore import explore
from repro.lts.faults import FaultPlan
from repro.lts.reduction import minimize_strong
from repro.lts.shmring import (
    AdaptiveBatch,
    RingBuffer,
    pack_keys,
    unpack_keys,
)
from repro.lts.statehash import key_owner
from tests.lts.systems import Diamond, jackal


# -- RingBuffer -------------------------------------------------------------


def test_ring_roundtrip_and_counters():
    ring = RingBuffer.create(256)
    try:
        assert ring.try_write(3, b"abc")
        assert ring.try_write(4, b"defg")
        assert ring.counters()[2] == 2  # wr_recs
        depth, payload, cur = ring.peek(ring.rd_bytes)
        assert (depth, payload) == (3, b"abc")
        depth, payload, cur2 = ring.peek(cur)
        assert (depth, payload) == (4, b"defg")
        assert ring.peek(cur2) is None
        ring.commit(cur2 - ring.rd_bytes, 2)
        assert ring.rd_bytes == ring.wr_bytes
        assert ring.rd_recs == 2
    finally:
        ring.close()
        ring.unlink()


def test_ring_wraps_without_corruption():
    ring = RingBuffer.create(64)
    try:
        # payloads sized so records straddle the wrap point repeatedly
        for i in range(200):
            payload = bytes([i % 251]) * (7 + i % 11)
            assert ring.try_write(i % 9, payload)
            rec = ring.peek(ring.rd_bytes)
            assert rec is not None
            depth, got, cur = rec
            assert depth == i % 9
            assert got == payload
            ring.commit(cur - ring.rd_bytes, 1)
        assert ring.rd_recs == 200
    finally:
        ring.close()
        ring.unlink()


def test_ring_rejects_when_full_and_oversized():
    ring = RingBuffer.create(64)
    try:
        # never too big for an empty ring, but fills up un-consumed
        wrote = 0
        while ring.try_write(0, b"x" * 10):
            wrote += 1
        assert wrote >= 2
        assert not ring.try_write(0, b"x" * 10)
        # a payload that cannot fit even in an empty ring is rejected
        assert not ring.try_write(0, b"y" * 100)
        # consuming frees space again
        depth, payload, cur = ring.peek(ring.rd_bytes)
        ring.commit(cur - ring.rd_bytes, 1)
        assert ring.try_write(1, b"z" * 10)
    finally:
        ring.close()
        ring.unlink()


def test_ring_drain_unconsumed_recovers_pending_records():
    ring = RingBuffer.create(256)
    try:
        for i in range(3):
            assert ring.try_write(i, bytes([i]) * 4)
        # consume (peek + commit) only the first record
        _depth, _payload, cur = ring.peek(ring.rd_bytes)
        ring.commit(cur - ring.rd_bytes, 1)
        drained = ring.drain_unconsumed()
        assert drained == [(1, b"\x01" * 4), (2, b"\x02" * 4)]
        # the drain marks everything consumed
        assert ring.rd_bytes == ring.wr_bytes
        assert ring.drain_unconsumed() == []
    finally:
        ring.close()
        ring.unlink()


def test_ring_capacity_validation():
    with pytest.raises(ValueError):
        RingBuffer.create(8)


def test_pack_unpack_keys_roundtrip():
    keys = [0, 1, 255, 256, 2**31, 2**64 - 1]
    blob = pack_keys(keys, 9)
    assert len(blob) == 9 * len(keys)
    assert unpack_keys(blob, 9) == keys


# -- AdaptiveBatch ----------------------------------------------------------


def test_adaptive_batch_validation():
    with pytest.raises(ValueError):
        AdaptiveBatch(lo=0)
    with pytest.raises(ValueError):
        AdaptiveBatch(lo=10, hi=5)
    with pytest.raises(ValueError):
        AdaptiveBatch(target_s=0.0)
    with pytest.raises(ValueError):
        AdaptiveBatch(alpha=0.0)


def test_adaptive_batch_converges_under_constant_rate():
    ab = AdaptiveBatch(initial=256, lo=32, hi=8192, target_s=0.01)
    # constant 50k keys/s: the EMA converges to rate * target = 500
    for _ in range(40):
        size = ab.update(500, 0.01)
    assert size == 500
    # degenerate observations leave the estimate untouched
    assert ab.update(0, 0.01) == 500
    assert ab.update(500, 0.0) == 500


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10**6),
            st.floats(
                min_value=0.0, max_value=10.0,
                allow_nan=False, allow_infinity=False,
            ),
        ),
        max_size=50,
    )
)
def test_adaptive_batch_stays_within_bounds(observations):
    ab = AdaptiveBatch(initial=256, lo=32, hi=8192, target_s=0.004)
    for n_keys, seconds in observations:
        size = ab.update(n_keys, seconds)
        assert 32 <= size <= 8192
        assert ab.size == size


# -- owner routing ----------------------------------------------------------


def test_worker_inlined_owner_mix_matches_key_owner():
    # the shm worker inlines the splitmix64 finaliser of key_owner();
    # the two must agree for every key or partitions would depend on
    # the code path that routed the state
    m64 = (1 << 64) - 1
    for n_workers in (1, 2, 3, 7):
        for key in list(range(64)) + [2**31 - 1, 2**64 - 1, 2**199 + 17]:
            h = hash(key) & m64
            h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & m64
            h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & m64
            inlined = ((h ^ (h >> 31))) % n_workers
            assert inlined == key_owner(key, n_workers)


# -- backend equivalence: rings vs serial ------------------------------------


@pytest.mark.slow
def test_matches_serial_on_jackal_config2():
    model = jackal((2, 1))
    exact = explore(model)
    _lts, stats = distributed_explore(model, n_workers=2)
    assert (stats.states, stats.transitions, stats.deadlocks) == (
        exact.n_states,
        exact.n_transitions,
        len(exact.deadlock_states()),
    )
    assert sum(stats.per_worker_states) == stats.states


@pytest.mark.slow
def test_shm_single_worker_matches_serial():
    # the machine-sized pool on a single-CPU host: one pipelined worker
    model = jackal()
    exact = explore(model)
    _lts, stats = distributed_explore(model, n_workers=1)
    assert stats.states == exact.n_states
    assert stats.transitions == exact.n_transitions
    assert stats.deadlocks == len(exact.deadlock_states())


@pytest.mark.slow
def test_shm_collect_builds_equivalent_lts():
    model = jackal()
    exact = explore(model)
    lts, _stats = distributed_explore(
        model, n_workers=2, collect=True, batch_size=64
    )
    assert lts.n_states == exact.n_states
    assert lts.n_transitions == exact.n_transitions
    # BFS renumbering may differ; compare modulo strong bisimulation
    assert minimize_strong(lts) == minimize_strong(exact)


@pytest.mark.slow
def test_shm_spawn_time_reported_separately():
    model = jackal()
    _lts, stats = distributed_explore(model, n_workers=2)
    assert stats.spawn_s > 0.0
    assert stats.spawn_s < stats.seconds


def test_transport_validation(monkeypatch):
    # workers inherit the mapped rings through fork: a platform without
    # that start method is refused up front, naming the backend to use
    monkeypatch.setattr(mp, "get_all_start_methods", lambda: ["spawn"])
    with pytest.raises(ReproError, match="explore_fast"):
        distributed_explore(Diamond(3), n_workers=2)


# -- fault injection over the rings -----------------------------------------


@pytest.mark.slow
def test_shm_kill_recovers_exact_counts():
    model = jackal()
    exact = explore(model)
    _lts, stats = distributed_explore(
        model, n_workers=2, faults=FaultPlan.parse("kill:1@2"),
        batch_size=32, poll_interval=0.05,
    )
    assert stats.states == exact.n_states
    assert stats.transitions == exact.n_transitions
    assert stats.deadlocks == len(exact.deadlock_states())
    assert stats.worker_deaths == 1
    assert stats.recovered


@pytest.mark.slow
def test_shm_raise_recovers_exact_counts():
    model = jackal()
    exact = explore(model)
    _lts, stats = distributed_explore(
        model, n_workers=2, faults=FaultPlan.parse("raise:0@2"),
        batch_size=32, poll_interval=0.05,
    )
    assert stats.states == exact.n_states
    assert stats.transitions == exact.n_transitions
    assert stats.worker_deaths == 1
    assert stats.recovered


@pytest.mark.slow
def test_shm_delay_injection_no_deaths():
    model = jackal()
    exact = explore(model)
    _lts, stats = distributed_explore(
        model, n_workers=2, faults=FaultPlan.parse("delay:0@0.02"),
        batch_size=64, poll_interval=0.05,
    )
    assert stats.states == exact.n_states
    assert stats.worker_deaths == 0
    assert not stats.recovered
