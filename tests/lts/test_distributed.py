"""``distributed_explore`` is a shim over ``explore_fast``.

It survives only because the pipeline benchmark's ``c3r2-dist``
workload calls it; this pins every field and method that workload
reads.
"""

from dataclasses import replace

from repro.jackal import CONFIG_2, JackalModel, ProtocolVariant
from repro.lts.distributed import distributed_explore
from repro.lts.engine import explore_fast


def test_shim_matches_explore_fast_and_carries_what_the_benchmark_reads():
    model = JackalModel(
        replace(CONFIG_2, with_probes=False), ProtocolVariant.fixed()
    )
    ref = explore_fast(model)
    lts, stats = distributed_explore(model, n_workers=2)
    assert (lts.n_states, lts.n_transitions) == (
        ref.n_states, ref.n_transitions
    )
    assert (stats.states, stats.transitions) == (
        ref.n_states, ref.n_transitions
    )
    assert stats.deadlocks == len(ref.deadlock_states()) > 0
    assert stats.seconds > 0
    assert stats.spawn_s == 0
    assert stats.batches == 1
    assert stats.worker_deaths == 0
    assert stats.redispatched_batches == 0
    assert stats.imbalance() == 1.0
