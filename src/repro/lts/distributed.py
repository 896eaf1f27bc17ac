"""``distributed_explore``: a thin in-process shim over ``explore_fast``.

The hash-partitioned multi-process sweep that stood in for the paper's
cluster is gone: the level-vectorised engine on one core beat it on
time, CPU and memory (``docs/performance.md``, "Partitioned backend").
The pipeline benchmark's ``c3r2-dist`` workload still calls
:func:`distributed_explore`, so it survives as
:func:`repro.lts.engine.explore_fast` plus the stats that workload
reads. This module is deleted by the ``benchmark`` PR that retires
``c3r2-dist`` (ROADMAP item 1(b)).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lts.engine import explore_fast
from repro.lts.explore import ExplorationStats, TransitionSystem
from repro.lts.lts import LTS


@dataclass
class DistributedStats:
    """Counts of one sweep, in the shape ``c3r2-dist`` reads.

    ``deadlocks`` counts states with no outgoing transition. There are
    no workers, so ``spawn_s``, ``worker_deaths`` and
    ``redispatched_batches`` are 0, ``batches`` is 1 (the whole sweep)
    and :meth:`imbalance` is 1.0.
    """

    states: int = 0
    transitions: int = 0
    deadlocks: int = 0
    seconds: float = 0.0
    spawn_s: float = 0.0
    batches: int = 1
    worker_deaths: int = 0
    redispatched_batches: int = 0

    def imbalance(self) -> float:
        return 1.0


def distributed_explore(
    system: TransitionSystem, *, n_workers: int
) -> tuple[LTS, DistributedStats]:
    """``explore_fast(system)`` and its counts.

    ``n_workers`` is accepted because the benchmark passes it; it
    changes nothing.
    """
    st = ExplorationStats()
    lts = explore_fast(system, stats=st)
    return lts, DistributedStats(
        states=lts.n_states,
        transitions=lts.n_transitions,
        deadlocks=len(lts.deadlock_states()),
        seconds=st.seconds,
    )
