#!/usr/bin/env python
"""Distributed LTS generation, as on the paper's CWI cluster.

The paper generated its larger state spaces with the muCRL *distributed*
instantiator on an eight-node cluster. This example runs the same
hash-partitioned algorithm with local worker processes on the protocol's
configuration 2, compares it against serial generation and bitstate
(supertrace) hashing, and reports partition balance — the health metric
of hash-based state ownership. It then kills one worker mid-sweep
through the fault-injection harness and shows the recovered run is
still exact — cluster sweeps are only usable when partial progress
survives faults.

Run:  python examples/distributed_generation.py [--workers 4]
"""

import argparse
import dataclasses
import time

from repro.analysis.reporting import Table
from repro.jackal import CONFIG_2, JackalModel, ProtocolVariant
from repro.lts.bitstate import bitstate_explore
from repro.lts.distributed import distributed_explore
from repro.lts.explore import ExplorationStats, explore
from repro.lts.faults import FaultPlan


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workers", type=int, default=4)
    args = ap.parse_args()

    cfg = dataclasses.replace(CONFIG_2, rounds=2, with_probes=False)
    model = JackalModel(cfg, ProtocolVariant.fixed())
    table = Table(
        f"generation strategies on configuration 2 ({cfg.describe()})",
        ["strategy", "states", "transitions", "seconds", "notes"],
    )

    st = ExplorationStats()
    explore(model, stats=st)
    table.add(strategy="serial BFS", states=st.states,
              transitions=st.transitions, seconds=round(st.seconds, 2),
              notes=f"{st.states_per_second():,.0f} states/s")

    _lts, dstats = distributed_explore(model, n_workers=args.workers)
    table.add(
        strategy=f"distributed ({args.workers} workers)",
        states=dstats.states,
        transitions=dstats.transitions,
        seconds=round(dstats.seconds, 2),
        notes=f"imbalance {dstats.imbalance():.2f}, {dstats.levels} levels",
    )

    _lts, fstats = distributed_explore(
        model, n_workers=args.workers, faults=FaultPlan.parse("kill:0@2"),
    )
    table.add(
        strategy="distributed, worker 0 killed",
        states=fstats.states,
        transitions=fstats.transitions,
        seconds=round(fstats.seconds, 2),
        notes=f"{fstats.worker_deaths} death(s), "
        f"{fstats.redispatched_batches} batches re-dispatched, "
        f"recovered={fstats.recovered}",
    )

    t0 = time.perf_counter()
    bres = bitstate_explore(model, table_bytes=1 << 20)
    table.add(
        strategy="bitstate (1 MiB table)",
        states=bres.visited,
        transitions=bres.transitions,
        seconds=round(time.perf_counter() - t0, 2),
        notes=f"fill {bres.fill_ratio:.4f}, omissions possible",
    )

    print(table.render())
    assert dstats.states == st.states, "partitioned sweep must be exact"
    assert fstats.states == st.states, "crash recovery must stay exact"
    coverage = bres.visited / st.states
    print(f"\nbitstate coverage: {coverage:.2%} of the exact state count")


if __name__ == "__main__":
    main()
