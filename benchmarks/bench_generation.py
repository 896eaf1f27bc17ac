"""Experiment A2 — bitstate generation.

The paper leaned on the muCRL toolset's distributed LTS generation (an
eight-node CWI cluster) and mentions its state-bit hashing capability.
This benchmark measures bitstate (supertrace) hashing against exact BFS
on one protocol workload: its coverage with an ample table, and its
graceful degradation with a tiny one.
"""

import dataclasses

import pytest

from repro.jackal import CONFIG_2, JackalModel, ProtocolVariant
from repro.lts.bitstate import bitstate_explore
from repro.lts.explore import explore

CFG = dataclasses.replace(CONFIG_2, rounds=1, with_probes=False)


def _model():
    return JackalModel(CFG, ProtocolVariant.fixed())


@pytest.mark.benchmark(group="generation")
def test_bitstate_generation(benchmark):
    res = benchmark.pedantic(
        lambda: bitstate_explore(_model(), table_bytes=1 << 20),
        rounds=3,
        iterations=1,
    )
    exact = explore(_model())
    coverage = res.visited / exact.n_states
    assert coverage > 0.99  # 1 MiB table is ample for this workload
    assert res.fill_ratio < 0.05
    print(f"\nbitstate: coverage {coverage:.2%}, fill {res.fill_ratio:.4f}")


@pytest.mark.benchmark(group="generation")
def test_bitstate_under_memory_pressure(once):
    # a deliberately tiny table: the sweep must degrade gracefully
    # (fewer states, never a crash) — the supertrace trade-off
    res = once(bitstate_explore, _model(), table_bytes=512)
    exact = explore(_model())
    assert res.visited <= exact.n_states
    print(
        f"\nbitstate(512B): {res.visited}/{exact.n_states} states "
        f"({res.visited / exact.n_states:.1%}), fill {res.fill_ratio:.2f}"
    )
