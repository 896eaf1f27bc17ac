"""Experiment T8-cfg — Section 5.5's scaling observation.

"Due to the complexity of this protocol, the size of the LTS grows very
rapidly with respect to the number of threads and processors."

Regenerates the state/transition growth series along both axes
(processors with one thread each; threads on a fixed two-processor
system) and asserts the super-linear growth the paper reports.

Also benchmarks the exploration engine against the seed serial
explorer (``test_engine_speedup``): on a model large enough to be above
timer noise the engine, sweeping through the frontier kernel, must
clear 4x the serial states/sec while producing the identical LTS, and
the report is written to ``BENCH_explore.json``.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.analysis.reporting import Table
from repro.jackal import Config, JackalModel, ProtocolVariant
from repro.lts.bench import bench_explore, format_bench
from repro.lts.engine import explore_fast
from repro.lts.explore import ExplorationStats, explore


def _measure(threads_per_processor):
    cfg = Config(
        threads_per_processor=threads_per_processor,
        rounds=1,
        with_probes=False,
    )
    st = ExplorationStats()
    explore(JackalModel(cfg, ProtocolVariant.fixed()), stats=st)
    return {
        "topology": cfg.describe(),
        "states": st.states,
        "transitions": st.transitions,
        "seconds": round(st.seconds, 2),
    }


@pytest.mark.benchmark(group="scaling")
def test_growth_in_processors(once):
    def run():
        return [_measure((1,) * p) for p in (1, 2, 3, 4)]

    rows = once(run)
    states = [r["states"] for r in rows]
    # rapid growth: each extra processor multiplies the state count
    assert states[1] > 4 * states[0]
    assert states[2] > 4 * states[1]
    assert states[3] > 4 * states[2]
    print()
    print(Table("growth in processors (1 thread each, 1 round)",
                ["topology", "states", "transitions", "seconds"], rows).render())


@pytest.mark.benchmark(group="scaling")
def test_growth_in_threads(once):
    def run():
        return [
            _measure(tpp) for tpp in ((1, 1), (2, 1), (2, 2), (3, 2))
        ]

    rows = once(run)
    states = [r["states"] for r in rows]
    assert states[1] > 3 * states[0]
    assert states[2] > 3 * states[1]
    assert states[3] > 2 * states[2]
    print()
    print(Table("growth in threads (2 processors, 1 round)",
                ["topology", "states", "transitions", "seconds"], rows).render())


@pytest.mark.benchmark(group="scaling")
def test_engine_speedup(once):
    """The exploration engine clears 4x the seed serial explorer.

    Configuration 2 at two rounds (201,575 states): the engine's sweep
    is then several tenths of a second, not the 10-200 ms of a
    one-round model where per-level fixed costs and timer noise decide
    the ratio. Measured here: engine 0.6-0.9 s against 7-8 s serial
    (8-12x); the one-state-at-a-time loop the kernel replaced read
    2.5-3.5x, so the floor tells the two apart. Timings are min-of-2
    with a warm-up pass on both sides; the serial and engine runs are
    interleaved so background load hits both equally. Counts are
    cross-checked by :func:`bench_explore` (it raises on any backend
    disagreement), and the report lands in ``BENCH_explore.json``.
    """
    cfg = Config(threads_per_processor=(2, 1), rounds=2, with_probes=False)
    model = JackalModel(cfg, ProtocolVariant.fixed())

    def run():
        explore_fast(model)  # builds the kernel; serial needs no warm-up
        # the partitioned backend needs ~30 s a run at this size and has
        # its own gates (`repro bench --min-dist-speedup`, the CI smoke)
        return bench_explore(model, backends=("serial", "engine"), repeats=2)

    report = once(run)
    report["config"] = cfg.describe()
    out = pathlib.Path("BENCH_explore.json")
    out.write_text(json.dumps(report, indent=2))
    print()
    print(format_bench(report))
    print(f"written: {out.resolve()}")
    assert report["system"]["states"] == 201_575
    assert report["system"]["transitions"] == 623_117
    assert report["speedup"]["engine"] >= 4.0
    # the shipped BENCH_explore.json must carry memory telemetry for
    # every tier it ran: RSS watermark plus the bounded watermark series
    for name in ("serial", "engine"):
        row = report["backends"][name]
        assert row["max_rss_bytes"] > 0, name
        assert row["mem"]["watermarks"], name


@pytest.mark.benchmark(group="scaling")
def test_growth_in_rounds(once):
    def run():
        rows = []
        for rounds in (1, 2, 3):
            cfg = Config(threads_per_processor=(1, 1), rounds=rounds,
                         with_probes=False)
            st = ExplorationStats()
            explore(JackalModel(cfg, ProtocolVariant.fixed()), stats=st)
            rows.append({"rounds": rounds, "states": st.states,
                         "transitions": st.transitions})
        return rows

    rows = once(run)
    assert rows[1]["states"] > 5 * rows[0]["states"]
    print()
    print(Table("growth in rounds (config 1)",
                ["rounds", "states", "transitions"], rows).render())


@pytest.mark.benchmark(group="scaling")
def test_max_rss_gate(once):
    """The max-RSS regression gate trips on a deliberate regression.

    Two directions: a real bench report passes under a cap with
    generous headroom over the observed watermark, and a doctored copy
    of the same report — one backend's watermark inflated 10x, the
    mutation a real memory regression would produce — must fail the
    same cap and name the offending backend.
    """
    from repro.lts.bench import rss_gate

    cfg = Config(threads_per_processor=(1, 1), rounds=1, with_probes=False)
    model = JackalModel(cfg, ProtocolVariant.fixed())

    def run():
        return bench_explore(model, backends=("serial", "engine"), repeats=1)

    report = once(run)
    observed = max(
        row["max_rss_bytes"]
        for row in report["backends"].values()
        if "max_rss_bytes" in row
    )
    assert observed > 0
    cap = 4 * observed
    assert rss_gate(report, cap) == []
    doctored = json.loads(json.dumps(report))
    doctored["backends"]["engine"]["max_rss_bytes"] = 10 * observed
    assert rss_gate(doctored, cap) == ["engine"]
    with pytest.raises(ValueError):
        rss_gate(report, 0)


# -- flight-recorder overhead gate ------------------------------------------


class _ScalarOnly:
    """The model minus its frontier kernel, so that ``explore_fast``
    takes the one-state-at-a-time loop the gate below guards."""

    def __init__(self, model):
        self.initial_state = model.initial_state
        self.successors = model.successors
        self.successors_fast = model.successors_fast


def _baseline_engine(system):
    """Frozen copy of the engine's tight loop as it stood before the
    flight recorder landed (PR 2's ``explore_fast`` fast path,
    including the stats bookkeeping and columnar LTS adoption) — the
    un-instrumented reference the overhead gate compares against.
    """
    import gc
    from array import array

    from repro.lts.lts import LTS

    succ = getattr(system, "successors_fast", None) or system.successors
    init = system.initial_state()
    index = {init: 0}
    n = 1
    src = array("i")
    lbl = array("i")
    dst = array("i")
    src_append = src.append
    lbl_append = lbl.append
    dst_append = dst.append
    labels = []
    labels_append = labels.append
    lmap = {}
    lmap_get = lmap.get
    index_setdefault = index.setdefault
    frontier = [(0, init)]
    depth = 0
    level_sizes = [1]
    max_frontier = 1
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        while frontier:
            next_frontier = []
            nf_append = next_frontier.append
            for sidx, state in frontier:
                for label, nxt in succ(state):
                    didx = index_setdefault(nxt, n)
                    if didx == n:
                        n += 1
                        nf_append((didx, nxt))
                    lid = lmap_get(label)
                    if lid is None:
                        lid = lmap[label] = len(labels)
                        labels_append(label)
                    src_append(sidx)
                    lbl_append(lid)
                    dst_append(didx)
            depth += 1
            frontier = next_frontier
            if frontier:
                level_sizes.append(len(frontier))
                if len(frontier) > max_frontier:
                    max_frontier = len(frontier)
    finally:
        if gc_was_enabled:
            gc.enable()
    out = LTS.from_columns(
        initial=0, n_states=n, src=src, lbl=lbl, dst=dst, labels=labels
    )
    out.state_meta = {}
    return out


@pytest.mark.benchmark(group="scaling")
def test_instrumentation_disabled_overhead(once):
    """Disabled instrumentation costs <= 3% on the engine's scalar loop.

    The flight recorder's contract: when nothing is recording, the
    engine must run within 3% of the frozen pre-instrumentation loop
    above. Both sides sweep the kernel-less shim: the scalar loop is
    what a :class:`~repro.lts.certreduce.ReducedSystem` still runs,
    and the loop the frozen copy is a copy of. Interleaved min-of-5
    timings absorb scheduler noise; the comparison is retried up to 3
    times before failing so one noisy round cannot flake the gate.
    """
    import math
    import time

    cfg = Config(
        threads_per_processor=(1, 1, 1), rounds=1, with_probes=False
    )
    model = _ScalarOnly(JackalModel(cfg, ProtocolVariant.fixed()))

    def measure():
        _baseline_engine(model)  # warm both paths before timing
        explore_fast(model)
        base = cur = math.inf
        for _ in range(5):
            t = time.perf_counter()
            _baseline_engine(model)
            base = min(base, time.perf_counter() - t)
            t = time.perf_counter()
            explore_fast(model)
            cur = min(cur, time.perf_counter() - t)
        return base, cur

    def run():
        for _attempt in range(3):
            base, cur = measure()
            if cur <= 1.03 * base:
                break
        return base, cur

    base, cur = once(run)
    # same sweep: the baseline and the engine must agree exactly
    lts = explore_fast(model)
    ref = _baseline_engine(model)
    assert (lts.n_states, lts.n_transitions) == (ref.n_states, ref.n_transitions)
    ratio = cur / base if base > 0 else 1.0
    print(f"\nbaseline {base:.3f}s  engine {cur:.3f}s  ratio {ratio:.3f}")
    assert cur <= 1.03 * base, (
        f"instrumentation-disabled engine {cur:.3f}s exceeds 3% over the "
        f"un-instrumented baseline {base:.3f}s (ratio {ratio:.3f})"
    )
