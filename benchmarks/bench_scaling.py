"""Experiment T8-cfg — Section 5.5's scaling observation.

"Due to the complexity of this protocol, the size of the LTS grows very
rapidly with respect to the number of threads and processors."

Regenerates the state/transition growth series along both axes
(processors with one thread each; threads on a fixed two-processor
system) and asserts the super-linear growth the paper reports.

Also benchmarks the exploration engine against the seed serial
explorer (``test_engine_speedup``): on a model large enough to be above
timer noise the engine, sweeping through the frontier kernel, must
clear 4x the serial states/sec while producing the identical LTS.
"""

import pytest

from repro.analysis.reporting import Table
from repro.jackal import Config, JackalModel, ProtocolVariant
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
    the ratio. Measured on a 2-CPU box: engine 0.3 s against 4.0 s
    serial (13.6x); the one-state-at-a-time loop the kernel replaced read
    2.5-3.5x, so the floor tells the two apart. Timings are the
    explorers' own :class:`ExplorationStats`, min-of-2 with a warm-up
    pass on the engine (it builds the kernel); the serial and engine
    runs are interleaved so background load hits both equally, and
    both must report the same counts.
    """
    cfg = Config(threads_per_processor=(2, 1), rounds=2, with_probes=False)
    model = JackalModel(cfg, ProtocolVariant.fixed())

    def run():
        explore_fast(model)
        best = {}
        for _ in range(2):
            for name, explorer in (("serial", explore),
                                   ("engine", explore_fast)):
                st = ExplorationStats()
                explorer(model, stats=st)
                if name not in best or st.seconds < best[name].seconds:
                    best[name] = st
        return best

    best = once(run)
    serial, engine = best["serial"], best["engine"]
    speedup = engine.states_per_second() / serial.states_per_second()
    print(f"\nserial {serial.seconds:.3f}s  engine {engine.seconds:.3f}s  "
          f"speedup {speedup:.1f}x")
    for st in (serial, engine):
        assert (st.states, st.transitions) == (201_575, 623_117)
    assert speedup >= 4.0


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


# -- flight-recorder overhead gate ------------------------------------------


def _baseline_engine(model):
    """Frozen, un-instrumented copy of the engine's kernel loop: per BFS
    level ``expand`` -> ``RowSet.add`` -> label interning -> three column
    appends, with the stats bookkeeping and columnar LTS adoption — the
    reference the overhead gate below compares against.
    """
    from array import array

    import numpy as np

    from repro.lts.lts import LTS
    from repro.lts.rowset import RowSet

    kernel = model.kernel()
    frontier = kernel.pack([model.initial_state()])
    visited = RowSet(frontier.shape[1])
    visited.add(frontier)
    n = 1
    src = array("i")
    lbl = array("i")
    dst = array("i")
    labels = []
    kmap = np.full(len(kernel.labels), -1, dtype=np.int32)
    depth = 0
    level_sizes = [1]
    max_frontier = 1
    while len(frontier):
        cand, src_pos, lids = kernel.expand(frontier)
        first = n - len(frontier)
        ids, _cut = visited.add(cand)
        frontier = visited.rows(n)
        n = len(visited)
        lcol = kmap[lids]
        if lcol.size and lcol.min() < 0:
            unseen, at = np.unique(lids[lcol < 0], return_index=True)
            for lid in unseen[np.argsort(at)].tolist():
                kmap[lid] = len(labels)
                labels.append(kernel.labels[lid])
            lcol = kmap[lids]
        src.frombytes((src_pos + first).astype(np.int32).tobytes())
        lbl.frombytes(lcol.tobytes())
        dst.frombytes(ids.tobytes())
        del cand, src_pos, lids, ids, lcol
        depth += 1
        if len(frontier):
            level_sizes.append(len(frontier))
            if len(frontier) > max_frontier:
                max_frontier = len(frontier)
    out = LTS.from_columns(
        initial=0, n_states=n, src=src, lbl=lbl, dst=dst, labels=labels
    )
    out.state_meta = {}
    return out


@pytest.mark.benchmark(group="scaling")
def test_instrumentation_disabled_overhead(once):
    """Disabled instrumentation costs <= 3% on the engine's kernel loop.

    The flight recorder's contract: when nothing is recording, the
    engine must run within 3% of the frozen un-instrumented loop above.
    Both sides sweep configuration 2 at two rounds (201,575 states), so
    a sweep is several tenths of a second, well above timer noise.
    Interleaved min-of-5 timings absorb scheduler noise; the comparison
    is retried up to 3 times before failing so one noisy round cannot
    flake the gate.
    """
    import math
    import time

    cfg = Config(threads_per_processor=(2, 1), rounds=2, with_probes=False)
    model = JackalModel(cfg, ProtocolVariant.fixed())

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
    assert lts.n_states == 201_575
    ratio = cur / base if base > 0 else 1.0
    print(f"\nbaseline {base:.3f}s  engine {cur:.3f}s  ratio {ratio:.3f}")
    assert cur <= 1.03 * base, (
        f"instrumentation-disabled engine {cur:.3f}s exceeds 3% over the "
        f"un-instrumented baseline {base:.3f}s (ratio {ratio:.3f})"
    )
