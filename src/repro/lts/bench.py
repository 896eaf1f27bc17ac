"""Exploration benchmark harness.

One entry point, :func:`bench_explore`, runs the same transition system
through the exploration backends — the reference serial explorer and
the fast engine — and cross-checks that both report identical state,
transition and deadlock counts before any throughput number is
reported. A benchmark that silently explores a different LTS is worse
than no benchmark.

The resulting report is a plain dict so the CLI can dump it as
``BENCH_explore.json``:

``system``
    states / transitions / deadlocks (identical across backends).
``backends``
    per-backend ``seconds``, ``states_per_second`` and ``max_frontier``.
``speedup``
    each backend's throughput relative to the serial reference.
``phases``
    per-phase seconds (successor generation / dedup) from one extra
    instrumented engine pass — the timed runs themselves stay
    un-instrumented.
``metrics``
    the metrics snapshot of that pass.
``backends.<name>.max_rss_bytes`` / ``backends.<name>.mem``
    memory telemetry from the instrumented passes (serial and engine):
    the RSS high-watermark, the bounded watermark series, per-structure
    byte notes and the count of ``mem_pressure`` events. The passes
    share one process and run in order, so each backend's watermark is
    its *observed* ceiling in that context — exactly what
    :func:`rss_gate` regresses against, not an isolated-process
    measurement.
``reduction``
    present when a reduction certificate was supplied: unreduced vs
    reduced visited counts, the reduction ``factor``, the same sweep
    with the certified field slice disabled
    (``states_canonical_only``/``factor_canonical_only`` — what the
    cone-of-influence projection buys over canonical+ample alone), and
    the canonicalization/pruning/slice counters of one reduced sweep.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import sys

from repro.lts.engine import explore_fast
from repro.lts.explore import ExplorationStats, TransitionSystem, explore
from repro.obs import (
    Instrumentation,
    MemWatch,
    MetricsRegistry,
    Tracer,
    phase_breakdown,
)

#: backends in report order
BACKENDS = ("serial", "engine")


class BenchMismatchError(AssertionError):
    """Backends disagreed on the explored system — timings are void."""


def _deadlocks(lts) -> int:
    return len(lts.deadlock_states())


def bench_explore(
    system: TransitionSystem,
    *,
    backends: tuple[str, ...] = BACKENDS,
    repeats: int = 1,
    profile: bool = False,
    certificate=None,
) -> dict:
    """Benchmark exploration backends on ``system`` and cross-check them.

    Parameters
    ----------
    backends:
        Subset of :data:`BACKENDS` to run (``"serial"`` is always run —
        it is the correctness reference and the speedup denominator).
    repeats:
        Timed runs per backend; the best (minimum-time) run is
        reported, the standard guard against scheduler noise.
    profile:
        Additionally run the engine under :mod:`cProfile` and include
        the top functions by cumulative time in the report.
    certificate:
        Optional :class:`~repro.staticcheck.certificates.ReductionCertificate`.
        When given, every backend sweeps the certificate-validated
        reduced view (:class:`~repro.lts.certreduce.ReducedSystem`) —
        the cross-check then covers the reduced system — and the
        report gains a ``reduction`` block comparing one unreduced
        engine pass against the reduced sweep (``factor`` is the
        visited-state ratio).
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    base_system = system
    if certificate is not None:
        from repro.lts.certreduce import ReducedSystem

        system = ReducedSystem(base_system, certificate)
    report: dict = {"backends": {}, "speedup": {}}

    # build the per-round run list; rounds interleave the backends so
    # background load perturbs all of them equally, and the best
    # (minimum-time) round per backend is reported
    runs = [("serial", lambda s: explore(system, stats=s))]
    if "engine" in backends:
        runs.append(("engine", lambda s: explore_fast(system, stats=s)))
    best: dict = {}
    results: dict = {}
    for _ in range(repeats):
        for name, run in runs:
            st = ExplorationStats()
            lts = run(st)
            if name not in best or st.seconds < best[name].seconds:
                best[name], results[name] = st, lts

    ref = results["serial"]
    counts = (ref.n_states, ref.n_transitions, _deadlocks(ref))
    report["system"] = {
        "states": counts[0],
        "transitions": counts[1],
        "deadlocks": counts[2],
    }

    for name, _run in runs:
        st, lts = best[name], results[name]
        got = (lts.n_states, lts.n_transitions, _deadlocks(lts))
        if got != counts:
            raise BenchMismatchError(
                f"backend {name!r} explored {got}; serial reference "
                f"found {counts}"
            )
        report["backends"][name] = {
            "seconds": st.seconds,
            "states_per_second": st.states_per_second(),
            "max_frontier": st.max_frontier,
        }
    serial_sps = report["backends"]["serial"]["states_per_second"]

    for name, row in report["backends"].items():
        report["speedup"][name] = (
            row["states_per_second"] / serial_sps if serial_sps else 0.0
        )

    if certificate is not None:
        from repro.lts.certreduce import ReducedSystem

        # one unreduced reference pass + one clean reduced pass (the
        # timed wrapper's counters accumulated across repeats) so the
        # reported factor and counters describe a single sweep each
        unreduced = explore_fast(base_system)
        hits0 = (
            system.canonical_hits, system.ample_prunes, system.slice_hits
        )
        reduced = explore_fast(system)
        # same reduction minus the slice, to isolate what the certified
        # cone-of-influence projection buys over canonical+ample alone
        unsliced_system = ReducedSystem(
            base_system, certificate, slice_fields=(), _validated=True
        )
        unsliced = explore_fast(unsliced_system)
        report["reduction"] = {
            "unreduced_states": unreduced.n_states,
            "unreduced_transitions": unreduced.n_transitions,
            "states": reduced.n_states,
            "transitions": reduced.n_transitions,
            "factor": (
                unreduced.n_states / reduced.n_states
                if reduced.n_states else 0.0
            ),
            "states_canonical_only": unsliced.n_states,
            "factor_canonical_only": (
                unreduced.n_states / unsliced.n_states
                if unsliced.n_states else 0.0
            ),
            "canonical_hits": system.canonical_hits - hits0[0],
            "ample_prunes": system.ample_prunes - hits0[1],
            "slice_hits": system.slice_hits - hits0[2],
        }

    def _note_mem(name: str, mw: MemWatch) -> None:
        row = report["backends"].get(name)
        if row is None:  # not among the timed backends
            return
        summ = mw.summary()
        row["max_rss_bytes"] = summ["max_rss_bytes"]
        row["mem"] = summ

    # one extra instrumented engine pass feeds the phase breakdown,
    # metrics snapshot and memory watermarks — never the timed runs
    # above, so the throughput numbers stay un-instrumented
    registry = MetricsRegistry()
    tracer = Tracer()
    mw_engine = MemWatch(metrics=registry)
    with Instrumentation(metrics=registry, tracer=tracer,
                         memwatch=mw_engine) as inst:
        explore_fast(system, obs=inst)
    report["phases"] = phase_breakdown(tracer.events())
    _note_mem("engine", mw_engine)
    # one instrumented serial pass for its watermark series (the serial
    # reference is the out-of-core tier's memory baseline)
    mw_serial = MemWatch()
    with Instrumentation(memwatch=mw_serial) as inst_s:
        explore(system, obs=inst_s)
    _note_mem("serial", mw_serial)
    report["metrics"] = registry.snapshot()

    if profile:
        prof = cProfile.Profile()
        prof.enable()
        explore_fast(system)
        prof.disable()
        buf = io.StringIO()
        pstats.Stats(prof, stream=buf).sort_stats("cumulative").print_stats(15)
        report["profile"] = buf.getvalue()

    report["environment"] = {
        "python": sys.version.split()[0],
        "platform": sys.platform,
    }
    return report


def rss_gate(report: dict, max_rss_bytes: int) -> list[str]:
    """Backends whose observed RSS watermark exceeds ``max_rss_bytes``.

    The memory analogue of the overhead gate: a refactor that keeps
    throughput flat while doubling the visited set's footprint should
    fail the benchmark, not slip through. Returns the offending backend
    names (empty means the gate passes); backends without memory
    telemetry are skipped, not failed.
    """
    if max_rss_bytes <= 0:
        raise ValueError("max_rss_bytes must be positive")
    over = []
    for name, row in report.get("backends", {}).items():
        rss = row.get("max_rss_bytes")
        if rss is not None and rss > max_rss_bytes:
            over.append(name)
    return over


def format_bench(report: dict) -> str:
    """Render a :func:`bench_explore` report as an aligned text table."""
    sysrow = report["system"]
    lines = [
        f"system: {sysrow['states']} states, {sysrow['transitions']} "
        f"transitions, {sysrow['deadlocks']} deadlocks",
        f"{'backend':<15} {'seconds':>9} {'states/s':>12} {'speedup':>9}",
    ]
    for name, row in report["backends"].items():
        lines.append(
            f"{name:<15} {row['seconds']:>9.3f} "
            f"{row['states_per_second']:>12.0f} "
            f"{report['speedup'][name]:>8.2f}x"
        )
    red = report.get("reduction")
    if red:
        lines.append(
            f"reduction: {red['unreduced_states']} -> {red['states']} "
            f"states (factor {red['factor']:.2f}x, "
            f"canonical_hits={red['canonical_hits']}, "
            f"ample_prunes={red['ample_prunes']}, "
            f"slice_hits={red.get('slice_hits', 0)})"
        )
        if "states_canonical_only" in red:
            lines.append(
                f"  without slice: {red['states_canonical_only']} states "
                f"(factor {red['factor_canonical_only']:.2f}x) — slicing "
                f"saves {red['states_canonical_only'] - red['states']} "
                "states"
            )
    mem_rows = [
        (name, row["max_rss_bytes"], row.get("mem", {}))
        for name, row in report["backends"].items()
        if row.get("max_rss_bytes") is not None
    ]
    if mem_rows:
        lines.append(
            "memory (RSS watermark): "
            + "  ".join(
                f"{name}={rss / (1024 * 1024):.1f}MiB"
                + (
                    f" (pressure={mem.get('pressure_events')})"
                    if mem.get("pressure_events")
                    else ""
                )
                for name, rss, mem in mem_rows
            )
        )
    return "\n".join(lines)
