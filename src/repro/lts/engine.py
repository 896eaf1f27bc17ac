"""Fast explicit-state exploration engine.

The drop-in successor of :func:`repro.lts.explore.explore` for
performance-critical generation. Same breadth-first order, same LTS,
same limit semantics — but engineered for throughput:

* **fast successor path** — a system exposing ``successors_fast``
  (e.g. :class:`~repro.jackal.model.JackalModel`) is expanded through
  it; the readable reference relation stays the specification.
* **one hash per discovery** — the visited index is probed with
  ``dict.setdefault`` instead of a get/store pair, and the frontier
  carries ``(index, state)`` pairs so expansion never re-hashes a
  state it already numbered.
* **label interning once per label** — labels are interned into a
  local table as they appear instead of per-transition method calls
  into the LTS.
* **columnar transitions** — transitions accumulate directly into
  ``array('i')`` columns and are adopted wholesale by
  :meth:`repro.lts.lts.LTS.from_columns`, skipping the per-call
  bookkeeping (state growth, cache invalidation) of
  ``add_transition``.
* **packed visited set** — with ``packed=True`` the visited index keys
  on the :class:`~repro.jackal.codec.StateCodec` integer instead of
  the state tuple tree, cutting resident memory per visited state by
  roughly an order of magnitude (one small int vs a nested tuple
  graph) at the price of an encode per discovered successor.
"""

from __future__ import annotations

import gc
import sys
import time
from array import array
from typing import Callable, Hashable

from repro.errors import ExplorationLimitError
from repro.lts.explore import ExplorationStats, TransitionSystem
from repro.lts.lts import LTS
from repro.obs.core import current as _current_obs


def _codec_for(system):
    factory = getattr(system, "codec", None)
    return None if factory is None else factory()


def explore_fast(
    system: TransitionSystem,
    *,
    max_states: int | None = None,
    max_depth: int | None = None,
    keep_states: bool = False,
    on_level: Callable[[int, int], None] | None = None,
    stats: ExplorationStats | None = None,
    packed: bool = False,
    codec=None,
    certificate=None,
    obs=None,
) -> LTS:
    """Generate the reachable LTS of ``system`` by breadth-first search.

    Accepts everything :func:`repro.lts.explore.explore` accepts (and
    matches its semantics — state numbering, depth bounding, the
    partial LTS attached to :class:`ExplorationLimitError`), plus:

    Parameters
    ----------
    packed:
        Key the visited index on packed codec integers instead of the
        states themselves (requires the system to provide a codec, as
        :class:`~repro.jackal.model.JackalModel` does, or an explicit
        ``codec``). Roughly an order of magnitude less visited-set
        memory; slightly slower per state.
    codec:
        Codec overriding the system-provided one; must expose
        ``encode``/``decode``.
    certificate:
        Optional :class:`~repro.staticcheck.certificates.ReductionCertificate`.
        When given, the sweep runs on a certificate-validated
        :class:`~repro.lts.certreduce.ReducedSystem` view (symmetry
        quotient + ample pruning) and refuses with
        :class:`~repro.errors.ReproError` if the certificate does not
        validate for this system (JKL303–JKL305).
    obs:
        Optional :class:`~repro.obs.core.Instrumentation`; defaults to
        the ambient bundle. Disabled instrumentation costs one branch
        per BFS wave — the hot per-state loops are untouched.
    """
    if certificate is not None:
        from repro.lts.certreduce import ReducedSystem

        system = ReducedSystem(system, certificate)
    if obs is None:
        obs = _current_obs()
    recording = obs.enabled
    # reduction counters are cumulative on the (possibly reused)
    # wrapper, so metrics report this sweep's delta
    red0 = (
        (system.canonical_hits, system.ample_prunes, system.slice_hits)
        if hasattr(system, "canonical_hits")
        else None
    )
    if stats is None:
        # every exit path (incl. the limit error, which carries this
        # object on .stats) then reports complete timing
        stats = ExplorationStats()
    t0 = time.perf_counter()
    if packed and codec is None:
        codec = _codec_for(system)
        if codec is None:
            raise ValueError(
                "packed exploration needs a codec (system.codec() or codec=)"
            )
    encode = codec.encode if (packed and codec is not None) else None

    succ = getattr(system, "successors_fast", None) or system.successors
    succ_seconds = [0.0]
    if recording:
        # successor generation on its own clock, so waves can split
        # succ time from dedup/bookkeeping time (enabled runs only)
        timed_succ = succ
        acc = succ_seconds

        def succ(state):  # noqa: F811 - instrumented wrapper
            t = time.perf_counter()
            out = timed_succ(state)
            acc[0] += time.perf_counter() - t
            return out

    init = system.initial_state()
    index: dict = {init if encode is None else encode(init): 0}
    n = 1
    state_meta: dict[int, object] = {}
    if keep_states:
        state_meta[0] = init

    src = array("i")
    lbl = array("i")
    dst = array("i")
    src_append = src.append
    lbl_append = lbl.append
    dst_append = dst.append
    labels: list[str] = []
    labels_append = labels.append
    lmap: dict[str, int] = {}
    lmap_get = lmap.get
    index_setdefault = index.setdefault

    frontier: list[tuple[int, Hashable]] = [(0, init)]
    depth = 0
    level_sizes = [1]
    max_frontier = 1

    def _finish_stats():
        stats.states = n
        stats.transitions = len(src)
        stats.max_frontier = max_frontier
        stats.seconds = time.perf_counter() - t0
        stats.depth = depth
        stats.level_sizes = level_sizes

    def _emit_end(outcome: str) -> None:
        backend = "engine-packed" if encode is not None else "engine"
        reduction = (
            {
                "canonical_hits": system.canonical_hits - red0[0],
                "ample_prunes": system.ample_prunes - red0[1],
                "slice_hits": system.slice_hits - red0[2],
            }
            if red0 is not None
            else None
        )
        obs.memwatch.note("visited_index", sys.getsizeof(index))
        obs.memwatch.sample(force=True)
        obs.tracer.emit(
            "sweep_end", backend=backend, outcome=outcome,
            states=stats.states, transitions=stats.transitions,
            seconds=round(stats.seconds, 6),
            states_per_second=round(stats.states_per_second(), 1),
            depth=stats.depth, max_frontier=stats.max_frontier,
            reduction=reduction,
            max_rss_bytes=obs.memwatch.max_rss_bytes,
            mem_pressure_events=obs.memwatch.pressure_events,
        )
        m = obs.metrics
        m.counter("repro_sweeps_total", backend=backend, outcome=outcome).inc()
        m.counter("repro_sweep_states_total").inc(stats.states)
        m.counter("repro_sweep_transitions_total").inc(stats.transitions)
        m.gauge("repro_sweep_seconds", backend=backend).set(
            round(stats.seconds, 6)
        )
        m.gauge("repro_sweep_states_per_second", backend=backend).set(
            round(stats.states_per_second(), 1)
        )
        if red0 is not None:
            m.counter("repro_reduce_canonical_hits_total").inc(
                system.canonical_hits - red0[0]
            )
            m.counter("repro_reduce_ample_prunes_total").inc(
                system.ample_prunes - red0[1]
            )
            m.counter("repro_reduce_slice_hits_total").inc(
                system.slice_hits - red0[2]
            )
        # visited-probe hits: probes that found an already-numbered
        # state (every transition probes once; discoveries miss)
        m.counter("repro_visited_probe_hits_total").inc(len(src) - n)

    def _partial_lts() -> LTS:
        out = LTS.from_columns(
            initial=0, n_states=n, src=src, lbl=lbl, dst=dst, labels=labels
        )
        out.state_meta = state_meta
        return out

    if recording:
        obs.tracer.emit(
            "sweep_start",
            backend="engine-packed" if encode is not None else "engine",
            max_states=max_states, max_depth=max_depth,
            packed=encode is not None,
        )
        obs.tracer.emit("gc_suspend")
    # nearly every allocation of the sweep stays alive in the visited
    # index, so generational GC passes rescan an ever-growing live set
    # for nothing — suspend collection for the duration
    gc_was_enabled = gc.isenabled()
    gc.disable()
    gc_t0 = time.perf_counter()
    # the tight path drops the per-transition limit and codec branches
    tight = max_states is None and encode is None and not keep_states
    try:
        while frontier:
            if max_depth is not None and depth >= max_depth:
                break
            wave_t0 = time.perf_counter()
            wave_succ0 = succ_seconds[0]
            wave_trans0 = len(src)
            next_frontier: list[tuple[int, Hashable]] = []
            nf_append = next_frontier.append
            if tight:
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
            else:
                for sidx, state in frontier:
                    for label, nxt in succ(state):
                        didx = index_setdefault(
                            nxt if encode is None else encode(nxt), n
                        )
                        if didx == n:
                            n += 1
                            if keep_states:
                                state_meta[didx] = nxt
                            nf_append((didx, nxt))
                        lid = lmap_get(label)
                        if lid is None:
                            lid = lmap[label] = len(labels)
                            labels_append(label)
                        src_append(sidx)
                        lbl_append(lid)
                        dst_append(didx)
                        if max_states is not None and n > max_states:
                            max_frontier = max(
                                max_frontier, len(next_frontier)
                            )
                            _finish_stats()
                            if recording:
                                _emit_end("limit")
                            raise ExplorationLimitError(
                                f"state limit {max_states} exceeded "
                                f"at depth {depth}",
                                partial=_partial_lts(),
                                stats=stats,
                            )
            depth += 1
            frontier = next_frontier
            if frontier:
                level_sizes.append(len(frontier))
                if len(frontier) > max_frontier:
                    max_frontier = len(frontier)
            if recording:
                wave_s = time.perf_counter() - wave_t0
                succ_s = succ_seconds[0] - wave_succ0
                obs.tracer.emit(
                    "wave", depth=depth, states=n, frontier=len(frontier),
                    transitions=len(src) - wave_trans0,
                    wave_s=round(wave_s, 6), succ_s=round(succ_s, 6),
                    dedup_s=round(max(wave_s - succ_s, 0.0), 6),
                )
                obs.memwatch.note("visited_index", sys.getsizeof(index))
                obs.memwatch.sample()
                elapsed = time.perf_counter() - t0
                obs.progress.maybe(
                    states=n, sps=n / elapsed if elapsed > 0 else 0.0,
                    frontier=len(frontier), depth=depth,
                )
            if on_level is not None:
                on_level(depth, n)
    finally:
        if gc_was_enabled:
            gc.enable()
        if recording:
            obs.tracer.emit(
                "gc_resume",
                suspended_s=round(time.perf_counter() - gc_t0, 6),
            )

    _finish_stats()
    if recording:
        _emit_end("ok")
    return _partial_lts()
