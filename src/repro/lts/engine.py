"""Fast explicit-state exploration engine.

The drop-in successor of :func:`repro.lts.explore.explore` for
performance-critical generation. Same breadth-first order, same LTS,
same limit semantics — but engineered for throughput:

* **frontier kernel** — a system offering ``kernel()`` (e.g.
  :class:`~repro.jackal.model.JackalModel`) is swept a whole BFS level
  at a time: the kernel expands the level's packed rows into candidate
  rows in ``successors`` order, a :class:`~repro.lts.rowset.RowSet`
  numbers them — one array of every visited row in state-id order
  beside a hash table of ids, so no row ever becomes a Python object —
  the next frontier is the slice of that array the level added, and
  ``state_meta`` decodes rows on access (:class:`RowStates`). Which
  loop runs is a property of the system — it has a kernel or it does
  not — never of an option or a size.
* **fast successor path** — a kernel-less system exposing
  ``successors_fast`` (e.g.
  :class:`~repro.lts.certreduce.ReducedSystem`) is expanded through
  it, one state at a time; the readable reference relation stays the
  specification.
* **one hash per discovery** — the scalar loop's visited index is
  probed with ``dict.setdefault`` instead of a get/store pair, and its
  frontier carries ``(index, state)`` pairs so expansion never
  re-hashes a state it already numbered.
* **label interning once per label** — labels are interned into a
  local table as they appear instead of per-transition method calls
  into the LTS.
* **columnar transitions** — transitions accumulate directly into
  ``array('i')`` columns and are adopted wholesale by
  :meth:`repro.lts.lts.LTS.from_columns`, skipping the per-call
  bookkeeping (state growth, cache invalidation) of
  ``add_transition``.
"""

from __future__ import annotations

import gc
import sys
import time
from array import array
from collections.abc import Mapping
from typing import Callable

import numpy as np

from repro.errors import ExplorationLimitError
from repro.lts.explore import ExplorationStats, TransitionSystem
from repro.lts.lts import LTS
from repro.lts.rowset import RowSet
from repro.obs.core import current as _current_obs


class RowStates(Mapping):
    """Read-only ``state id -> model state`` over a kernel sweep's rows.

    A packed row is a fraction of the tuple tree it stands for, and most
    consumers read a handful of states (Requirement 1: the terminal
    ones), so states are decoded when asked for. :meth:`values` and
    :meth:`items` decode everything in bulk — a snapshot list, not a
    view, at a fraction of the per-row cost.
    """

    def __init__(self, kernel, rows: np.ndarray):
        self._kernel = kernel
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return iter(range(len(self._rows)))

    def __getitem__(self, idx):
        if not (
            isinstance(idx, (int, np.integer)) and 0 <= idx < len(self._rows)
        ):
            raise KeyError(idx)
        return self._kernel.unpack(self._rows[idx:idx + 1])[0]

    def values(self) -> list:  # type: ignore[override]
        return self._kernel.unpack(self._rows)

    def items(self) -> list:  # type: ignore[override]
        return list(enumerate(self.values()))


def explore_fast(
    system: TransitionSystem,
    *,
    max_states: int | None = None,
    max_depth: int | None = None,
    keep_states: bool = False,
    on_level: Callable[[int, int], None] | None = None,
    stats: ExplorationStats | None = None,
    certificate=None,
    obs=None,
) -> LTS:
    """Generate the reachable LTS of ``system`` by breadth-first search.

    Accepts everything :func:`repro.lts.explore.explore` accepts and
    matches its semantics — state numbering, depth bounding, the
    partial LTS attached to :class:`ExplorationLimitError` — whichever
    loop the system gets (see the module notes).

    Parameters
    ----------
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

    kernel = getattr(system, "kernel", None)
    succ_seconds = [0.0]

    init = system.initial_state()
    n = 1
    state_meta: dict[int, object] = {}

    src = array("i")
    lbl = array("i")
    dst = array("i")
    labels: list[str] = []

    if kernel is None:
        succ = getattr(system, "successors_fast", None) or system.successors
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

        index = {init: 0}
        lmap: dict[str, int] = {}
        if keep_states:
            state_meta[0] = init
        frontier = [(0, init)]

        def step(frontier):
            """Expand ``[(id, state), ...]``; stops at the transition
            that discovers state number ``max_states``."""
            nonlocal n
            count = n  # a local in the hot loop; written back on exit
            index_setdefault = index.setdefault
            src_append, lbl_append = src.append, lbl.append
            dst_append = dst.append
            lmap_get = lmap.get
            nxt: list = []
            nxt_append = nxt.append
            for sidx, state in frontier:
                for label, state2 in succ(state):
                    didx = index_setdefault(state2, count)
                    if didx == count:
                        count += 1
                        if keep_states:
                            state_meta[didx] = state2
                        nxt_append((didx, state2))
                    lid = lmap_get(label)
                    if lid is None:
                        lid = lmap[label] = len(labels)
                        labels.append(label)
                    src_append(sidx)
                    lbl_append(lid)
                    dst_append(didx)
                    if max_states is not None and count > max_states:
                        n = count
                        return nxt, True
            n = count
            return nxt, False

    else:
        kernel = kernel()
        frontier = kernel.pack([init])
        visited = RowSet(frontier.shape[1])
        visited.add(frontier)
        # kernel label id -> LTS label id, in first-appearance order
        kmap = np.full(len(kernel.labels), -1, dtype=np.int32)

        def step(frontier):
            """Expand a level of packed rows; on a breach the columns are
            cut after the transition that discovers state number
            ``max_states``."""
            nonlocal n
            t = time.perf_counter()
            cand, src_pos, lids = kernel.expand(frontier)
            succ_seconds[0] += time.perf_counter() - t
            first = n - len(frontier)  # the frontier was numbered last
            ids, cut = visited.add(
                cand, None if max_states is None else max_states + 1 - n
            )
            if cut is not None:
                src_pos, lids = src_pos[:cut], lids[:cut]
            # sliced after the add: growing the set moves its rows
            nxt = visited.rows[n:]
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
            return nxt, cut is not None

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

    def visited_bytes() -> int:
        # exact for the row set; for the scalar loop the dict's own
        # table only, its keys being the states themselves
        return sys.getsizeof(index) if kernel is None else visited.nbytes

    def _emit_end(outcome: str) -> None:
        reduction = (
            {
                "canonical_hits": system.canonical_hits - red0[0],
                "ample_prunes": system.ample_prunes - red0[1],
                "slice_hits": system.slice_hits - red0[2],
            }
            if red0 is not None
            else None
        )
        obs.memwatch.note("visited_index", visited_bytes())
        obs.memwatch.sample(force=True)
        obs.tracer.emit(
            "sweep_end", backend="engine", outcome=outcome,
            states=stats.states, transitions=stats.transitions,
            seconds=round(stats.seconds, 6),
            states_per_second=round(stats.states_per_second(), 1),
            depth=stats.depth, max_frontier=stats.max_frontier,
            bytes_per_state=round(visited_bytes() / stats.states, 1),
            reduction=reduction,
            max_rss_bytes=obs.memwatch.max_rss_bytes,
            mem_pressure_events=obs.memwatch.pressure_events,
        )
        m = obs.metrics
        m.counter("repro_sweeps_total", backend="engine", outcome=outcome).inc()
        m.counter("repro_sweep_states_total").inc(stats.states)
        m.counter("repro_sweep_transitions_total").inc(stats.transitions)
        m.gauge("repro_sweep_seconds", backend="engine").set(
            round(stats.seconds, 6)
        )
        m.gauge("repro_sweep_states_per_second", backend="engine").set(
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
        if kernel is not None and keep_states:
            out.state_meta = RowStates(kernel, visited.rows)
        else:
            out.state_meta = state_meta
        return out

    if recording:
        obs.tracer.emit(
            "sweep_start", backend="engine",
            max_states=max_states, max_depth=max_depth,
        )
        obs.tracer.emit("gc_suspend")
    # nearly every allocation of the scalar loop stays alive in the
    # visited index, so generational GC passes rescan an ever-growing
    # live set for nothing — suspend collection for the duration (the
    # kernel loop allocates arrays, which the collector does not track:
    # there the suspension costs and saves nothing)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    gc_t0 = time.perf_counter()
    try:
        while len(frontier):
            if max_depth is not None and depth >= max_depth:
                break
            wave_t0 = time.perf_counter()
            wave_succ0 = succ_seconds[0]
            wave_trans0 = len(src)
            frontier, breached = step(frontier)
            if breached:
                max_frontier = max(max_frontier, len(frontier))
                _finish_stats()
                if recording:
                    _emit_end("limit")
                raise ExplorationLimitError(
                    f"state limit {max_states} exceeded at depth {depth}",
                    partial=_partial_lts(),
                    stats=stats,
                )
            depth += 1
            if len(frontier):
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
                obs.memwatch.note("visited_index", visited_bytes())
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
