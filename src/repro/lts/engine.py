"""Fast explicit-state exploration engine.

The drop-in successor of :func:`repro.lts.explore.explore` for
performance-critical generation. Same breadth-first order, same LTS,
same limit semantics — but engineered for throughput:

* **frontier kernel** — the system's ``kernel()`` (a
  :class:`~repro.jackal.model.JackalModel`'s, or the
  :class:`~repro.lts.certreduce.ReducedKernel` of a reduced view of
  one) is swept a whole BFS level at a time: the kernel expands the
  level's packed rows into candidate rows in ``successors`` order, a
  :class:`~repro.lts.rowset.RowSet` numbers them — one array of every
  visited row in state-id order beside a hash table of ids, so no row
  ever becomes a Python object — the next frontier is the slice of
  that array the level added, and ``state_meta`` decodes rows on
  access (:class:`RowStates`). A system without a kernel is handed to
  the reference explorer (trace backend ``serial``): which loop runs is
  a property of the system, never of an option or a size.
* **label interning once per label** — kernel label ids map to LTS
  label ids through one array, extended as labels first appear,
  instead of per-transition method calls into the LTS.
* **columnar transitions** — transitions accumulate directly into
  ``array('i')`` columns and are adopted wholesale by
  :meth:`repro.lts.lts.LTS.from_columns`, skipping the per-call
  bookkeeping (state growth, cache invalidation) of
  ``add_transition``.
"""

from __future__ import annotations

import time
from array import array
from collections.abc import Mapping
from typing import Callable

import numpy as np

from repro.errors import ExplorationLimitError
from repro.lts.explore import ExplorationStats, TransitionSystem, explore
from repro.lts.lts import LTS
from repro.lts.rowset import RowSet
from repro.obs.core import current as _current_tracer, peak_rss_bytes


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
    tracer=None,
) -> LTS:
    """Generate the reachable LTS of ``system`` by breadth-first search.

    Accepts everything :func:`repro.lts.explore.explore` accepts and
    matches its semantics — state numbering, depth bounding, the
    partial LTS attached to :class:`ExplorationLimitError`. A system
    without ``kernel()`` is explored by :func:`~repro.lts.explore.explore`
    itself (see the module notes).

    Parameters
    ----------
    certificate:
        Optional :class:`~repro.staticcheck.certificates.ReductionCertificate`.
        When given, the sweep runs on a certificate-validated
        :class:`~repro.lts.certreduce.ReducedSystem` view (symmetry
        quotient + ample pruning) and refuses with
        :class:`~repro.errors.ReproError` if the certificate does not
        validate for this system (JKL303–JKL305).
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`; defaults to the
        ambient one. A disabled tracer costs one branch per BFS wave.
    """
    if getattr(system, "kernel", None) is None:
        return explore(
            system, max_states=max_states, max_depth=max_depth,
            keep_states=keep_states, on_level=on_level, stats=stats,
            certificate=certificate, tracer=tracer,
        )
    if certificate is not None:
        from repro.lts.certreduce import ReducedSystem

        system = ReducedSystem(system, certificate)
    if tracer is None:
        tracer = _current_tracer()
    recording = tracer.enabled
    # reduction counters are cumulative on the (possibly reused)
    # wrapper, so the trace reports this sweep's delta
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

    kernel = system.kernel()
    frontier = kernel.pack([system.initial_state()])
    visited = RowSet(frontier.shape[1])
    visited.add(frontier)
    n = 1
    src = array("i")
    lbl = array("i")
    dst = array("i")
    labels: list[str] = []
    # kernel label id -> LTS label id, in first-appearance order
    kmap = np.full(len(kernel.labels), -1, dtype=np.int32)

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
        reduction = (
            {
                "canonical_hits": system.canonical_hits - red0[0],
                "ample_prunes": system.ample_prunes - red0[1],
                "slice_hits": system.slice_hits - red0[2],
            }
            if red0 is not None
            else None
        )
        tracer.emit(
            "sweep_end", backend="engine", outcome=outcome,
            states=stats.states, transitions=stats.transitions,
            seconds=round(stats.seconds, 6),
            states_per_second=round(stats.states_per_second(), 1),
            depth=stats.depth, max_frontier=stats.max_frontier,
            bytes_per_state=round(visited.nbytes / stats.states, 1),
            reduction=reduction, max_rss_bytes=peak_rss_bytes(),
        )

    def _partial_lts() -> LTS:
        out = LTS.from_columns(
            initial=0, n_states=n, src=src, lbl=lbl, dst=dst, labels=labels
        )
        out.state_meta = RowStates(kernel, visited.rows) if keep_states else {}
        return out

    if recording:
        tracer.emit(
            "sweep_start", backend="engine",
            max_states=max_states, max_depth=max_depth,
        )
    while len(frontier):
        if max_depth is not None and depth >= max_depth:
            break
        wave_t0 = time.perf_counter()
        wave_trans0 = len(src)
        cand, src_pos, lids = kernel.expand(frontier)
        succ_s = time.perf_counter() - wave_t0
        first = n - len(frontier)  # the frontier was numbered last
        # on a breach the columns are cut after the transition that
        # discovers state number ``max_states``
        ids, cut = visited.add(
            cand, None if max_states is None else max_states + 1 - n
        )
        if cut is not None:
            src_pos, lids = src_pos[:cut], lids[:cut]
        # sliced after the add: growing the set moves its rows
        frontier = visited.rows[n:]
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
        # free the level's candidates before the next expand allocates
        # its own: holding both raises the sweep's peak memory
        del cand, src_pos, lids, ids, lcol
        if cut is not None:
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
            tracer.emit(
                "wave", depth=depth, states=n, frontier=len(frontier),
                transitions=len(src) - wave_trans0,
                wave_s=round(wave_s, 6), succ_s=round(succ_s, 6),
                dedup_s=round(max(wave_s - succ_s, 0.0), 6),
            )
        if on_level is not None:
            on_level(depth, n)

    _finish_stats()
    if recording:
        _emit_end("ok")
    return _partial_lts()
