"""Fast explicit-state exploration engine.

The drop-in successor of :func:`repro.lts.explore.explore` for
performance-critical generation. Same breadth-first order, same LTS,
same limit semantics — but engineered for throughput:

* **frontier kernel** — the system's ``kernel()`` (a
  :class:`~repro.jackal.model.JackalModel`'s, or the
  :class:`~repro.lts.certreduce.ReducedKernel` of a reduced view of
  one) is swept a whole BFS level at a time: the kernel expands the
  level's packed rows into candidate rows in ``successors`` order, a
  :class:`~repro.lts.rowset.RowSet` numbers them — every visited row
  in state-id order in power-of-two segments beside a hash table of
  ids, so no row ever becomes a Python object — the next frontier is
  the rows the level added, and ``state_meta`` decodes rows on access
  (:class:`RowStates`). A system without a kernel is refused: the
  reference explorer is the only loop that runs ``successors``.
* **one loop, two destinations** — each numbered wave goes to a
  destination. :func:`explore_fast` keeps every transition: they
  accumulate directly into ``array('i')`` columns, labels interned
  once per label through one array, and are adopted wholesale by
  :meth:`repro.lts.lts.LTS.from_columns`. :func:`search_tree` keeps no
  transition at all, only what deadlock and reachability questions
  read: one BFS parent and label per state, the states without a move
  (decided on the spot), and the sources of the moves it was asked to
  mark (:class:`SearchTree`).
* **observed labels** — a sweep can *observe* labels instead of
  handing their moves (probe self-loops) to its destination: each sets
  one bit of its source state (:class:`Observations`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable

import numpy as np

from repro.errors import ExplorationLimitError, ReproError
from repro.lts.explore import ExplorationStats, TransitionSystem
from repro.lts.frontier import distinct
from repro.lts.lts import LTS
from repro.lts.rowset import RowSet
from repro.lts.trace import Trace
from repro.obs.core import current as _current_tracer, peak_rss_bytes


class RowStates(Mapping):
    """Read-only ``state id -> model state`` over a kernel sweep's rows.

    A packed row is a fraction of the tuple tree it stands for, and most
    consumers read a handful of states (Requirement 1: the terminal
    ones), so states are decoded when asked for. :meth:`values` decodes
    everything in bulk — a snapshot list, not a view, at a fraction of
    the per-row cost. The rows are the row set's segments
    (:meth:`RowSet.segments`), read in place.
    """

    def __init__(self, kernel, segments: list[np.ndarray]):
        self._kernel = kernel
        self._segments = segments
        self._starts = [0]
        for seg in segments:
            self._starts.append(self._starts[-1] + len(seg))

    def __len__(self) -> int:
        return self._starts[-1]

    def __iter__(self):
        return iter(range(len(self)))

    def __getitem__(self, idx):
        if not (isinstance(idx, (int, np.integer)) and 0 <= idx < len(self)):
            raise KeyError(idx)
        k = bisect_right(self._starts, idx) - 1
        at = idx - self._starts[k]
        return self._kernel.unpack(self._segments[k][at:at + 1])[0]

    def values(self) -> list:  # type: ignore[override]
        return [
            state for seg in self._segments
            for state in self._kernel.unpack(seg)
        ]


class Observations:
    """The moves of ``labels`` a sweep observed: bit ``i`` of ``bits[s]``
    says that state ``s`` has a move labelled ``labels[i]``; ``count``
    is the number of such moves. States never expanded have no bits."""

    def __init__(self, names: list[str], labels: Iterable[str]):
        self.labels = tuple(labels)  # a byte a state: at most 8
        self._bit = np.zeros(len(names), dtype=np.uint8)
        for i, lab in enumerate(self.labels):
            if lab in names:
                self._bit[names.index(lab)] = 1 << i
        self._bits = array("B")
        self.count = 0

    @property
    def bits(self) -> np.ndarray:
        return np.frombuffer(self._bits, dtype=np.uint8)

    def states(self, *labels: str) -> np.ndarray:
        """The states that have a move of each of ``labels``, ascending."""
        want = sum(1 << self.labels.index(lab) for lab in labels)
        return np.flatnonzero((self.bits & want) == want)

    def wave(self, n_level: int, src_pos, lids) -> np.ndarray | None:
        """Observe the moves (``src_pos``, name ids ``lids``) of the next
        ``n_level`` states; the mask of the others (``None``: all)."""
        if not self.labels:
            return None
        bit = self._bit[lids]
        seen = bit.nonzero()[0]
        level = np.zeros(n_level, dtype=np.uint8)
        np.bitwise_or.at(level, src_pos[seen], bit[seen])
        self._bits.frombytes(level.tobytes())
        self.count += len(seen)
        return bit == 0


@dataclass
class SearchTree:
    """What :func:`search_tree` keeps of a sweep: no transition, but
    enough to decide deadlock freedom and the reachability of marked
    moves, with the shortest traces the full LTS would give.

    Attributes
    ----------
    parent, via:
        Per state, the state that first discovered it and the kernel
        label id of that move (``-1`` and ``0`` at the initial state).
        Discovery is in state-id order, so these are the BFS tree of
        :func:`~repro.lts.deadlock.shortest_path` on the full LTS.
    deadlocks, terminal_ok:
        The states without a move (observed ones aside), in id order,
        split by the ``is_valid_end`` predicate.
    marked:
        The sources of the marked moves, ascending and distinct.
    marked_labels:
        The marked labels that occur, in kernel order.
    observed:
        The observed moves (``None``: no label was observed), which
        ``n_transitions`` does not count.
    """

    labels: list[str]
    parent: np.ndarray
    via: np.ndarray
    deadlocks: list[int]
    terminal_ok: list[int]
    marked: np.ndarray
    marked_labels: list[str]
    n_states: int
    n_transitions: int
    observed: Observations | None = None

    def trace_to(self, targets: Iterable[int]) -> Trace | None:
        """Shortest label trace from state 0 to any of ``targets`` —
        that of :func:`~repro.lts.deadlock.shortest_trace_to` on the
        full LTS: the lowest id is the first target a BFS meets."""
        targets = np.fromiter(targets, dtype=np.int64)
        if not targets.size:
            return None
        cur = int(targets.min())
        labels = []
        while cur > 0:
            labels.append(self.labels[self.via[cur]])
            cur = int(self.parent[cur])
        labels.reverse()
        return Trace(tuple(labels))


class _Columns:
    """:func:`explore_fast`'s destination: every transition, as the
    three columns of an LTS."""

    name = "columns"

    def __init__(self, kernel, keep_states: bool):
        self.kernel = kernel
        self.keep_states = keep_states
        self.src, self.lbl, self.dst = array("i"), array("i"), array("i")
        self.labels: list[str] = []
        # kernel label id -> LTS label id, in first-appearance order
        self.kmap = np.full(len(kernel.labels), -1, dtype=np.int32)

    @property
    def n_transitions(self) -> int:
        return len(self.src)

    @property
    def nbytes(self) -> int:
        return 12 * len(self.src)

    def wave(self, level, first, n0, src_pos, lids, ids, whole) -> None:
        lcol = self.kmap[lids]
        if lcol.size and lcol.min() < 0:
            unseen, at = np.unique(lids[lcol < 0], return_index=True)
            for lid in unseen[np.argsort(at)].tolist():
                self.kmap[lid] = len(self.labels)
                self.labels.append(self.kernel.labels[lid])
            lcol = self.kmap[lids]
        self.src.frombytes((src_pos + first).astype(np.int32).tobytes())
        self.lbl.frombytes(lcol.tobytes())
        self.dst.frombytes(ids.tobytes())

    def result(self, visited: RowSet) -> LTS:
        out = LTS.from_columns(
            initial=0, n_states=len(visited), src=self.src, lbl=self.lbl,
            dst=self.dst, labels=self.labels,
        )
        out.state_meta = (
            RowStates(self.kernel, visited.segments())
            if self.keep_states else {}
        )
        return out


class _Tree:
    """:func:`search_tree`'s destination (see :class:`SearchTree`)."""

    name = "tree"

    def __init__(self, kernel, mark, is_valid_end):
        self.kernel = kernel
        names = kernel.labels
        self.mark = np.fromiter(map(mark, names), dtype=bool, count=len(names))
        self.is_valid_end = is_valid_end
        self.parent = array("i", [-1])
        self.via = array("i", [0])
        self.deadlocks: list[int] = []
        self.terminal_ok: list[int] = []
        self.marked: list[np.ndarray] = []
        self.marked_lids: set[int] = set()
        self.n_transitions = 0

    @property
    def nbytes(self) -> int:
        return 4 * (len(self.parent) + len(self.via)) + sum(
            m.nbytes for m in self.marked
        )

    def wave(self, level, first, n0, src_pos, lids, ids, whole) -> None:
        self.n_transitions += len(ids)
        # new ids are handed out in order of first appearance, so a
        # candidate discovers a state iff its id is new and tops every
        # id before it
        found = ids >= n0
        found[1:] &= ids[1:] > np.maximum.accumulate(ids)[:-1]
        pos = found.nonzero()[0]
        self.parent.frombytes(
            (src_pos[pos] + first).astype(np.int32).tobytes()
        )
        self.via.frombytes(lids[pos].astype(np.int32).tobytes())
        hit = self.mark[lids]
        if hit.any():
            self.marked.append(
                distinct(src_pos[hit]).astype(np.int32) + first
            )
            self.marked_lids.update(distinct(lids[hit]).tolist())
        if not whole:
            return  # rows past the cut are not known to be stuck
        moved = np.zeros(len(level), dtype=bool)
        moved[src_pos] = True
        stuck = (~moved).nonzero()[0]
        if not stuck.size:
            return
        states = self.kernel.unpack(level[stuck])
        for i, state in zip(stuck.tolist(), states):
            valid = self.is_valid_end is not None and self.is_valid_end(state)
            (self.terminal_ok if valid else self.deadlocks).append(first + i)

    def result(self, visited: RowSet) -> SearchTree:
        names = self.kernel.labels
        return SearchTree(
            labels=names,
            parent=np.frombuffer(self.parent, dtype=np.int32),
            via=np.frombuffer(self.via, dtype=np.int32),
            deadlocks=self.deadlocks,
            terminal_ok=self.terminal_ok,
            marked=(
                np.concatenate(self.marked) if self.marked
                else np.zeros(0, dtype=np.int32)
            ),
            marked_labels=[names[i] for i in sorted(self.marked_lids)],
            n_states=len(visited),
            n_transitions=self.n_transitions,
        )


def explore_fast(
    system: TransitionSystem,
    *,
    max_states: int | None = None,
    keep_states: bool = False,
    stats: ExplorationStats | None = None,
    observe: Iterable[str] = (),
) -> LTS:
    """Generate the reachable LTS of ``system`` by sweeping its
    ``kernel()`` a BFS level at a time.

    Matches :func:`repro.lts.explore.explore` on every system that has
    a kernel — state numbering, stats, the partial LTS attached to
    :class:`ExplorationLimitError`. A system without ``kernel()`` is
    refused with :class:`~repro.errors.ReproError`: it belongs to
    :func:`~repro.lts.explore.explore`. A reduced view is swept by
    wrapping the model in :class:`~repro.lts.certreduce.ReducedSystem`.
    The sweep records on the ambient tracer (:func:`repro.obs.activate`);
    a disabled one costs a no-op call per BFS wave.

    The moves labelled in ``observe`` (self-loops, as the probes are)
    are not kept: each sets a bit of its source in ``lts.observed``.
    """
    if getattr(system, "kernel", None) is None:
        raise ReproError(
            f"explore_fast sweeps a kernel(): {type(system).__name__} has "
            "none (repro.lts.explore.explore explores it state by state)"
        )
    return _sweep(
        system, lambda kernel: _Columns(kernel, keep_states),
        max_states=max_states, stats=stats, observe=observe,
    )


def search_tree(
    system: TransitionSystem,
    *,
    observe: Iterable[str] = (),
    mark: Callable[[str], bool] = lambda label: False,
    is_valid_end: Callable[[Hashable], bool] | None = None,
    max_states: int | None = None,
) -> SearchTree:
    """Sweep ``system`` (which must offer ``kernel()``) as
    :func:`explore_fast` does, keeping a :class:`SearchTree` instead of
    the transitions.

    ``observe`` is as for :func:`explore_fast`. A state counts as
    terminal when it has no other move; it is decoded on the spot and
    filed under ``terminal_ok`` when ``is_valid_end`` accepts it, else
    under ``deadlocks`` — :func:`~repro.lts.deadlock.find_deadlocks`
    on the full LTS. The moves whose label satisfies ``mark`` are recorded by
    source. State and transition counts, the limit, its message and
    its ``stats`` are those of :func:`explore_fast`; on the limit the
    error's ``partial`` is the tree of the states numbered so far, with
    the terminal states of the levels expanded in full and the marked
    moves before the cut.
    """
    return _sweep(
        system, lambda kernel: _Tree(kernel, mark, is_valid_end),
        max_states=max_states, stats=None, observe=observe,
    )


def _sweep(system, make_dest, *, max_states, stats, observe):
    """The level loop: number each wave, hand it to the destination
    ``make_dest(kernel)`` builds, return the destination's result with
    the moves labelled in ``observe`` as its ``observed``.

    A destination's ``wave(level, first, n0, src_pos, lids, ids, whole)``
    gets the rows just expanded (state ids from ``first``), the
    candidates' source positions, kernel label ids and state ids (new
    ids start at ``n0``), cut at the limit and without the observed
    moves, and whether the level was expanded whole. The sweep is one
    ``sweep_end`` span of the ambient tracer, and its waves are laps of
    it."""
    tracer = _current_tracer()
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
    with tracer.span("sweep_end", backend="engine") as sweep:
        kernel = system.kernel()
        dest = make_dest(kernel)
        observed = Observations(kernel.labels, observe)
        frontier = kernel.pack([system.initial_state()])
        visited = RowSet(frontier.shape[1])
        visited.add(frontier)
        n = 1

        depth = 0
        level_sizes = [1]
        max_frontier = 1
        cut = None

        tracer.emit("sweep_start", backend="engine", max_states=max_states)
        while len(frontier):
            wave_t0 = sweep.lap()
            wave_trans0 = dest.n_transitions
            cand, src_pos, lids = kernel.expand(frontier)
            succ_s = sweep.lap() - wave_t0
            first = n - len(frontier)  # the frontier was numbered last
            # on a breach the wave is cut after the transition that
            # discovers state number ``max_states`` (or, as in the reference
            # explorer, the first new state when the limit is below 1)
            ids, cut = visited.add(
                cand, None if max_states is None else max(max_states + 1 - n, 1)
            )
            if cut is not None:
                src_pos, lids = src_pos[:cut], lids[:cut]
            level, frontier = frontier, visited.rows(n)
            # an observed move is a self-loop: it discovers no state
            kept = observed.wave(len(level), src_pos, lids)
            if kept is not None:
                src_pos, lids, ids = src_pos[kept], lids[kept], ids[kept]
            dest.wave(level, first, n, src_pos, lids, ids, cut is None)
            n = len(visited)
            # free the level's candidates before the next expand allocates
            # its own: holding both raises the sweep's peak memory
            del level, cand, src_pos, lids, ids, kept
            if cut is not None:
                max_frontier = max(max_frontier, len(frontier))
                break
            depth += 1
            if len(frontier):
                level_sizes.append(len(frontier))
                if len(frontier) > max_frontier:
                    max_frontier = len(frontier)
            wave_s = sweep.lap() - wave_t0
            tracer.emit(
                "wave", depth=depth, states=n, frontier=len(frontier),
                transitions=dest.n_transitions - wave_trans0,
                wave_s=round(wave_s, 6), succ_s=round(succ_s, 6),
                dedup_s=round(max(wave_s - succ_s, 0.0), 6),
            )

        stats.states = n
        stats.transitions = dest.n_transitions
        stats.max_frontier = max_frontier
        stats.seconds = sweep.stop()
        stats.depth = depth
        stats.level_sizes = level_sizes
        sweep.fields.update(
            outcome="ok" if cut is None else "limit",
            states=stats.states, transitions=stats.transitions,
            states_per_second=round(stats.states_per_second(), 1),
            depth=stats.depth, max_frontier=stats.max_frontier,
            bytes_per_state=round(visited.nbytes / stats.states, 1),
            dest=dest.name, dest_bytes=dest.nbytes,
            observed=observed.count,
            reduction=None if red0 is None else {
                "canonical_hits": system.canonical_hits - red0[0],
                "ample_prunes": system.ample_prunes - red0[1],
                "slice_hits": system.slice_hits - red0[2],
            },
            max_rss_bytes=peak_rss_bytes(),
        )
    out = dest.result(visited)
    out.observed = observed if observed.labels else None
    if cut is not None:
        raise ExplorationLimitError(
            f"state limit {max_states} exceeded at depth {depth}",
            partial=out,
            stats=stats,
        )
    return out
