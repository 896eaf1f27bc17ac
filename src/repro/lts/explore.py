"""Explicit-state LTS generation.

This module is the serial instantiator: it turns any object implementing
the :class:`TransitionSystem` protocol (an initial state plus a successor
function over hashable states) into an explicit :class:`~repro.lts.LTS`
by breadth-first search. BFS order matters: state 0 is the initial state
and the discovered distance ordering lets deadlock analysis return
*shortest* error traces, exactly how the paper's counterexamples were
extracted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Protocol, runtime_checkable

from repro.errors import ExplorationLimitError
from repro.lts.lts import LTS
from repro.obs.core import current as _current_tracer, peak_rss_bytes


@runtime_checkable
class TransitionSystem(Protocol):
    """Anything that can be explored into an LTS.

    States must be hashable and equality-comparable; the successor
    relation must be deterministic as a *function of the state* (calling
    it twice on the same state yields the same transitions), which every
    model in this package guarantees.

    One optional member lets :func:`repro.lts.engine.explore_fast` go
    faster without changing the LTS it builds (this explorer ignores
    it; it is the reference the kernel is tested against):

    ``kernel()``
        the same relation over packed states, a whole BFS level per
        call — an object with ``pack(states) -> rows`` (one row of
        ``uint64`` words per state, equal states giving equal bytes),
        ``unpack(rows) -> states``, ``labels`` (a list of strings) and
        ``expand(rows) -> (succ_rows, src_pos, label_ids)``: every
        transition ``rows[src_pos[i]] --labels[label_ids[i]]-->
        succ_rows[i]``, sorted by ``src_pos`` and, per source, in
        ``successors`` order.
    """

    def initial_state(self) -> Hashable:
        """The (single) initial state."""
        ...

    def successors(self, state: Hashable) -> Iterable[tuple[str, Hashable]]:
        """All outgoing ``(action label, next state)`` pairs of ``state``."""
        ...


@dataclass
class ExplorationStats:
    """Bookkeeping gathered while generating an LTS."""

    states: int = 0
    transitions: int = 0
    max_frontier: int = 0
    seconds: float = 0.0
    depth: int = 0
    #: states per BFS level, level 0 being the initial state
    level_sizes: list[int] = field(default_factory=list)

    def states_per_second(self) -> float:
        """Generation throughput (0 when timing was too fast to measure)."""
        return self.states / self.seconds if self.seconds > 0 else 0.0


def explore(
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

    Parameters
    ----------
    system:
        The transition system to instantiate.
    max_states:
        Abort with :class:`~repro.errors.ExplorationLimitError` once more
        than this many states have been discovered. The partially built
        LTS is attached to the exception, mirroring how the paper could
        only partially analyse its third configuration.
    max_depth:
        Stop expanding beyond this BFS depth (the LTS is then a
        depth-bounded under-approximation; no error is raised).
    keep_states:
        When true, store each model state in ``lts.state_meta`` so traces
        can be decoded back into protocol configurations.
    on_level:
        Callback ``(depth, states_so_far)`` invoked per completed level.
    stats:
        Optional stats object to fill in. A fresh one is created when
        omitted so every exit path — including the limit error, which
        carries it on ``.stats`` — reports complete timing.
    certificate:
        Optional :class:`~repro.staticcheck.certificates.ReductionCertificate`.
        When given, the sweep runs on a certificate-validated
        :class:`~repro.lts.certreduce.ReducedSystem` view (symmetry
        quotient + ample pruning) and refuses with
        :class:`~repro.errors.ReproError` if the certificate does not
        validate for this system (JKL303–JKL305).
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`; defaults to the
        ambient one (disabled unless activated).

    Returns
    -------
    LTS
        States are numbered in BFS discovery order; state 0 is initial.
    """
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
        stats = ExplorationStats()
    t0 = time.perf_counter()
    lts = LTS(initial=0)
    init = system.initial_state()
    index: dict[Hashable, int] = {init: 0}
    lts.ensure_states(1)
    state_meta: dict[int, Hashable] = {}
    lts.state_meta = state_meta
    if keep_states:
        state_meta[0] = init

    frontier: list[Hashable] = [init]
    depth = 0
    level_sizes = [1]
    max_frontier = 1
    succ = system.successors
    add_transition = lts.add_transition

    succ_seconds = [0.0]
    if recording:
        tracer.emit(
            "sweep_start", backend="serial",
            max_states=max_states, max_depth=max_depth,
        )
        # charge successor generation (including generator consumption)
        # to its own clock so waves can split succ time from dedup time
        raw_succ = succ
        acc = succ_seconds

        def succ(state):  # noqa: F811 - instrumented wrapper
            t = time.perf_counter()
            out = list(raw_succ(state))
            acc[0] += time.perf_counter() - t
            return out

    def _finish_stats() -> None:
        stats.states = len(index)
        stats.transitions = lts.n_transitions
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
            "sweep_end", backend="serial", outcome=outcome,
            states=stats.states, transitions=stats.transitions,
            seconds=round(stats.seconds, 6),
            states_per_second=round(stats.states_per_second(), 1),
            depth=stats.depth, max_frontier=stats.max_frontier,
            reduction=reduction, max_rss_bytes=peak_rss_bytes(),
        )

    while frontier:
        if max_depth is not None and depth >= max_depth:
            break
        wave_t0 = time.perf_counter()
        wave_succ0 = succ_seconds[0]
        next_frontier: list[Hashable] = []
        for state in frontier:
            sidx = index[state]
            for label, nxt in succ(state):
                didx = index.get(nxt)
                if didx is None:
                    didx = len(index)
                    index[nxt] = didx
                    lts.ensure_states(didx + 1)
                    if keep_states:
                        state_meta[didx] = nxt
                    next_frontier.append(nxt)
                    if max_states is not None and len(index) > max_states:
                        add_transition(sidx, label, didx)
                        max_frontier = max(max_frontier, len(next_frontier))
                        _finish_stats()
                        if recording:
                            _emit_end("limit")
                        raise ExplorationLimitError(
                            f"state limit {max_states} exceeded at depth {depth}",
                            partial=lts,
                            stats=stats,
                        )
                add_transition(sidx, label, didx)
        depth += 1
        frontier = next_frontier
        if frontier:
            level_sizes.append(len(frontier))
        max_frontier = max(max_frontier, len(frontier))
        if recording:
            wave_s = time.perf_counter() - wave_t0
            succ_s = succ_seconds[0] - wave_succ0
            tracer.emit(
                "wave", depth=depth, states=len(index),
                frontier=len(frontier), wave_s=round(wave_s, 6),
                succ_s=round(succ_s, 6),
                dedup_s=round(max(wave_s - succ_s, 0.0), 6),
            )
        if on_level is not None:
            on_level(depth, len(index))

    _finish_stats()
    if recording:
        _emit_end("ok")
    return lts


def breadth_first_states(
    system: TransitionSystem, *, max_states: int | None = None
) -> Iterable[Hashable]:
    """Yield the reachable states of ``system`` in BFS order.

    A lighter-weight alternative to :func:`explore` for analyses that do
    not need the transition structure (e.g. invariant checking). When
    ``max_states`` is exceeded, the raised
    :class:`~repro.errors.ExplorationLimitError` carries the set of
    states discovered so far on its ``partial`` attribute.
    """
    init = system.initial_state()
    seen = {init}
    frontier = [init]
    yield init
    while frontier:
        nxt: list[Hashable] = []
        for state in frontier:
            for _label, succ in system.successors(state):
                if succ not in seen:
                    seen.add(succ)
                    if max_states is not None and len(seen) > max_states:
                        raise ExplorationLimitError(
                            f"state limit {max_states} exceeded",
                            partial=seen,
                        )
                    nxt.append(succ)
                    yield succ
        frontier = nxt
