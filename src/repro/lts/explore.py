"""Explicit-state LTS generation: the reference explorer.

:func:`explore` turns any object implementing the
:class:`TransitionSystem` protocol (an initial state plus a successor
function over hashable states) into an explicit :class:`~repro.lts.LTS`
by breadth-first search, one state at a time. It is the oracle the
engine (:func:`repro.lts.engine.explore_fast`) is tested against. BFS
order matters: state 0 is the initial state and the discovered distance
ordering lets deadlock analysis return *shortest* error traces, exactly
how the paper's counterexamples were extracted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Protocol, runtime_checkable

from repro.errors import ExplorationLimitError
from repro.lts.lts import LTS
from repro.obs import clock


@runtime_checkable
class TransitionSystem(Protocol):
    """Anything that can be explored into an LTS.

    States must be hashable and equality-comparable; the successor
    relation must be deterministic as a *function of the state* (calling
    it twice on the same state yields the same transitions), which every
    model in this package guarantees.

    One optional member is what :func:`repro.lts.engine.explore_fast`
    sweeps — it builds the same LTS (this explorer ignores it; it is
    the reference the kernel is tested against):

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
    keep_states: bool = False,
    stats: ExplorationStats | None = None,
) -> LTS:
    """Generate the reachable LTS of ``system`` by breadth-first search.

    The oracle the engine is held to: one state at a time through
    ``successors``, nothing traced, nothing reduced.

    Parameters
    ----------
    system:
        The transition system to instantiate.
    max_states:
        Abort with :class:`~repro.errors.ExplorationLimitError` once more
        than this many states have been discovered. The partially built
        LTS is attached to the exception, mirroring how the paper could
        only partially analyse its third configuration.
    keep_states:
        When true, store each model state in ``lts.state_meta`` so traces
        can be decoded back into protocol configurations.
    stats:
        Optional stats object to fill in. A fresh one is created when
        omitted so every exit path — including the limit error, which
        carries it on ``.stats`` — reports complete timing.

    Returns
    -------
    LTS
        States are numbered in BFS discovery order; state 0 is initial.
    """
    if stats is None:
        stats = ExplorationStats()
    t0 = clock()
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
    add_transition = lts.add_transition

    def _finish_stats() -> None:
        stats.states = len(index)
        stats.transitions = lts.n_transitions
        stats.max_frontier = max_frontier
        stats.seconds = clock() - t0
        stats.depth = depth
        stats.level_sizes = level_sizes

    while frontier:
        next_frontier: list[Hashable] = []
        for state in frontier:
            sidx = index[state]
            for label, nxt in system.successors(state):
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

    _finish_stats()
    return lts

