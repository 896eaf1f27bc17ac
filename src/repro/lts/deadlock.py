"""Deadlock detection with shortest counterexample traces.

Requirement 1 of the paper ("the protocol never ends up in a state where
it cannot perform any action") is checked here. Two refinements over the
naive notion are needed in practice:

* *probe labels* — the observability self-loops added for the
  mu-calculus checks (``c_home`` etc.) must not mask a deadlock, so they
  are discounted;
* *legitimate termination* — in the bounded-rounds protocol model, a
  state where every thread finished all its work is proper termination,
  not a deadlock. The caller supplies an ``is_valid_end`` predicate over
  state metadata to make that distinction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable

import numpy as np

from repro.errors import ReproError
from repro.lts.frontier import expand
from repro.lts.lts import LTS
from repro.lts.trace import Trace


@dataclass
class DeadlockReport:
    """Outcome of a deadlock search.

    Attributes
    ----------
    deadlock_free:
        True when no improper terminal state is reachable.
    deadlocks:
        Indices of improper terminal states (empty when deadlock free).
    terminal_ok:
        Indices of terminal states accepted by ``is_valid_end``.
    shortest_trace:
        Shortest action trace from the initial state to some deadlock
        (``None`` when deadlock free).
    """

    deadlock_free: bool
    deadlocks: list[int] = field(default_factory=list)
    terminal_ok: list[int] = field(default_factory=list)
    shortest_trace: Trace | None = None

    def summary(self) -> str:
        """One-line human-readable verdict."""
        if self.deadlock_free:
            return (
                f"deadlock free ({len(self.terminal_ok)} proper terminal "
                f"state(s))"
            )
        n = len(self.deadlocks)
        tl = len(self.shortest_trace) if self.shortest_trace else "?"
        return f"{n} deadlock state(s); shortest error trace: {tl} transitions"


def shortest_path(
    lts: LTS, source: int, is_target: np.ndarray
) -> tuple[int, Trace] | None:
    """Shortest path of at least one transition from ``source`` to a state
    flagged in the boolean vector ``is_target``: ``(state reached, trace)``,
    or ``None`` when there is none. ``source`` itself counts when a cycle
    leads back to it.

    Breadth-first, one frontier per round over the forward CSR. Ties break
    as in a scalar queue-based BFS: the frontier is kept in discovery
    order, out-edges are scanned in insertion order and the first edge to
    discover a state becomes its parent, so the trace is the one such a
    BFS yields.
    """
    offsets, lbl, dst = lts.forward_csr()
    # the BFS tree: the (state, label id) each state was discovered
    # through; -1 marks the undiscovered
    parent = np.full(lts.n_states, -1, dtype=np.int32)
    via = np.zeros(lts.n_states, dtype=np.int32)
    frontier = np.array([source])
    while len(frontier):
        pos = expand(offsets, frontier)
        pos = pos[parent[dst[pos]] < 0]
        # first occurrence of each new state, back in scan order
        pos = pos[np.sort(np.unique(dst[pos], return_index=True)[1])]
        found = dst[pos]
        parent[found] = np.searchsorted(offsets, pos, side="right") - 1
        via[found] = lbl[pos]
        hits = np.flatnonzero(is_target[found])
        if len(hits):
            reached = cur = int(found[hits[0]])
            labels = [lts.labels[via[cur]]]
            while (cur := int(parent[cur])) != source:
                labels.append(lts.labels[via[cur]])
            labels.reverse()
            return reached, Trace(tuple(labels))
        frontier = found
    return None


def shortest_trace_to(lts: LTS, targets: Iterable[int]) -> Trace | None:
    """Shortest label trace from ``lts.initial`` to any state in ``targets``
    (``None`` when no target is reachable); see :func:`shortest_path`."""
    is_target = np.zeros(lts.n_states, dtype=bool)
    is_target[np.fromiter(targets, dtype=np.int64)] = True
    if not is_target.any():
        return None
    if is_target[lts.initial]:
        return Trace(())
    hit = shortest_path(lts, lts.initial, is_target)
    return hit[1] if hit is not None else None


def find_deadlocks(
    lts: LTS,
    *,
    ignore_labels: Iterable[str] = (),
    is_valid_end: Callable[[Hashable], bool] | None = None,
) -> DeadlockReport:
    """Search ``lts`` for improper terminal states.

    Parameters
    ----------
    lts:
        The system under analysis. When ``is_valid_end`` is given, the
        LTS must carry state metadata (``keep_states=True`` during
        exploration) for the terminal states so the predicate can be
        evaluated; a terminal state without metadata is a
        :class:`~repro.errors.ReproError`, never a deadlock verdict.
    ignore_labels:
        Labels that do not count as activity (probe self-loops).
    is_valid_end:
        Predicate over state metadata distinguishing proper termination
        from deadlock. Default: every terminal state is a deadlock, the
        classical definition used in the paper's cyclic model.
    """
    terminal = lts.deadlock_states(ignore_labels=ignore_labels)
    deadlocks: list[int] = []
    ok: list[int] = []
    for s in terminal:
        if is_valid_end is not None:
            meta = lts.state_meta.get(s)
            if meta is None:
                raise ReproError(
                    f"terminal state {s} carries no state metadata to tell "
                    "proper termination from deadlock: build the LTS with "
                    "keep_states=True"
                )
            if is_valid_end(meta):
                ok.append(s)
                continue
        deadlocks.append(s)
    trace = shortest_trace_to(lts, deadlocks) if deadlocks else None
    return DeadlockReport(
        deadlock_free=not deadlocks,
        deadlocks=deadlocks,
        terminal_ok=ok,
        shortest_trace=trace,
    )
