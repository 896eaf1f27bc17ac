"""Cycle and livelock analysis.

Requirement 4 of the paper forbids requests "bounced around the network
forever" — operationally, a reachable *lasso*: a cycle none of whose
labels signals progress. :func:`find_lasso_avoiding` produces such a
lasso as a concrete witness (prefix + cycle), which is how the Error-2
flush storm is exhibited as a trace rather than just a failed formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.lts.deadlock import shortest_path
from repro.lts.frontier import solve_mu_box
from repro.lts.lts import LTS
from repro.lts.trace import Trace


@dataclass(frozen=True)
class Lasso:
    """A reachable cycle: ``prefix`` leads from the initial state to the
    cycle's entry state; ``cycle`` returns to it."""

    prefix: Trace
    cycle: Trace

    def __len__(self) -> int:
        return len(self.prefix) + len(self.cycle)

    def format(self) -> str:
        """Readable rendering with the cycle marked."""
        out = [self.prefix.format()] if len(self.prefix) else []
        out.append("-- cycle --")
        out.append(self.cycle.format())
        return "\n".join(out)


def _on_nontrivial_scc(sub: LTS, roots: np.ndarray) -> np.ndarray:
    """Boolean vector: states of ``sub`` in an SCC of two or more states.

    Iterative Tarjan from ``roots``; the successors of a state are read
    as a slice of ``sub``'s forward CSR when the state is first visited.
    """
    offsets, _lbl, dst = sub.forward_csr()
    n = sub.n_states
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    cyclic = np.zeros(n, dtype=bool)
    stack: list[int] = []
    counter = 0
    for root in roots.tolist():
        if index[root] != -1:
            continue
        work: list[tuple[int, Iterator[int] | None]] = [(root, None)]
        while work:
            v, succ = work[-1]
            if succ is None:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
                succ = iter(dst[offsets[v] : offsets[v + 1]].tolist())
                work[-1] = (v, succ)
            for w in succ:
                if index[w] == -1:
                    work.append((w, None))
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if low[v] == index[v]:
                    members = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        members.append(w)
                        if w == v:
                            break
                    if len(members) > 1:
                        cyclic[members] = True
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
    return cyclic


def find_lasso_avoiding(
    lts: LTS,
    progress_labels: Iterable[str] | Callable[[str], bool],
    *,
    ignore_self_loops_of: Iterable[str] = (),
) -> Lasso | None:
    """Find a reachable cycle using no *progress* transition.

    Parameters
    ----------
    lts:
        The system under analysis.
    progress_labels:
        Either an iterable of labels counting as progress, or a
        predicate over labels.
    ignore_self_loops_of:
        Labels whose self-loops do not count as cycles (observability
        probes).

    Returns
    -------
    The shortest-prefix lasso found, or ``None`` when every infinite run
    makes progress infinitely often (no such cycle exists).
    """
    if callable(progress_labels):
        is_progress = progress_labels
    else:
        is_progress = set(progress_labels).__contains__
    quiet = ~lts.label_mask(is_progress)
    skip = lts.label_mask(set(ignore_self_loops_of).__contains__)

    # A cycle lies among the states with an infinite non-progress run
    # ahead — the complement of mu X. [quiet] X, which the counting
    # kernel trims away in linear time. On a system without livelock
    # nothing is left; otherwise Tarjan runs on the residue only.
    n = lts.n_states
    nowhere = np.zeros(n, dtype=bool)
    finite, _rounds = solve_mu_box(lts, quiet, nowhere, ~nowhere)
    if finite.all():
        return None
    src, lbl, dst = lts.columns()
    keep = quiet[lbl] & ~finite[src] & ~finite[dst]
    keep &= ~((src == dst) & skip[lbl])
    src, lbl, dst = src[keep], lbl[keep], dst[keep]
    sub = LTS.from_columns(
        initial=lts.initial, n_states=n,
        src=src, lbl=lbl, dst=dst, labels=lts.labels,
    )
    cyclic = _on_nontrivial_scc(sub, np.flatnonzero(~finite))
    cyclic[src[src == dst]] = True
    if not cyclic.any():
        return None

    if cyclic[lts.initial]:
        entry, prefix = lts.initial, Trace(())
    else:
        hit = shortest_path(lts, lts.initial, cyclic)
        if hit is None:
            return None
        entry, prefix = hit
    # shortest way round from the entry state, inside the subgraph
    back_at_entry = np.zeros(n, dtype=bool)
    back_at_entry[entry] = True
    _entry, cycle = shortest_path(sub, entry, back_at_entry)
    return Lasso(prefix, cycle)
