"""Level-synchronous frontier kernels over an LTS's CSR adjacency.

Every analysis that walks the graph after generation — the checker's
linear-time fixpoints, shortest-trace BFS, the lasso search's trimming
— does so one *frontier* at a time: gather the
adjacency slices of all frontier states in one array pass
(:func:`expand`), filter, deduplicate, repeat. A round costs a handful of
numpy calls whatever the frontier's size, so the per-edge cost is the
memory traffic rather than the interpreter.

The two fixpoint kernels solve the equations the mu-calculus checker
reduces its single-occurrence fixpoints to; the edge set of the modality
is given as a boolean mask over *label ids* and applied at gather time,
so no per-predicate adjacency is ever built.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.lts.lts import LTS


def expand(offsets: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Positions of the CSR slices of ``nodes``, concatenated.

    Order is ``nodes`` order, then slice order — for a forward CSR and a
    frontier in discovery order that is exactly the order a scalar
    queue-based BFS would scan edges in.
    """
    starts = offsets[nodes]
    counts = offsets[nodes + 1] - starts
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    # position i of the output lies in slice j: starts[j] + (i - ends[j-1])
    return np.arange(total) + np.repeat(starts - (ends - counts), counts)


def solve_mu_diamond(
    lts: LTS, label_ok: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, int]:
    """Least ``X = a \\/ (b /\\ <L>X)`` — backward reachability.

    ``label_ok`` masks the label ids in ``L``. Returns the solution and
    the number of frontier rounds (the backward depth reached).
    """
    offsets, lbl, src = lts.reverse_csr()
    x = a.copy()
    frontier = np.flatnonzero(x)
    rounds = 0
    while len(frontier):
        rounds += 1
        pos = expand(offsets, frontier)
        s = src[pos[label_ok[lbl[pos]]]]
        frontier = np.unique(s[b[s] & ~x[s]])
        x[frontier] = True
    return x, rounds


def solve_mu_box(
    lts: LTS, label_ok: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, int]:
    """Least ``X = a \\/ (b /\\ [L]X)`` — the counting algorithm.

    Every state carries the number of its ``L``-successors not yet known
    to be in ``X``; a state joins when the counter reaches zero. Each
    state enters a frontier once, so every ``L``-edge is gathered once.
    """
    offsets, lbl, src = lts.reverse_csr()
    all_src, all_lbl, _dst = lts.columns()
    pending = np.bincount(all_src[label_ok[all_lbl]], minlength=lts.n_states)
    x = a | (b & (pending == 0))
    frontier = np.flatnonzero(x)
    rounds = 0
    while len(frontier):
        rounds += 1
        pos = expand(offsets, frontier)
        s, hits = np.unique(src[pos[label_ok[lbl[pos]]]], return_counts=True)
        pending[s] -= hits
        frontier = s[(pending[s] == 0) & b[s] & ~x[s]]
        x[frontier] = True
    return x, rounds
