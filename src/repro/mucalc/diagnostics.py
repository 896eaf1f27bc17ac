"""Witness and counterexample extraction.

The paper's analysts spent "a lot of time" interpreting error traces, so
diagnostics are first-class here. For the two most common verdict
shapes:

* ``<R> f`` fails/holds — :func:`witness_diamond` returns a shortest
  path matching ``R`` that ends in an ``f``-state (the witness);
* ``[R] f`` fails — :func:`counterexample_box` returns a shortest path
  matching ``R`` that ends in a state violating ``f``.

Both compile the regular formula to a Thompson NFA over action
predicates and run a breadth-first search on the product of the LTS with
the NFA, so the returned traces are genuinely shortest.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.lts.lts import LTS
from repro.lts.trace import Trace
from repro.mucalc.checker import check
from repro.mucalc.syntax import (
    ActionPredicate,
    Formula,
    RAct,
    RAlt,
    Regular,
    RSeq,
    RStar,
)


@dataclass
class _NFA:
    """Thompson NFA: states 0..n-1, `start`, `accept`, labelled and
    epsilon edges."""

    n: int = 0
    start: int = 0
    accept: int = 0
    edges: list[tuple[int, ActionPredicate, int]] = field(default_factory=list)
    eps: list[tuple[int, int]] = field(default_factory=list)

    def new_state(self) -> int:
        s = self.n
        self.n += 1
        return s


def _build(nfa: _NFA, reg: Regular) -> tuple[int, int]:
    """Thompson construction; returns (entry, exit) states."""
    if isinstance(reg, RAct):
        a, b = nfa.new_state(), nfa.new_state()
        nfa.edges.append((a, reg.pred, b))
        return a, b
    if isinstance(reg, RSeq):
        a1, b1 = _build(nfa, reg.left)
        a2, b2 = _build(nfa, reg.right)
        nfa.eps.append((b1, a2))
        return a1, b2
    if isinstance(reg, RAlt):
        a, b = nfa.new_state(), nfa.new_state()
        a1, b1 = _build(nfa, reg.left)
        a2, b2 = _build(nfa, reg.right)
        nfa.eps.extend([(a, a1), (a, a2), (b1, b), (b2, b)])
        return a, b
    if isinstance(reg, RStar):
        a, b = nfa.new_state(), nfa.new_state()
        a1, b1 = _build(nfa, reg.inner)
        nfa.eps.extend([(a, a1), (b1, b), (a, b), (b1, a1)])
        return a, b
    raise TypeError(f"not a regular formula: {reg!r}")


def compile_nfa(reg: Regular) -> _NFA:
    """Compile a regular formula to an epsilon-NFA."""
    nfa = _NFA()
    entry, exit_ = _build(nfa, reg)
    nfa.start, nfa.accept = entry, exit_
    return nfa


def _product_search(
    lts: LTS, reg: Regular, goal: np.ndarray
) -> Trace | None:
    """Shortest LTS path matching ``reg`` ending in a ``goal`` state."""
    nfa = compile_nfa(reg)
    eps_adj: dict[int, list[int]] = {}
    for a, b in nfa.eps:
        eps_adj.setdefault(a, []).append(b)

    def closure(states: frozenset[int]) -> frozenset[int]:
        out = set(states)
        stack = list(states)
        while stack:
            s = stack.pop()
            for t in eps_adj.get(s, []):
                if t not in out:
                    out.add(t)
                    stack.append(t)
        return frozenset(out)

    by_src: dict[int, list[tuple[np.ndarray, int]]] = {}
    for a, p, b in nfa.edges:
        by_src.setdefault(a, []).append((lts.label_mask(p.matches), b))

    moves: dict[tuple[frozenset[int], int], frozenset[int]] = {}

    def move(nfa_states: frozenset[int], lab: int) -> frozenset[int]:
        """NFA states after reading label id ``lab`` (empty: no match)."""
        nxt = moves.get((nfa_states, lab))
        if nxt is None:
            moved = {
                b
                for a in nfa_states
                for (mask, b) in by_src.get(a, [])
                if mask[lab]
            }
            nxt = moves[nfa_states, lab] = closure(frozenset(moved))
        return nxt

    start = closure(frozenset([nfa.start]))
    init = (lts.initial, start)
    if nfa.accept in start and goal[lts.initial]:
        return Trace(())
    offsets, lbl, dst = lts.forward_csr()
    parent: dict[tuple, tuple] = {init: (None, -1)}
    queue = deque([init])
    while queue:
        node = queue.popleft()
        state, nfa_states = node
        lo, hi = offsets[state], offsets[state + 1]
        for lab, d in zip(lbl[lo:hi].tolist(), dst[lo:hi].tolist()):
            nxt_nfa = move(nfa_states, lab)
            if not nxt_nfa:
                continue
            nxt = (d, nxt_nfa)
            if nxt in parent:
                continue
            parent[nxt] = (node, lab)
            if nfa.accept in nxt_nfa and goal[d]:
                labels: list[str] = []
                cur = nxt
                while parent[cur][0] is not None:
                    cur, lab = parent[cur]
                    labels.append(lts.labels[lab])
                labels.reverse()
                return Trace(tuple(labels))
            queue.append(nxt)
    return None


def witness_diamond(lts: LTS, reg: Regular, inner: Formula) -> Trace | None:
    """Shortest witness for ``<reg> inner`` from the initial state.

    Returns ``None`` when the formula does not hold initially (no
    witness exists).
    """
    goal = check(lts, inner)
    return _product_search(lts, reg, goal)


def counterexample_box(lts: LTS, reg: Regular, inner: Formula) -> Trace | None:
    """Shortest counterexample for ``[reg] inner`` from the initial state.

    Returns a path matching ``reg`` that ends in a state violating
    ``inner``, or ``None`` when the box formula holds initially.
    """
    goal = ~check(lts, inner)
    return _product_search(lts, reg, goal)
