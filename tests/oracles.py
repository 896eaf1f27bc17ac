"""Scalar reference implementations for the columnar checker kernel.

These are the per-element algorithms the analyses used before they were
rewritten as array passes over the LTS's CSR adjacency, kept (bodies
verbatim) as differential oracles: a deque worklist over a per-predicate
reverse CSR for the two linear fixpoint shapes, list-of-lists adjacency
for deadlock detection and shortest traces, Tarjan over tuple lists for
the lasso search, the per-label-string product search, and the LTS
transformations as one ``add_transition`` per row. They read an
LTS only through ``transitions()``, ``transition_arrays()``, ``labels``,
``n_states`` and ``initial`` — nothing the array code paths provide.

``tests/test_oracle_equivalence.py`` holds the comparisons.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

import numpy as np

from repro.errors import FormulaSemanticsError
from repro.lts.cycles import Lasso
from repro.lts.lts import LTS
from repro.lts.trace import Trace
from repro.mucalc.checker import _find_single_modal_occurrence, expand_regular
from repro.mucalc.diagnostics import compile_nfa
from repro.mucalc.syntax import (
    ActionPredicate,
    And,
    Box,
    Diamond,
    Ff,
    Formula,
    Mu,
    Not,
    Nu,
    Or,
    Regular,
    Tt,
    Var,
    assert_alternation_free,
)

# ---------------------------------------------------------------------------
# adjacency, deadlocks, shortest traces
# ---------------------------------------------------------------------------


def forward_index(lts: LTS) -> list[list[int]]:
    """Transition ids leaving each state, in insertion order."""
    src, _lbl, _dst = lts.transition_arrays()
    fwd: list[list[int]] = [[] for _ in range(lts.n_states)]
    for ti, s in enumerate(src):
        fwd[s].append(ti)
    return fwd


def successors(lts: LTS, fwd: list[list[int]], state: int) -> list[tuple[str, int]]:
    _src, lbl, dst = lts.transition_arrays()
    labels = lts.labels
    return [(labels[lbl[t]], dst[t]) for t in fwd[state]]


def deadlock_states(lts: LTS, ignore_labels: Iterable[str] = ()) -> list[int]:
    _src, lbl, _dst = lts.transition_arrays()
    ignore = {lts.labels.index(lab) for lab in ignore_labels if lab in lts.labels}
    fwd = forward_index(lts)
    dead = []
    for s in range(lts.n_states):
        if all(lbl[t] in ignore for t in fwd[s]):
            dead.append(s)
    return dead


def shortest_trace_to(lts: LTS, targets: Iterable[int]) -> Trace | None:
    fwd = forward_index(lts)
    target_set = set(targets)
    if not target_set:
        return None
    if lts.initial in target_set:
        return Trace(())
    # parent[s] = (pred_state, label) along a BFS tree
    parent: dict[int, tuple[int, str]] = {lts.initial: (-1, "")}
    queue = deque([lts.initial])
    found: int | None = None
    while queue:
        s = queue.popleft()
        for label, d in successors(lts, fwd, s):
            if d not in parent:
                parent[d] = (s, label)
                if d in target_set:
                    found = d
                    queue.clear()
                    break
                queue.append(d)
    if found is None:
        return None
    labels: list[str] = []
    cur = found
    while cur != lts.initial:
        pred, label = parent[cur]
        labels.append(label)
        cur = pred
    labels.reverse()
    return Trace(tuple(labels))


# ---------------------------------------------------------------------------
# transformations, one add_transition per row
# ---------------------------------------------------------------------------


def relabelled(lts: LTS, mapping: dict[str, str]) -> LTS:
    out = LTS(lts.initial)
    out.ensure_states(lts.n_states)
    for s, lab, d in lts.transitions():
        out.add_transition(s, mapping.get(lab, lab), d)
    return out


def without_labels(lts: LTS, drop: Iterable[str]) -> LTS:
    drop = set(drop)
    out = LTS(lts.initial)
    out.ensure_states(lts.n_states)
    for s, lab, d in lts.transitions():
        if lab not in drop:
            out.add_transition(s, lab, d)
    out.state_meta = lts.state_meta
    return out


def restricted_to_reachable(lts: LTS) -> LTS:
    fwd = forward_index(lts)
    seen = {lts.initial}
    stack = [lts.initial]
    while stack:
        for _label, d in successors(lts, fwd, stack.pop()):
            if d not in seen:
                seen.add(d)
                stack.append(d)
    remap = {old: new for new, old in enumerate(sorted(seen))}
    out = LTS(remap[lts.initial])
    out.ensure_states(len(remap))
    for s, lab, d in lts.transitions():
        if s in remap:
            out.add_transition(remap[s], lab, remap[d])
    for old, meta in lts.state_meta.items():
        if old in remap:
            out.state_meta[remap[old]] = meta
    return out


# ---------------------------------------------------------------------------
# the deque fixpoint solvers and the evaluator around them
# ---------------------------------------------------------------------------


class Context:
    """Per-LTS evaluation caches (one reverse CSR per predicate)."""

    def __init__(self, lts: LTS):
        self.lts = lts
        self.n = lts.n_states
        src, lbl, dst = lts.transition_arrays()
        self.src = np.asarray(src, dtype=np.int64)
        self.lbl = np.asarray(lbl, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.labels = lts.labels
        self._pred_masks: dict[ActionPredicate, np.ndarray] = {}
        self._csr_cache: dict[ActionPredicate, tuple] = {}

    def label_mask(self, pred: ActionPredicate) -> np.ndarray:
        mask = self._pred_masks.get(pred)
        if mask is None:
            mask = np.fromiter(
                (pred.matches(lab) for lab in self.labels),
                dtype=bool,
                count=len(self.labels),
            )
            self._pred_masks[pred] = mask
        return mask

    def edges(self, pred: ActionPredicate) -> tuple[np.ndarray, np.ndarray]:
        mask = self.label_mask(pred)
        if len(mask) == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        sel = mask[self.lbl]
        return self.src[sel], self.dst[sel]

    def reverse_csr(self, pred: ActionPredicate):
        cached = self._csr_cache.get(pred)
        if cached is not None:
            return cached
        esrc, edst = self.edges(pred)
        order = np.argsort(edst, kind="stable")
        sorted_dst = edst[order]
        order_src = esrc[order]
        offsets = np.searchsorted(sorted_dst, np.arange(self.n + 1))
        out_count = np.bincount(esrc, minlength=self.n).astype(np.int64)
        cached = (order_src, offsets, out_count)
        self._csr_cache[pred] = cached
        return cached


def solve_mu_diamond(ctx, pred, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least X with ``X = a \\/ (b /\\ <pred>X)`` — reverse reachability."""
    order_src, offsets, _ = ctx.reverse_csr(pred)
    x = a.copy()
    queue = deque(np.flatnonzero(x).tolist())
    while queue:
        t = queue.popleft()
        for s in order_src[offsets[t] : offsets[t + 1]]:
            if not x[s] and b[s]:
                x[s] = True
                queue.append(int(s))
    return x


def solve_mu_box(ctx, pred, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least X with ``X = a \\/ (b /\\ [pred]X)`` — counting algorithm."""
    order_src, offsets, out_count = ctx.reverse_csr(pred)
    cnt = out_count.copy()
    x = a | (b & (cnt == 0))
    queue = deque(np.flatnonzero(x).tolist())
    while queue:
        t = queue.popleft()
        for s in order_src[offsets[t] : offsets[t + 1]]:
            cnt[s] -= 1
            if not x[s] and b[s] and cnt[s] == 0:
                x[s] = True
                queue.append(int(s))
    return x


def _diamond_step(ctx: Context, pred: ActionPredicate, vec: np.ndarray) -> np.ndarray:
    esrc, edst = ctx.edges(pred)
    out = np.zeros(ctx.n, dtype=bool)
    if len(esrc):
        hits = esrc[vec[edst]]
        out[hits] = True
    return out


def _box_step(ctx: Context, pred: ActionPredicate, vec: np.ndarray) -> np.ndarray:
    esrc, edst = ctx.edges(pred)
    out = np.ones(ctx.n, dtype=bool)
    if len(esrc):
        viol = esrc[~vec[edst]]
        out[viol] = False
    return out


class Evaluator:
    """The evaluator as it drove the deque solvers: no memo, the body of
    a fast-path fixpoint probed twice with the hole at 0 and at 1."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.hole: Formula | None = None
        self.hole_value: np.ndarray | None = None

    def eval(self, f: Formula, env: dict[str, np.ndarray]) -> np.ndarray:
        ctx = self.ctx
        n = ctx.n
        if f is self.hole:
            return self.hole_value  # type: ignore[return-value]
        if isinstance(f, Tt):
            return np.ones(n, dtype=bool)
        if isinstance(f, Ff):
            return np.zeros(n, dtype=bool)
        if isinstance(f, Var):
            return env[f.name]
        if isinstance(f, And):
            return self.eval(f.left, env) & self.eval(f.right, env)
        if isinstance(f, Or):
            return self.eval(f.left, env) | self.eval(f.right, env)
        if isinstance(f, Not):
            return ~self.eval(f.inner, env)
        if isinstance(f, Diamond):
            return _diamond_step(ctx, f.reg.pred, self.eval(f.inner, env))
        if isinstance(f, Box):
            return _box_step(ctx, f.reg.pred, self.eval(f.inner, env))
        if isinstance(f, (Mu, Nu)):
            return self._fixpoint(f, env)
        raise TypeError(f"not a formula: {f!r}")

    def _eval_with_hole(self, body, hole, value, env) -> np.ndarray:
        saved = (self.hole, self.hole_value)
        self.hole, self.hole_value = hole, value
        try:
            return self.eval(body, env)
        finally:
            self.hole, self.hole_value = saved

    def _fixpoint(self, f: Mu | Nu, env) -> np.ndarray:
        ctx = self.ctx
        n = ctx.n
        is_mu = isinstance(f, Mu)
        occ = _find_single_modal_occurrence(f.var, f.body)
        if occ is not None:
            node, kind = occ
            pred = node.reg.pred  # type: ignore[union-attr]
            # pointwise the body is a \/ (b /\ D) where D is the modal value
            zeros = np.zeros(n, dtype=bool)
            ones = np.ones(n, dtype=bool)
            a = self._eval_with_hole(f.body, node, zeros, env)
            b = self._eval_with_hole(f.body, node, ones, env)
            if is_mu and kind == "diamond":
                return solve_mu_diamond(ctx, pred, a, b)
            if is_mu and kind == "box":
                return solve_mu_box(ctx, pred, a, b)
            if not is_mu and kind == "box":
                # nu X. a \/ (b /\ [p]X)  =  ~ mu Y. ~a /\ (~b \/ <p>Y)
                #                        =  ~ mu Y. a' \/ (b' /\ <p>Y)
                # with a' = ~a /\ ~b, b' = ~a
                return ~solve_mu_diamond(ctx, pred, ~a & ~b, ~a)
            # nu X. a \/ (b /\ <p>X) = ~ mu Y. a' \/ (b' /\ [p]Y)
            return ~solve_mu_box(ctx, pred, ~a & ~b, ~a)
        # Kleene iteration fallback
        x = np.zeros(n, dtype=bool) if is_mu else np.ones(n, dtype=bool)
        env2 = dict(env)
        for _rounds in range(1, n + 3):
            env2[f.var] = x
            nxt = self.eval(f.body, env2)
            if np.array_equal(nxt, x):
                return x
            x = nxt
        raise FormulaSemanticsError(f"fixpoint {f.var} did not converge")


def check(lts: LTS, formula: Formula) -> np.ndarray:
    """``formula`` on ``lts`` through the deque solvers."""
    f = expand_regular(formula)
    assert_alternation_free(f)
    return Evaluator(Context(lts)).eval(f, {})


# ---------------------------------------------------------------------------
# lasso search over tuple lists
# ---------------------------------------------------------------------------


def _progress_subgraph(lts: LTS, is_progress: Callable[[str], bool]):
    """Adjacency restricted to non-progress transitions."""
    n = lts.n_states
    adj: list[list[tuple[str, int]]] = [[] for _ in range(n)]
    for t in lts.transitions():
        if not is_progress(t.label):
            adj[t.src].append((t.label, t.dst))
    return adj


def find_lasso_avoiding(
    lts: LTS,
    progress_labels: Iterable[str] | Callable[[str], bool],
    *,
    ignore_self_loops_of: Iterable[str] = (),
) -> Lasso | None:
    if callable(progress_labels):
        is_progress = progress_labels
    else:
        progress_set = set(progress_labels)
        is_progress = progress_set.__contains__
    skip_loops = set(ignore_self_loops_of)

    adj = _progress_subgraph(lts, is_progress)
    n = lts.n_states

    # states on a non-progress cycle: non-trivial SCCs of the subgraph,
    # or states with a genuine self-loop (iterative Tarjan)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    comp = [-1] * n
    comp_size: list[int] = []
    stack: list[int] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < len(adj[v]):
                _lab, w = adj[v][pi]
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                members = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = len(comp_size)
                    members.append(w)
                    if w == v:
                        break
                comp_size.append(len(members))
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])

    def has_real_self_loop(s: int) -> bool:
        return any(
            d == s and lab not in skip_loops for lab, d in adj[s]
        )

    cyclic_states = {
        s
        for s in range(n)
        if comp_size[comp[s]] > 1 or has_real_self_loop(s)
    }
    if not cyclic_states:
        return None

    prefix = shortest_trace_to(lts, cyclic_states)
    if prefix is None:
        return None
    # replay the prefix to find the entry state
    fwd = forward_index(lts)
    entry = lts.initial
    for label in prefix.labels:
        entry = next(
            d for lab, d in successors(lts, fwd, entry) if lab == label
        )

    # shortest cycle from entry back to entry inside the subgraph
    if has_real_self_loop(entry):
        lab = next(
            lab for lab, d in adj[entry] if d == entry and lab not in skip_loops
        )
        return Lasso(prefix, Trace((lab,)))
    parent: dict[int, tuple[int, str]] = {}
    queue = deque()
    for lab, d in adj[entry]:
        if comp[d] == comp[entry] and d not in parent:
            parent[d] = (entry, lab)
            queue.append(d)
    while queue:
        s = queue.popleft()
        if s == entry:
            break
        for lab, d in adj[s]:
            if comp[d] != comp[entry]:
                continue
            if d == entry:
                labels = [lab]
                cur = s
                while cur != entry:
                    p, l2 = parent[cur]
                    labels.append(l2)
                    cur = p
                labels.reverse()
                return Lasso(prefix, Trace(tuple(labels)))
            if d not in parent:
                parent[d] = (s, lab)
                queue.append(d)
    raise AssertionError("cyclic state without recoverable cycle")


# ---------------------------------------------------------------------------
# product search for witnesses and counterexamples
# ---------------------------------------------------------------------------


def product_search(lts: LTS, reg: Regular, goal: np.ndarray) -> Trace | None:
    """Shortest LTS path matching ``reg`` ending in a ``goal`` state."""
    fwd = forward_index(lts)
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

    by_src: dict[int, list[tuple[ActionPredicate, int]]] = {}
    for a, p, b in nfa.edges:
        by_src.setdefault(a, []).append((p, b))

    start = closure(frozenset([nfa.start]))
    init = (lts.initial, start)
    if nfa.accept in start and goal[lts.initial]:
        return Trace(())
    parent: dict[tuple, tuple] = {init: (None, "")}
    queue = deque([init])
    while queue:
        node = queue.popleft()
        state, nfa_states = node
        for label, dst in successors(lts, fwd, state):
            moved = {
                b
                for a in nfa_states
                for (p, b) in by_src.get(a, [])
                if p.matches(label)
            }
            if not moved:
                continue
            nxt_nfa = closure(frozenset(moved))
            nxt = (dst, nxt_nfa)
            if nxt in parent:
                continue
            parent[nxt] = (node, label)
            if nfa.accept in nxt_nfa and goal[dst]:
                labels: list[str] = []
                cur = nxt
                while parent[cur][0] is not None:
                    prev, lab = parent[cur]
                    labels.append(lab)
                    cur = prev
                labels.reverse()
                return Trace(tuple(labels))
            queue.append(nxt)
    return None
