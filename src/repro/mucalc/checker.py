"""Evaluation of regular alternation-free mu-calculus formulas on LTSs.

The checker works in three stages:

1. **regular expansion** — modalities over regular formulas are compiled
   to plain single-step modalities plus fixpoints, using the standard
   identities ``[R1.R2]f = [R1][R2]f``, ``[R1|R2]f = [R1]f /\\ [R2]f``,
   ``[R*]f = nu X. (f /\\ [R]X)`` and their diamond duals; fresh
   variables are numbered per expansion, so equal formulas expand to
   equal formulas;
2. **static checks** — the result must be closed and alternation free;
3. **evaluation** — bottom-up over numpy boolean vectors indexed by
   state, every pass a whole-array operation on the LTS's columnar
   adjacency (:meth:`repro.lts.lts.LTS.columns`,
   :meth:`~repro.lts.lts.LTS.reverse_csr`). A single-step modality is
   one gather over the transition columns under the predicate's *label
   mask*. A fixpoint whose variable occurs exactly once, directly under
   a single-step modality, is solved in linear time by a
   level-synchronous frontier kernel (:mod:`repro.lts.frontier`):
   backward reachability for diamonds, the counting algorithm for
   boxes — each round gathers the frontier's in-edges from the LTS's
   one reverse CSR, filters them by the label mask and advances all
   states at once. Everything else falls back to Kleene iteration.
   One :class:`_Evaluator` is one evaluation context: label masks and
   the values of *closed* sub-formulas are memoised in it (a closed
   sub-formula cannot mention the variable a fast path is solving for,
   so the memo stays on while the fixpoint's body is probed), and
   :func:`check_many` runs a whole battery through one context.

The linear fast paths matter: the paper's Requirement 3/4 formulas on
multi-million-state LTSs would need thousands of full-vector Kleene
rounds otherwise.
"""

from __future__ import annotations

import itertools
import time
from typing import Iterator

import numpy as np

from repro.errors import FormulaSemanticsError
from repro.lts.frontier import solve_mu_box, solve_mu_diamond
from repro.lts.lts import LTS
from repro.obs.core import current as _current_tracer
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
    RAct,
    RAlt,
    Regular,
    RSeq,
    RStar,
    Tt,
    Var,
    assert_alternation_free,
    free_variables,
    subformulas,
)

# ---------------------------------------------------------------------------
# stage 1: regular expansion
# ---------------------------------------------------------------------------

def expand_regular(f: Formula) -> Formula:
    """Rewrite all regular modalities into plain modalities + fixpoints.

    The variables introduced for ``R*`` are ``_R0``, ``_R1``, ... in
    expansion order, skipping any name ``f`` already uses — so the
    result is a function of ``f`` alone and its binders are distinct.
    """
    taken = {g.var for g in subformulas(f) if isinstance(g, (Mu, Nu))}
    taken |= {g.name for g in subformulas(f) if isinstance(g, Var)}
    fresh = (
        name
        for name in map("_R{}".format, itertools.count())
        if name not in taken
    )
    return _expand(f, fresh)


def _expand(f: Formula, fresh: Iterator[str]) -> Formula:
    if isinstance(f, (Tt, Ff, Var)):
        return f
    if isinstance(f, And):
        return And(_expand(f.left, fresh), _expand(f.right, fresh))
    if isinstance(f, Or):
        return Or(_expand(f.left, fresh), _expand(f.right, fresh))
    if isinstance(f, Not):
        return Not(_expand(f.inner, fresh))
    if isinstance(f, Mu):
        return Mu(f.var, _expand(f.body, fresh))
    if isinstance(f, Nu):
        return Nu(f.var, _expand(f.body, fresh))
    if isinstance(f, Diamond):
        return _expand_modal(f.reg, _expand(f.inner, fresh), True, fresh)
    if isinstance(f, Box):
        return _expand_modal(f.reg, _expand(f.inner, fresh), False, fresh)
    raise TypeError(f"not a formula: {f!r}")


def _expand_modal(
    reg: Regular, inner: Formula, diamond: bool, fresh: Iterator[str]
) -> Formula:
    if isinstance(reg, RAct):
        return Diamond(reg, inner) if diamond else Box(reg, inner)
    if isinstance(reg, RSeq):
        right = _expand_modal(reg.right, inner, diamond, fresh)
        return _expand_modal(reg.left, right, diamond, fresh)
    if isinstance(reg, RAlt):
        left = _expand_modal(reg.left, inner, diamond, fresh)
        right = _expand_modal(reg.right, inner, diamond, fresh)
        return Or(left, right) if diamond else And(left, right)
    if isinstance(reg, RStar):
        x = next(fresh)
        step = _expand_modal(reg.inner, Var(x), diamond, fresh)
        if diamond:
            return Mu(x, Or(inner, step))
        return Nu(x, And(inner, step))
    raise TypeError(f"not a regular formula: {reg!r}")


# ---------------------------------------------------------------------------
# stage 3: evaluation
# ---------------------------------------------------------------------------


def _find_single_modal_occurrence(var: str, body: Formula):
    """Locate the unique ``<p>X`` / ``[p]X`` occurrence of ``var``.

    Returns ``(node, kind)`` with ``kind`` in {"diamond", "box"} when the
    variable occurs exactly once in ``body``, directly under a
    single-step modality, and that modality sits under And/Or nodes
    only. Returns ``None`` otherwise (the caller then uses Kleene
    iteration).
    """
    found: list[tuple[Formula, str]] = []
    ok = True

    def walk(g: Formula) -> None:
        nonlocal ok
        if not ok:
            return
        if isinstance(g, Var):
            if g.name == var:
                ok = False  # bare occurrence not under a modality
            return
        if isinstance(g, (Diamond, Box)) and isinstance(g.inner, Var):
            if g.inner.name == var:
                found.append((g, "diamond" if isinstance(g, Diamond) else "box"))
                return
        if isinstance(g, (Mu, Nu)):
            if var in free_variables(g):
                ok = False  # nested fixpoint depends on var: no fast path
            return
        if isinstance(g, (Diamond, Box, Not)):
            if var in free_variables(g):
                ok = False
            return
        for c in g.children():
            walk(c)

    walk(body)
    if ok and len(found) == 1:
        return found[0]
    return None


class _Evaluator:
    """One evaluation context over one LTS.

    Carries what formulas evaluated through it share: the label mask of
    each action predicate and the value of each closed sub-formula. It
    holds views of the LTS's columns, so it must not be kept across a
    mutation of the LTS.
    """

    def __init__(self, lts: LTS, tracer=None):
        self.lts = lts
        self.n = lts.n_states
        self.src, self.lbl, self.dst = lts.columns()
        self.tracer = tracer if tracer is not None else _current_tracer()
        self._masks: dict[ActionPredicate, np.ndarray] = {}
        self._memo: dict[Formula, np.ndarray] = {}
        self.hole: Formula | None = None
        self.hole_value: np.ndarray | None = None

    def label_mask(self, pred: ActionPredicate) -> np.ndarray:
        """Boolean mask over label ids matched by ``pred``."""
        mask = self._masks.get(pred)
        if mask is None:
            mask = self._masks[pred] = self.lts.label_mask(pred.matches)
        return mask

    def _edges(self, reg: Regular) -> tuple[np.ndarray, np.ndarray]:
        """(src, dst) of the transitions a single-step modality follows."""
        if not isinstance(reg, RAct):
            raise FormulaSemanticsError(
                "regular modality not expanded; call expand_regular first"
            )
        sel = self.label_mask(reg.pred)[self.lbl]
        return self.src[sel], self.dst[sel]

    def eval(self, f: Formula, env: dict[str, np.ndarray]) -> np.ndarray:
        if f is self.hole:
            return self.hole_value  # type: ignore[return-value]
        # a closed formula mentions no enclosing variable, hence not the
        # hole either: its value is the same inside and outside a probe
        closed = not free_variables(f)
        if closed:
            memo = self._memo.get(f)
            if memo is not None:
                return memo
        result = self._eval(f, env)
        if closed:
            self._memo[f] = result
        return result

    def _eval(self, f: Formula, env) -> np.ndarray:
        n = self.n
        if isinstance(f, Tt):
            return np.ones(n, dtype=bool)
        if isinstance(f, Ff):
            return np.zeros(n, dtype=bool)
        if isinstance(f, Var):
            try:
                return env[f.name]
            except KeyError:
                raise FormulaSemanticsError(f"unbound variable {f.name}") from None
        if isinstance(f, And):
            return self.eval(f.left, env) & self.eval(f.right, env)
        if isinstance(f, Or):
            return self.eval(f.left, env) | self.eval(f.right, env)
        if isinstance(f, Not):
            return ~self.eval(f.inner, env)
        if isinstance(f, Diamond):
            # states with some successor inside the inner set
            esrc, edst = self._edges(f.reg)
            out = np.zeros(n, dtype=bool)
            out[esrc[self.eval(f.inner, env)[edst]]] = True
            return out
        if isinstance(f, Box):
            # states all of whose successors are inside the inner set
            esrc, edst = self._edges(f.reg)
            out = np.ones(n, dtype=bool)
            out[esrc[~self.eval(f.inner, env)[edst]]] = False
            return out
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
        n = self.n
        is_mu = isinstance(f, Mu)
        recording = self.tracer.enabled
        t0 = time.perf_counter() if recording else 0.0

        def _observe(mode: str, iterations: int) -> None:
            # iterations: Kleene rounds, or frontier rounds (the depth
            # the solution propagated to) on the worklist paths
            self.tracer.emit(
                "fixpoint", var=f.var, op="mu" if is_mu else "nu",
                mode=mode, iterations=iterations, states=n,
                seconds=round(time.perf_counter() - t0, 6),
            )

        occ = _find_single_modal_occurrence(f.var, f.body)
        if occ is not None:
            node, kind = occ
            label_ok = self.label_mask(node.reg.pred)  # type: ignore[union-attr]
            # pointwise the body is a \/ (b /\ D) where D is the modal value
            a = self._eval_with_hole(f.body, node, np.zeros(n, dtype=bool), env)
            b = self._eval_with_hole(f.body, node, np.ones(n, dtype=bool), env)
            if not is_mu:
                # nu X. a \/ (b /\ [p]X) = ~ mu Y. ~a /\ (~b \/ <p>Y)
                #                        = ~ mu Y. a' \/ (b' /\ <p>Y)
                # with a' = ~a /\ ~b, b' = ~a; and dually for <p>
                a, b = ~a & ~b, ~a
            solve = (
                solve_mu_diamond
                if is_mu == (kind == "diamond")
                else solve_mu_box
            )
            out, rounds = solve(self.lts, label_ok, a, b)
            if recording:
                _observe(f"worklist-{kind}", rounds)
            return out if is_mu else ~out
        # Kleene iteration fallback
        x = np.zeros(n, dtype=bool) if is_mu else np.ones(n, dtype=bool)
        env2 = dict(env)
        for rounds in range(1, n + 3):
            env2[f.var] = x
            nxt = self.eval(f.body, env2)
            if np.array_equal(nxt, x):
                if recording:
                    _observe("kleene", rounds)
                return x
            x = nxt
        raise FormulaSemanticsError(
            f"fixpoint {f.var} did not converge within {n + 2} iterations "
            "(non-monotone body?)"
        )


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def check(lts: LTS, formula: Formula) -> np.ndarray:
    """Evaluate ``formula`` on ``lts``.

    Returns a boolean vector ``v`` with ``v[s]`` true iff state ``s``
    satisfies the formula. The formula may use regular modalities; it
    must be closed and alternation free.
    """
    f = expand_regular(formula)
    assert_alternation_free(f)
    return _Evaluator(lts).eval(f, {})


def holds(lts: LTS, formula: Formula) -> bool:
    """Whether the initial state of ``lts`` satisfies ``formula``."""
    return bool(check(lts, formula)[lts.initial])


def check_many(lts: LTS, formulas) -> list[bool]:
    """Whether the initial state satisfies each formula.

    Shares one evaluation context (label masks, closed-subformula
    memo) across all formulas: a sub-formula the battery repeats — the
    paper's requirement formulas share their ``<T>T`` and inevitability
    cores — is solved once.
    """
    evaluator = _Evaluator(lts)
    out: list[bool] = []
    for formula in formulas:
        f = expand_regular(formula)
        assert_alternation_free(f)
        out.append(bool(evaluator.eval(f, {})[lts.initial]))
    return out
