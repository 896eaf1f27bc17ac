"""Differential tests: the array kernels against the scalar oracles.

Random LTSs cover the shapes the frontier code has to get right — no
states, no transitions, self-loops, unreachable states, duplicate edges,
source columns both grouped (the aliasing CSR path) and shuffled (the
permuting one), predicates matching no, some and all labels. The Jackal
variants are held to the same oracles cell by cell in
``tests/conformance/``; the last test here is a view onto its cells.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lts.cycles import find_lasso_avoiding
from repro.lts.deadlock import shortest_trace_to
from repro.lts.frontier import solve_mu_box, solve_mu_diamond
from repro.lts.lts import LTS
from repro.mucalc.checker import check
from repro.mucalc.syntax import (
    ActLit,
    And,
    AnyAct,
    Box,
    Diamond,
    Ff,
    Mu,
    NotAct,
    Nu,
    Or,
    RAct,
    Tt,
    Var,
)
from tests import oracles
from tests.oracles import lts_of
from tests.conformance.harness import Cell

LABELS = ["a", "b", "c", "tau"]
#: matches every label / one / all but one / none
PREDICATES = [AnyAct(), ActLit("a"), NotAct(ActLit("a")), ActLit("absent")]


@st.composite
def lts_shapes(draw, max_states: int = 40) -> LTS:
    n = draw(st.integers(min_value=0, max_value=max_states))
    if n == 0:
        return lts_of([])
    state = st.integers(min_value=0, max_value=n - 1)
    edges = draw(
        st.lists(
            st.tuples(state, st.sampled_from(LABELS), state), max_size=3 * n
        )
    )
    if draw(st.booleans()):
        edges.sort(key=lambda e: e[0])  # what a breadth-first sweep emits
    return lts_of(edges, n_states=n)


def _vector(n: int):
    return st.lists(st.booleans(), min_size=n, max_size=n).map(
        lambda bits: np.array(bits, dtype=bool)
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kernels_match_deque_solvers(data):
    lts = data.draw(lts_shapes())
    pred = data.draw(st.sampled_from(PREDICATES))
    a = data.draw(_vector(lts.n_states))
    b = data.draw(_vector(lts.n_states))
    ctx = oracles.Context(lts)
    label_ok = lts.label_mask(pred.matches)
    got, _rounds = solve_mu_diamond(lts, label_ok, a, b)
    assert np.array_equal(got, oracles.solve_mu_diamond(ctx, pred, a, b))
    got, _rounds = solve_mu_box(lts, label_ok, a, b)
    assert np.array_equal(got, oracles.solve_mu_box(ctx, pred, a, b))


def _fixpoint_shapes(pred):
    """mu/nu x diamond/box with a closed disjunct and a closed guard."""
    a = Diamond(RAct(ActLit("b")), Tt())
    b = Box(RAct(ActLit("c")), Ff())
    for binder in (Mu, Nu):
        for modality in (Diamond, Box):
            step = modality(RAct(pred), Var("X"))
            yield binder("X", Or(a, And(b, step)))


@settings(max_examples=100, deadline=None)
@given(lts_shapes(), st.sampled_from(PREDICATES))
def test_fixpoint_vectors_match_oracle(lts, pred):
    for formula in _fixpoint_shapes(pred):
        assert np.array_equal(check(lts, formula), oracles.check(lts, formula))


@settings(max_examples=100, deadline=None)
@given(lts_shapes(), st.sets(st.sampled_from(LABELS + ["absent"])))
def test_deadlock_lists_match_oracle(lts, ignore):
    assert lts.deadlock_states(ignore) == oracles.deadlock_states(lts, ignore)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_shortest_traces_match_oracle(data):
    lts = data.draw(lts_shapes())
    targets = data.draw(
        st.sets(st.integers(min_value=0, max_value=max(lts.n_states - 1, 0)))
        if lts.n_states
        else st.just(set())
    )
    assert shortest_trace_to(lts, targets) == oracles.shortest_trace_to(
        lts, targets
    )


def _runs(lts: LTS, labels, start: set[int]) -> set[int]:
    """States some run from ``start`` reading ``labels`` can end in."""
    fwd = oracles.forward_index(lts)
    now = start
    for label in labels:
        now = {
            d
            for s in now
            for lab, d in oracles.successors(lts, fwd, s)
            if lab == label
        }
    return now


@settings(max_examples=150, deadline=None)
@given(lts_shapes(), st.sets(st.sampled_from(LABELS)), st.booleans())
def test_lassos_match_oracle(lts, progress, ignore_tau_loops):
    ignore = ["tau"] if ignore_tau_loops else []
    got = find_lasso_avoiding(lts, progress, ignore_self_loops_of=ignore)
    if got is not None:
        # a real run: the prefix reaches a state the cycle returns to,
        # and the cycle makes no progress
        assert len(got.cycle) >= 1
        assert not progress & set(got.cycle.labels)
        entries = _runs(lts, got.prefix.labels, {lts.initial})
        assert any(e in _runs(lts, got.cycle.labels, {e}) for e in entries)
    want = oracles.find_lasso_avoiding(
        lts, progress, ignore_self_loops_of=ignore
    )
    assert (got is None) == (want is None)
    if got is None:
        return
    assert got.prefix == want.prefix
    fwd = oracles.forward_index(lts)
    edges = [set(oracles.successors(lts, fwd, s)) for s in range(lts.n_states)]
    if all(len(out) == len({lab for lab, _d in out}) for out in edges):
        # label-deterministic: the replayed entry is the BFS's own
        assert got.cycle == want.cycle


@pytest.mark.parametrize(
    "cell",
    [
        Cell(config, variant)
        for config in ("c1r2", "c1cyc")
        for variant in ("fixed", "error1", "error2", "buggy", "no_migration")
    ],
    ids=lambda cell: (
        f"{cell.variant}-{'cyclic' if cell.config == 'c1cyc' else 'rounds2'}"
    ),
)
def test_jackal_verdicts_and_traces_match_oracle(agree, cell):
    agree(cell, "scalar", "explore_fast")
