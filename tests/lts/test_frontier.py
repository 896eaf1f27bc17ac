"""The frontier kernels' sort-based dedup against ``np.unique``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lts import frontier
from repro.lts.frontier import distinct, solve_mu_box, solve_mu_diamond
from repro.lts.lts import LTS


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("values", [
    [], [7], [3, 3, 3], [5, 1, 5, 0, 1, 9, 0], list(range(10, 0, -1)),
])
def test_distinct_is_np_unique(values, dtype):
    a = np.array(values, dtype=dtype)
    got = distinct(a)
    assert got.dtype == dtype
    assert np.array_equal(got, np.unique(a))
    assert np.array_equal(a, np.array(values, dtype=dtype))  # not sorted in place


def test_distinct_on_random_duplicates():
    rng = np.random.default_rng(3)
    for dtype in (np.int32, np.int64):
        a = rng.integers(0, 500, 5000).astype(dtype)
        assert np.array_equal(distinct(a), np.unique(a))


def test_solve_mu_diamond_is_unchanged_by_the_dedup(monkeypatch):
    rng = np.random.default_rng(11)
    n = 400
    lts = LTS(0)
    lts.ensure_states(n)
    for src, lab, dst in zip(rng.integers(0, n, 1600), rng.integers(0, 3, 1600),
                             rng.integers(0, n, 1600)):
        lts.add_transition(int(src), "abc"[lab], int(dst))
    label_ok = lts.label_mask(lambda label: label != "c")
    a = rng.random(n) < 0.02
    b = rng.random(n) < 0.8
    got, rounds = solve_mu_diamond(lts, label_ok, a, b)
    monkeypatch.setattr(frontier, "distinct", np.unique)
    want, want_rounds = solve_mu_diamond(lts, label_ok, a, b)
    assert np.array_equal(got, want)
    assert rounds == want_rounds > 1
    assert a.sum() < got.sum() < n


def _random_lts(seed, n=400):
    rng = np.random.default_rng(seed)
    lts = LTS(0)
    lts.ensure_states(n)
    for src, lab, dst in zip(rng.integers(0, n, 4 * n),
                             rng.integers(0, 3, 4 * n),
                             rng.integers(0, n, 4 * n)):
        lts.add_transition(int(src), "abc"[lab], int(dst))
    return lts, rng


@pytest.mark.parametrize("solve", [solve_mu_diamond, solve_mu_box])
def test_an_empty_first_frontier_builds_no_reverse_adjacency(
    solve, monkeypatch
):
    lts, rng = _random_lts(5)
    n = lts.n_states
    calls = []
    reverse_csr = LTS.reverse_csr

    def spy(self):
        calls.append(self)
        return reverse_csr(self)

    monkeypatch.setattr(LTS, "reverse_csr", spy)
    # every state has an 'a'-move, so [L]X adds no state of its own
    label_ok = lts.label_mask(lambda label: label != "c")
    for s in range(n):
        lts.add_transition(s, "a", s)
    a = np.zeros(n, dtype=bool)
    b = rng.random(n) < 0.8
    got, rounds = solve(lts, label_ok, a, b)
    assert calls == []
    assert (rounds, got.any()) == (0, False)
    assert got is not a
    # what the solver gives once there is a frontier: the adjacency is
    # built, and an empty ``a`` above was the same answer as before
    a[rng.integers(0, n, 8)] = True
    got, rounds = solve(lts, label_ok, a, b)
    assert calls == [lts] and rounds >= 1 and (got >= a).all()
