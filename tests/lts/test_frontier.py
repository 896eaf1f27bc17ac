"""The frontier kernels' sort-based dedup against ``np.unique``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lts import frontier
from repro.lts.frontier import distinct, solve_mu_diamond
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
