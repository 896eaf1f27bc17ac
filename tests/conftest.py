"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import strategies as st

pytest.register_assert_rewrite("tests.conformance.harness")

from repro.lts.lts import LTS, TAU  # noqa: E402
from tests.conformance import harness  # noqa: E402
from tests.oracles import lts_of  # noqa: E402


class ChainSystem:
    """a-b-c chain with a branch; the standard tiny test system."""

    def initial_state(self):
        return 0

    def successors(self, s):
        table = {
            0: [("a", 1), ("b", 3)],
            1: [("b", 2)],
            2: [("c", 0)],
            3: [],
        }
        return table[s]


#: worker processes of the differential harness; one cell's paths run
#: in one of them
WORKERS = 2


def pytest_collection_modifyitems(items):
    """The tests that wait for the differential harness (they ask for
    ``agree``) run last, so its workers compute while the rest runs."""
    items.sort(key=lambda item: "agree" in getattr(item, "fixturenames", ()))


@pytest.fixture(scope="session", autouse=True)
def _harness(request):
    """The differential harness's workers, started with the session.

    The cells of the session's selected tests (their ``cell``
    parameters) go to the workers in test order; a cell asked for later
    follows. Each cell is checked once per session
    (:func:`tests.conformance.harness.check_cell`).
    """
    cells = dict.fromkeys(
        item.callspec.params["cell"]
        for item in request.session.items
        if "cell" in getattr(getattr(item, "callspec", None), "params", {})
    )
    with ProcessPoolExecutor(
        WORKERS, mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        jobs = {cell: pool.submit(harness.check_cell, cell) for cell in cells}

        def outcome(cell):
            if cell not in jobs:
                jobs[cell] = pool.submit(harness.check_cell, cell)
            return jobs[cell].result()

        yield outcome
        for job in jobs.values():
            job.cancel()


@pytest.fixture(scope="session")
def agree(_harness):
    """``agree(cell, *paths)`` fails the test unless every named path of
    the differential harness agrees on ``cell``."""

    def check(cell, *paths):
        outcome = _harness(cell)
        for path in paths:
            if outcome[path] is not None:
                pytest.fail(f"{path} on {cell}:\n{outcome[path]}",
                            pytrace=False)

    return check


@pytest.fixture(scope="session")
def explorer_agrees():
    """:func:`tests.conformance.harness.explorer_agrees`, once per
    ``(config, variant)`` and session: the explorer axis's examples and
    the tests named for them share one sweep."""
    passed = set()

    def check(config, variant):
        if (config, variant) not in passed:
            harness.explorer_agrees(config, variant)
            passed.add((config, variant))

    return check


@pytest.fixture
def chain_system():
    return ChainSystem()


@pytest.fixture
def small_lts() -> LTS:
    """0 -a-> 1 -b-> 2 -c-> 0, plus 1 -d-> 3 (terminal)."""
    return lts_of([(0, "a", 1), (1, "b", 2), (2, "c", 0), (1, "d", 3)])


# -- hypothesis strategies --------------------------------------------------

LABELS = ["a", "b", "c", TAU]


@st.composite
def random_lts(draw, max_states: int = 6, max_transitions: int = 12) -> LTS:
    """A random small LTS (states reachable or not, any labels)."""
    n = draw(st.integers(min_value=1, max_value=max_states))
    m = draw(st.integers(min_value=0, max_value=max_transitions))
    rows = []
    for _ in range(m):
        src = draw(st.integers(min_value=0, max_value=n - 1))
        dst = draw(st.integers(min_value=0, max_value=n - 1))
        rows.append((src, draw(st.sampled_from(LABELS)), dst))
    return lts_of(rows, n_states=n)

