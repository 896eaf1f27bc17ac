"""Tests for explicit-state generation."""

import pytest

from repro.errors import ExplorationLimitError
from repro.lts.explore import ExplorationStats, explore


class Grid:
    """A w x h grid walked right/down; (w-1, h-1) is terminal."""

    def __init__(self, w=4, h=3):
        self.w, self.h = w, h

    def initial_state(self):
        return (0, 0)

    def successors(self, s):
        x, y = s
        out = []
        if x + 1 < self.w:
            out.append(("right", (x + 1, y)))
        if y + 1 < self.h:
            out.append(("down", (x, y + 1)))
        return out


def test_explore_counts():
    l = explore(Grid(4, 3))
    assert l.n_states == 12
    assert l.n_transitions == 3 * 3 + 4 * 2  # rights + downs


def test_explore_bfs_numbering(chain_system):
    l = explore(chain_system)
    # BFS: 0 discovered first, then 1 and 3, then 2
    assert l.initial == 0
    assert l.n_states == 4
    assert (0, "a", 1) in l.transitions()


def test_keep_states(chain_system):
    l = explore(chain_system, keep_states=True)
    assert l.state_meta[0] == 0
    assert set(l.state_meta.values()) == {0, 1, 2, 3}


def test_max_states_limit():
    with pytest.raises(ExplorationLimitError) as ei:
        explore(Grid(50, 50), max_states=10)
    assert ei.value.partial is not None
    assert ei.value.partial.n_states >= 10


def test_max_states_limit_fills_stats():
    # regression: the limit path used to leave stats.max_frontier at 0
    st = ExplorationStats()
    with pytest.raises(ExplorationLimitError):
        explore(Grid(50, 50), max_states=10, stats=st)
    assert st.states > 10
    assert st.max_frontier > 0
    assert st.transitions > 0
    assert st.seconds > 0


def test_stats():
    st = ExplorationStats()
    explore(Grid(4, 3), stats=st)
    assert st.states == 12
    assert st.transitions == 17
    assert st.level_sizes[0] == 1
    assert sum(st.level_sizes) == 12
    assert st.depth >= 5
    assert st.states_per_second() >= 0
def test_explore_deterministic(chain_system):
    a = explore(chain_system)
    b = explore(chain_system)
    assert a == b
