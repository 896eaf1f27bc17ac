"""Tests for the fast exploration engine.

The engine promises *exact* equivalence with the reference explorer —
same BFS numbering, same LTS, same stats, same limit semantics — so
most tests here are differential: run both, compare everything.
"""

import pytest

from repro.errors import ReproError
from repro.jackal import Config, JackalModel, ProtocolVariant
from repro.lts.engine import explore_fast
from repro.lts.explore import ExplorationStats, explore


def _assert_identical(system, **kwargs):
    st_ref, st_fast = ExplorationStats(), ExplorationStats()
    ref = explore(system, stats=st_ref, **kwargs)
    fast = explore_fast(system, stats=st_fast, **kwargs)
    # not merely equivalent: numbering and transition order must agree
    assert fast.n_states == ref.n_states
    assert fast.n_transitions == ref.n_transitions
    assert list(fast.transitions()) == list(ref.transitions())
    assert fast == ref
    assert st_fast.states == st_ref.states
    assert st_fast.transitions == st_ref.transitions
    assert st_fast.max_frontier == st_ref.max_frontier
    assert st_fast.depth == st_ref.depth
    assert st_fast.level_sizes == st_ref.level_sizes
    return ref, fast


@pytest.mark.parametrize(
    "tpp,variant",
    [
        ((1, 1), ProtocolVariant.fixed()),
        ((2,), ProtocolVariant.fixed()),
        ((1, 1), ProtocolVariant.error1()),
    ],
)
def test_matches_reference_on_jackal(tpp, variant):
    cfg = Config(threads_per_processor=tpp, rounds=1, with_probes=False)
    _assert_identical(JackalModel(cfg, variant))


def test_matches_reference_with_probes():
    cfg = Config(threads_per_processor=(1, 1), rounds=1, with_probes=True)
    _assert_identical(JackalModel(cfg, ProtocolVariant.fixed()))


def test_one_loop_per_system(chain_system):
    """A system with a kernel is swept on it and never asked for
    ``successors``; a kernel-less one is refused — it belongs to the
    reference explorer."""
    cfg = Config(threads_per_processor=(1, 1), rounds=1, with_probes=False)
    model = JackalModel(cfg)
    calls = {"successors": 0}
    orig = model.successors

    def counting(state):
        calls["successors"] += 1
        return orig(state)

    model.successors = counting
    explore_fast(model)
    assert calls["successors"] == 0
    with pytest.raises(ReproError, match=r"ChainSystem has none"):
        explore_fast(chain_system)
    assert explore(chain_system).n_states == 4
