"""Tests for the fast exploration engine.

The engine promises *exact* equivalence with the reference explorer —
same BFS numbering, same LTS, same stats, same limit semantics. The
differential that holds it there is the explorer axis in
``tests/conformance/`` (:func:`~tests.conformance.harness.explorer_agrees`);
here it runs across the visited set's segment boundaries.
"""

import pytest

from repro.errors import ExplorationLimitError, ReproError
from repro.jackal import Config, JackalModel, ProtocolVariant
from repro.lts.engine import explore_fast
from repro.lts.explore import explore


@pytest.mark.parametrize(
    "tpp,variant",
    [((1, 1), "fixed"), ((2,), "fixed"), ((1, 1), "error1")],
    ids=["tpp0-variant0", "tpp1-variant1", "tpp2-variant2"],
)
def test_matches_reference_on_jackal(explorer_agrees, tpp, variant):
    cfg = Config(threads_per_processor=tpp, rounds=1, with_probes=False)
    explorer_agrees(cfg, variant)


def test_matches_reference_with_probes(explorer_agrees):
    cfg = Config(threads_per_processor=(1, 1), rounds=1, with_probes=True)
    explorer_agrees(cfg, "fixed")


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


# -- the visited rows in several segments ---------------------------------


@pytest.fixture
def small_segments(monkeypatch):
    from repro.lts import rowset

    monkeypatch.setattr(rowset, "_SEGMENT", 16)


def _c1r1():
    cfg = Config(threads_per_processor=(1, 1), rounds=1, with_probes=False)
    return JackalModel(cfg, ProtocolVariant.fixed())


@pytest.mark.parametrize("max_states", [14, 15, 16, 30, 31, 32, 63, 64, 99])
def test_a_cut_across_a_segment_boundary_is_the_reference_partial(
    small_segments, max_states
):
    # 288 states: segments [0, 16), [16, 32), [32, 64), [64, 128), ...;
    # the partial holds ``max_states + 1`` of them, so the cut lands
    # just before, on and just past a boundary
    model = _c1r1()
    partials = []
    for explorer in (explore, explore_fast):
        with pytest.raises(ExplorationLimitError) as err:
            explorer(model, keep_states=True, max_states=max_states)
        partials.append(err.value.partial)
    ref, fast = partials
    assert fast.n_states == ref.n_states == max_states + 1
    assert fast.labels == ref.labels
    assert list(fast.transitions()) == list(ref.transitions())
    assert fast.state_meta == ref.state_meta


def test_row_states_read_through_several_segments(small_segments):
    model = _c1r1()
    ref = explore(model, keep_states=True)
    fast = explore_fast(model, keep_states=True)
    segments = fast.state_meta._segments
    assert len(segments) >= 5
    assert [len(s) for s in segments[:4]] == [16, 16, 32, 64]
    assert fast.state_meta.values() == [
        ref.state_meta[i] for i in range(ref.n_states)
    ]
    for i in (0, 15, 16, 17, 31, 32, 63, 64, 127, 128, ref.n_states - 1):
        assert fast.state_meta[i] == ref.state_meta[i]
    with pytest.raises(KeyError):
        fast.state_meta[ref.n_states]
