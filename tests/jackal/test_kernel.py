"""The differential that licenses the frontier kernel.

``JackalModel.successors`` is the specification. The kernel evaluates
the same relation over packed rows a BFS level at a time, and the
engine numbers what it returns — so the two must agree not up to
bisimulation but column for column: same state ids, same transition
order, same label table, same decoded state behind every id.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import ExplorationLimitError, ModelError
from repro.jackal.model import VIOLATION, JackalModel, Phase
from repro.jackal.params import Config, ProtocolVariant
from repro.lts.engine import explore_fast
from repro.lts.explore import ExplorationStats, explore
from repro.obs.report import render_report
from tests.jackal.test_model_properties import _walk, configs
from tests.lts.systems import ScalarOnly

VARIANTS = ("fixed", "error1", "error2", "buggy", "no_migration", "alf")
TOPOLOGIES = ((1, 1), (2, 1), (1, 1, 1), (2, 2))
#: n_regions x rounds x writes_per_round x probes
PARAMETERS = tuple(itertools.product(
    (1, 2), (1, 2, None), (1, 2), (True, False)
))
#: every variant on every topology, the 24 parameter combinations dealt
#: round-robin over them twice with different offsets, so each
#: combination runs under two (variant, topology) pairs
CELLS = [
    (variant, topology, *PARAMETERS[(i + shift) % len(PARAMETERS)])
    for shift in (0, 7)
    for i, (variant, topology) in enumerate(
        itertools.product(VARIANTS, TOPOLOGIES)
    )
]
#: bounds the big cells; both explorers then stop at the same transition
CAP = 4000


def _stats(st_):
    return (st_.states, st_.transitions, st_.max_frontier, st_.depth,
            st_.level_sizes)


def _sweep(explorer, system, **kwargs):
    """``(lts, stats, limit message or None)`` of a possibly capped sweep."""
    stats = ExplorationStats()
    try:
        return explorer(system, stats=stats, **kwargs), stats, None
    except ExplorationLimitError as exc:
        assert exc.stats is stats
        return exc.partial, stats, str(exc)


def _assert_same_lts(mine, theirs):
    assert mine.labels == theirs.labels
    assert mine.n_states == theirs.n_states
    for a, b in zip(mine.columns(), theirs.columns()):
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "variant,topology,n_regions,rounds,writes,probes", CELLS,
    ids=lambda v: "cyclic" if v is None else str(v).replace(" ", ""),
)
def test_engine_on_kernel_equals_reference_explorer(
    variant, topology, n_regions, rounds, writes, probes
):
    model = JackalModel(
        Config(threads_per_processor=topology, n_regions=n_regions,
               rounds=rounds, writes_per_round=writes, with_probes=probes),
        getattr(ProtocolVariant, variant)(),
    )
    ref, ref_stats, ref_limit = _sweep(
        explore, model, keep_states=True, max_states=CAP
    )
    fast, fast_stats, fast_limit = _sweep(
        explore_fast, model, keep_states=True, max_states=CAP
    )
    assert fast_limit == ref_limit
    _assert_same_lts(fast, ref)
    assert _stats(fast_stats) == _stats(ref_stats)
    assert len(fast.state_meta) == ref.n_states
    assert fast.state_meta == ref.state_meta
    assert fast.state_meta.values() == [
        ref.state_meta[i] for i in range(ref.n_states)
    ]
    assert fast.state_meta.get(ref.n_states) is None


@st.composite
def variants(draw):
    return ProtocolVariant(*(draw(st.booleans()) for _ in range(4)))


@settings(max_examples=60, deadline=None)
@given(configs(), variants(), st.booleans(),
       st.integers(min_value=0, max_value=10_000))
def test_expand_is_successors_state_by_state(config, variant, check, seed):
    model = JackalModel(config, variant, check_assertions=check)
    kernel = model.kernel()
    try:
        states = _walk(model, seed) + [VIOLATION]
        rows = kernel.pack(states)
    except ModelError:
        # unchecked, a buggy variant walks localthreads below zero: a
        # state the tuples can hold and a row cannot
        assert not check
        return
    assert kernel.unpack(rows) == states
    try:
        succ, src_pos, label_ids = kernel.expand(rows)
    except ModelError:
        assert not check
        return
    assert np.all(np.diff(src_pos) >= 0)
    got = [[] for _ in states]
    for pos, lid, state in zip(
        src_pos.tolist(), label_ids.tolist(), kernel.unpack(succ)
    ):
        got[pos].append((kernel.labels[lid], state))
    assert got == [model.successors(state) for state in states]
    # keys are canonical: the row of a state does not depend on the
    # rule that produced it
    assert np.array_equal(kernel.pack(kernel.unpack(succ)), succ)


def _c1r2(**kwargs):
    return JackalModel(
        Config(threads_per_processor=(1, 1), rounds=2, with_probes=False),
        **kwargs,
    )


@pytest.mark.parametrize("max_states", [1, 2, 50, 51, 1000])
def test_state_limit_matches_the_scalar_loop(max_states):
    model = _c1r2()
    scalar, scalar_stats, scalar_limit = _sweep(
        explore_fast, ScalarOnly(model), keep_states=True,
        max_states=max_states,
    )
    fast, fast_stats, fast_limit = _sweep(
        explore_fast, model, keep_states=True, max_states=max_states
    )
    assert fast_limit == scalar_limit is not None
    assert fast.n_states == max_states + 1
    _assert_same_lts(fast, scalar)
    assert _stats(fast_stats) == _stats(scalar_stats)
    assert fast.state_meta == scalar.state_meta


def test_depth_bound_level_callback_and_dropped_states():
    model = _c1r2()
    levels: dict = {"ref": [], "fast": []}
    ref, ref_stats, _ = _sweep(
        explore, model, max_depth=9,
        on_level=lambda d, n: levels["ref"].append((d, n)),
    )
    fast, fast_stats, _ = _sweep(
        explore_fast, model, max_depth=9,
        on_level=lambda d, n: levels["fast"].append((d, n)),
    )
    _assert_same_lts(fast, ref)
    assert _stats(fast_stats) == _stats(ref_stats)
    assert levels["fast"] == levels["ref"] and len(levels["ref"]) == 9
    assert fast.state_meta == {}


def _with_thread0(model, **fields):
    """The initial state with fields of thread 0 replaced."""
    names = ("phase", "reg", "aho", "wdone", "rounds", "dirty")
    state = model.initial_state()
    thread = tuple(
        fields.get(name, old) for name, old in zip(names, state[0][0])
    )
    return ((thread,) + state[0][1:],) + state[1:]


def test_released_free_lock_is_the_scalar_model_error():
    model = _c1r2()
    state = _with_thread0(model, phase=int(Phase.HAVE_SERVER))
    with pytest.raises(ModelError) as scalar:
        model.successors_fast(state)
    with pytest.raises(ModelError) as packed:
        model.kernel().expand(model.kernel().pack([state]))
    assert str(packed.value) == str(scalar.value)
    assert "releasing free lock slot 0 on p0" in str(packed.value)


def test_value_outside_its_field_raises_instead_of_wrapping():
    model = _c1r2()
    kernel = model.kernel()
    # one round more than the two the layout was sized for
    with pytest.raises(ModelError, match="thread0.rounds"):
        kernel.pack([_with_thread0(model, rounds=3)])
    # localthreads 0 flushed once more: unchecked, the tuples go to -1
    unchecked = _c1r2(check_assertions=False)
    state = _with_thread0(
        unchecked, phase=int(Phase.HAVE_FLUSH), wdone=1, dirty=1
    )
    locks = ((0, 0, 0, 0, 1, 0),) + state[6][1:]
    state = state[:6] + (locks,) + state[7:]
    after = dict(unchecked.successors_fast(state))[model.lbl_fhome[0][0]]
    assert after[1][0][0][3] == -1
    with pytest.raises(ModelError, match="copy0_0.lt"):
        unchecked.kernel().expand(unchecked.kernel().pack([state]))
    # checked, the same row steps to the sink
    succ, _src, label_ids = kernel.expand(kernel.pack([state]))
    moves = dict(zip(
        (kernel.labels[lid] for lid in label_ids), kernel.unpack(succ)
    ))
    assert moves == dict(model.successors(state))
    assert moves[model.lbl_viol_lt] == VIOLATION


def test_instrumented_kernel_sweep_reports_like_the_scalar_loop():
    model = _c1r2()
    inst = obs.Instrumentation(tracer=obs.Tracer(ring=10_000))
    stats = ExplorationStats()
    with inst:
        lts = explore_fast(model, stats=stats, obs=inst)
    events = inst.tracer.events()
    assert [e["ev"] for e in events[:2]] == ["sweep_start", "gc_suspend"]
    assert events[0]["backend"] == "engine" and "packed" not in events[0]
    waves = [e for e in events if e["ev"] == "wave"]
    assert [w["depth"] for w in waves] == list(range(1, stats.depth + 1))
    assert [w["frontier"] for w in waves[:-1]] == stats.level_sizes[1:]
    assert sum(w["transitions"] for w in waves) == lts.n_transitions
    for wave in waves:
        assert 0 <= wave["succ_s"] <= wave["wave_s"]
        assert wave["dedup_s"] == pytest.approx(
            wave["wave_s"] - wave["succ_s"], abs=2e-6
        )
    assert sum(w["succ_s"] for w in waves) > 0
    (end,) = [e for e in events if e["ev"] == "sweep_end"]
    assert end["backend"] == "engine" and end["outcome"] == "ok"
    assert (end["states"], end["transitions"]) == (4119, lts.n_transitions)
    assert end["depth"] == stats.depth
    assert end["max_frontier"] == stats.max_frontier
    for field in ("seconds", "states_per_second", "max_rss_bytes",
                  "mem_pressure_events", "reduction"):
        assert field in end
    text = render_report(events)
    assert "sweep 1: engine — ok" in text
    assert "states 4,119" in text
    assert "phase breakdown:" in text
