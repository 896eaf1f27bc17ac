"""The frontier kernel, state by state and field by field.

``JackalModel.successors`` is the specification. The kernel evaluates
the same relation over packed rows a BFS level at a time, as a rule
table and one interpreter: here its ``expand`` is held to
``successors`` on random walks, its limits and model errors to the
scalar loop's, and the interpreter's guards and write plans to the
field boundaries. Whole sweeps are held to the reference explorer column for
column in ``tests/conformance/``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import ModelError
from repro.jackal.kernel import (
    DEC,
    INC,
    Drop,
    Fail,
    From,
    Layout,
    Raise,
    Rule,
    RuleTable,
)
from repro.jackal.model import VIOLATION, JackalModel, Phase
from repro.jackal.params import Config, ProtocolVariant
from repro.lts.engine import explore_fast
from repro.lts.explore import ExplorationStats, explore
from repro.obs.report import render_report
from tests.conformance.harness import (
    EXPLORER_CELLS,
    assert_same_lts,
    capped_sweep,
    explorer_config,
    sweep_stats,
)
from tests.jackal.test_model_properties import _walk, configs


@pytest.mark.parametrize(
    "variant,topology,n_regions,rounds,writes,probes", EXPLORER_CELLS,
    ids=lambda v: "cyclic" if v is None else str(v).replace(" ", ""),
)
def test_engine_on_kernel_equals_reference_explorer(
    explorer_agrees, variant, topology, n_regions, rounds, writes, probes
):
    # one of the explorer axis's examples (tests/conformance)
    explorer_agrees(
        explorer_config(topology, n_regions, rounds, writes, probes), variant
    )


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


@pytest.mark.parametrize("max_states", [-3, 0, 1, 2, 50, 51, 1000])
def test_state_limit_matches_the_scalar_loop(max_states):
    model = _c1r2()
    scalar, scalar_stats, scalar_limit = capped_sweep(
        explore, model, max_states=max_states
    )
    fast, fast_stats, fast_limit = capped_sweep(
        explore_fast, model, max_states=max_states
    )
    assert fast_limit == scalar_limit is not None
    assert fast_limit == f"state limit {max_states} exceeded at depth {fast_stats.depth}"
    # a limit below 1 trips on the first new state, as a limit of 1 does
    assert fast.n_states == max(max_states, 1) + 1
    assert_same_lts(fast, scalar)
    assert sweep_stats(fast_stats) == sweep_stats(scalar_stats)
    assert fast.state_meta == scalar.state_meta


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
        model.successors(state)
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
    after = dict(unchecked.successors(state))[model.lbl_fhome[0][0]]
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


#: narrow fields either side of the byte boundary and at the widest a
#: guard reads, fields too wide for a guard, and two wide elements
_BOUNDARY = Layout([
    ("narrow", [("f7", 7), ("f8", 8), ("f15", 15)]),
    ("edge", [("f10", 10)]),
    ("wide", [("f11", 11)]),
    ("wa", [("x", 40)]),
    ("wb", [("x", 40)]),
])


def _table(*updates, guard=()):
    """A table over :data:`_BOUNDARY` holding one rule writing ``updates``."""
    return RuleTable(_BOUNDARY, [Rule("step", 0, "step", guard, tuple(updates))])


def _fire(table, rows=({},)):
    """The successor rows ``table`` fires on one row per dict of values."""
    packed = np.zeros((len(rows), _BOUNDARY.n_words), dtype=np.uint64)
    for i, values in enumerate(rows):
        for name, value in values.items():
            f = _BOUNDARY[name.replace("_", ".")]
            packed[i, f.word] |= np.uint64(value << f.shift)
    return table.fire(packed)[0]


def _after(succ, name):
    """Field ``name`` of every row of ``succ``."""
    f = _BOUNDARY[name.replace("_", ".")]
    return ((succ[:, f.word] >> np.uint64(f.shift)) & np.uint64(f.mask)).tolist()


@pytest.mark.parametrize("width", [7, 8, 10])
def test_inc_and_dec_leave_a_field_at_its_edge(width):
    name = {7: "narrow_f7", 8: "narrow_f8", 10: "edge_f10"}[width]
    f = _BOUNDARY[name.replace("_", ".")]
    inc, dec = _table((f, INC)), _table((f, DEC))
    with pytest.raises(ModelError, match=f"{f.name} written with a value"):
        _fire(inc, [{name: f.mask}])
    with pytest.raises(ModelError, match=f"{f.name} written with a value"):
        _fire(dec, [{name: 0}])
    # one step inside the range still lands on the edge, in every row
    assert _after(_fire(inc, [{name: f.mask - 1}, {name: 0}]), name) == [
        f.mask, 1]
    assert _after(_fire(dec, [{name: 1}, {name: f.mask}]), name) == [
        0, f.mask - 1]
    # a step never carries into the neighbouring field
    assert _after(_fire(inc, [{name: f.mask - 1, "wa_x": 5}]), "wa_x") == [5]


def test_a_step_on_a_field_wider_than_a_guard_is_refused():
    # the write that would leave the field is a rule guarded on it
    with pytest.raises(ModelError, match="wide.f11 is too wide"):
        _table((_BOUNDARY["wide.f11"], INC))


def test_from_keeps_the_value_between_narrow_and_wide_fields():
    wide = (1 << 39) | 0xFF
    f8, f7, f10 = (_BOUNDARY[n] for n in ("narrow.f8", "narrow.f7", "edge.f10"))
    wa, wb = _BOUNDARY["wa.x"], _BOUNDARY["wb.x"]
    assert _after(_fire(_table((wb, From(f8))), [{"narrow_f8": 0xFF}]),
                  "wb_x") == [0xFF]
    assert _after(
        _fire(_table((_BOUNDARY["wb"], From(_BOUNDARY["wa"]))),
              [{"wa_x": wide}]),
        "wb_x") == [wide]
    # a wider value that fits the narrow field is copied whole, one that
    # does not is refused
    narrowing = _table((f7, From(f10)))
    assert _after(_fire(narrowing, [{"edge_f10": 0x7F}]), "narrow_f7") == [
        0x7F]
    with pytest.raises(ModelError, match="narrow.f7 written with a value"):
        _fire(narrowing, [{"edge_f10": 0x80}])
    with pytest.raises(ModelError, match="wa.x is too wide"):
        _table((f7, From(wa)))


@pytest.mark.parametrize("first,second", [
    ("narrow.f8", "narrow.f8"),  # the same field twice
    ("narrow", "narrow.f15"),  # an element and one of its own fields
    ("narrow.f15", "narrow"),
])
def test_overlapping_writes_in_one_move_are_refused(first, second):
    with pytest.raises(ModelError, match=rf"{second} overlaps another write"):
        _table((_BOUNDARY[first], 0), (_BOUNDARY[second], INC))
    # fields side by side in one word do not overlap
    succ = _fire(_table((_BOUNDARY["narrow.f7"], 1),
                        (_BOUNDARY["narrow.f8"], 2)))
    assert (_after(succ, "narrow_f7"), _after(succ, "narrow_f8")) == ([1], [2])


def test_out_of_range_constant_raises_on_every_use_and_is_not_cached():
    f7 = _BOUNDARY["narrow.f7"]
    plans = dict(_BOUNDARY._plans)
    for _ in range(2):
        with pytest.raises(ModelError, match="narrow.f7 = 128 outside"):
            _table((f7, 128))
        with pytest.raises(ModelError, match="narrow.f7 has no bits"):
            _table((f7, Raise(128)))
    assert _BOUNDARY._plans == plans


def test_from_narrow_to_wide_is_exact_without_a_range_check():
    narrow, wb = _BOUNDARY["narrow.f8"], _BOUNDARY["wb.x"]
    rows = [{"narrow_f8": v, "wb_x": (1 << 40) - 1} for v in (0, 1, 0xFF)]
    widening = _table((wb, From(narrow)))
    assert _after(_fire(widening, rows), "wb_x") == [0, 1, 0xFF]
    # no rule guards the widening write; the narrowing one has its Fail
    assert [r.name for r in widening.rules] == ["step"]
    narrowing = _table((narrow, From(_BOUNDARY["edge.f10"])))
    assert [type(r.updates).__name__ for r in narrowing.rules] == [
        "tuple", "Fail"]


def test_a_cached_plan_gives_the_rows_of_a_fresh_one():
    f7, f8, f10 = (_BOUNDARY[n] for n in ("narrow.f7", "narrow.f8", "edge.f10"))
    wa, wb = _BOUNDARY["wa.x"], _BOUNDARY["wb.x"]
    updates = ((f7, 5), (f8, INC), (wb, From(wa)), (f10, Raise(0b101)))
    rows = [{"narrow_f8": 9, "edge_f10": 2, "wa_x": 1 << 39},
            {"narrow_f7": 127, "wa_x": 3}]
    _table(*updates)  # compiles the plan
    plans = dict(_BOUNDARY._plans)
    cached = _fire(_table(*updates), rows)
    assert _BOUNDARY._plans == plans
    _BOUNDARY._plans.clear()
    fresh = _fire(_table(*updates), rows)
    assert np.array_equal(cached, fresh)
    assert _after(fresh, "narrow_f8") == [10, 1]
    assert _after(fresh, "edge_f10") == [0b111, 0b101]
    assert _after(fresh, "wb_x") == [1 << 39, 3]
    assert _after(fresh, "narrow_f7") == [5, 5]
    # Raise and Drop of the same bits compare equal as tuples; their
    # plans must not
    table = RuleTable(_BOUNDARY, [
        Rule("raise", 0, "step", (), ((f10, Raise(1)),)),
        Rule("drop", 1, "step", (), ((f10, Drop(1)),)),
    ])
    assert _after(_fire(table, [{"edge_f10": 1}]), "edge_f10") == [1, 0]


def test_guards_select_rows_and_order_them_by_rank():
    f7, f8 = _BOUNDARY["narrow.f7"], _BOUNDARY["narrow.f8"]
    table = RuleTable(_BOUNDARY, [
        Rule("late", 2, "b", ((f7, "<", 3),), ((f8, 2),)),
        Rule("early", 1, "a", ((f7, "==", 3), (f8, "!=", 0)), ((f8, 1),)),
        Rule("fail", 0, "", ((f7, ">=", 100),), Fail("f7 is {}", f7)),
    ])
    packed = np.array([[v << f7.shift | w << f8.shift, 0, 0]
                       for v, w in ((3, 1), (1, 0), (3, 0), (2, 5))],
                      dtype=np.uint64)
    succ, row, inst = table.fire(packed)
    assert row.tolist() == [0, 1, 3]
    # the labels are the emitted ones, in rank order
    assert table.labels == ["a", "b"]
    assert table.lid[inst].tolist() == [0, 1, 1]
    assert _after(succ, "narrow_f8") == [1, 2, 2]
    packed[2, 0] = np.uint64(101 << f7.shift)
    with pytest.raises(ModelError, match="f7 is 101"):
        table.fire(packed)


def test_instrumented_kernel_sweep_reports_like_the_scalar_loop():
    model = _c1r2()
    stats = ExplorationStats()
    with obs.Tracer(ring=10_000) as tracer, obs.activate(tracer):
        lts = explore_fast(model, stats=stats)
    events = tracer.events()
    assert events[0]["ev"] == "sweep_start"
    assert not [e for e in events if e["ev"].startswith("gc_")]
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
                  "reduction"):
        assert field in end
    text = render_report(events)
    assert "sweep 1: engine — ok" in text
    assert "states 4,119" in text
    assert "phase breakdown:" in text
