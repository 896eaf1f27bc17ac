"""End-to-end instrumentation: sweeps, fixpoints, checks, stats gaps.

The contract under test: instrumented runs emit the documented event
stream AND explore exactly the same system as un-instrumented runs;
every exit path (normal, limit error) reports complete timing.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.errors import ExplorationLimitError
from repro.jackal.params import CONFIG_1, ProtocolVariant
from repro.jackal.requirements import build_model, check_requirement_1
from repro.lts.engine import explore_fast, search_tree
from repro.lts.explore import ExplorationStats, explore
from repro.mucalc.checker import holds
from repro.mucalc.parser import parse_formula
from repro.obs.report import render_report


def _tracer():
    return obs.Tracer(ring=100_000)


def _events(tracer, ev=None):
    return [e for e in tracer.events() if ev is None or e["ev"] == ev]


@pytest.fixture
def model():
    return build_model(CONFIG_1, ProtocolVariant.fixed(), probes=False)


def test_engine_sweep_events(model):
    tracer = _tracer()
    explore_fast(model, tracer=tracer)
    assert _events(tracer, "sweep_start")[0]["backend"] == "engine"
    assert _events(tracer, "sweep_end")[0]["outcome"] == "ok"
    waves = _events(tracer, "wave")
    assert waves, "each BFS depth emits a wave event"
    # wave phase split is self-consistent (each field rounded to 1 us)
    for w in waves:
        assert w["succ_s"] >= 0 and w["dedup_s"] >= 0
        assert w["succ_s"] + w["dedup_s"] <= w["wave_s"] + 2e-6
    # the collector is never suspended: the sweep's rows are arrays
    assert not [e for e in _events(tracer) if e["ev"].startswith("gc_")]


def test_instrumented_run_explores_the_same_lts(model):
    plain = explore_fast(model)
    tracer = _tracer()
    traced = explore_fast(model, tracer=tracer)
    assert traced.n_states == plain.n_states
    assert traced.n_transitions == plain.n_transitions
    end = _events(tracer, "sweep_end")[0]
    assert end["states"] == plain.n_states
    assert end["transitions"] == plain.n_transitions


def test_kernel_sweep_reports_every_byte_of_its_visited_set(model):
    tracer = _tracer()
    lts = explore_fast(model, tracer=tracer)
    end = _events(tracer, "sweep_end")[0]
    # the rows themselves and four int32 slots a state, not a dict shell
    words = model.kernel().pack([model.initial_state()]).shape[1]
    assert end["bytes_per_state"] >= 8 * words + 16
    # the process peak, read once at sweep end, holds at least the set
    assert end["max_rss_bytes"] >= end["bytes_per_state"] * lts.n_states
    assert f"visited set {end['bytes_per_state']:.1f} B/state" in (
        render_report(tracer.events())
    )


def test_sweep_end_reports_what_the_wave_destination_holds(model):
    tracer = _tracer()
    lts = explore_fast(model, tracer=tracer)
    tree = search_tree(model, tracer=tracer)
    columns, kept = _events(tracer, "sweep_end")
    assert columns["dest"] == "columns"
    assert columns["dest_bytes"] == 12 * lts.n_transitions
    assert (kept["dest"], kept["dest_bytes"]) == ("tree", 8 * tree.n_states)
    # beside the visited set, with the two together: bytes a state all in
    text = render_report(tracer.events())
    visited = columns["bytes_per_state"]
    per_state = columns["dest_bytes"] / columns["states"]
    assert (
        f"visited set {visited:.1f} B/state  "
        f"transition columns {per_state:.1f} B/state  "
        f"(together {visited + per_state:.1f})"
    ) in text
    assert "BFS tree 8.0 B/state" in text


@pytest.mark.parametrize("explorer", [explore, explore_fast])
def test_limit_error_carries_complete_stats(model, explorer):
    with pytest.raises(ExplorationLimitError) as exc:
        explorer(model, max_states=50)
    st = exc.value.stats
    assert st is not None
    assert st.states >= 50
    assert st.seconds > 0
    assert st.states_per_second() > 0


# the reference explorer traces nothing: only the engine has a limit event
@pytest.mark.parametrize("explorer", [explore_fast])
def test_limit_event_emitted(model, explorer):
    tracer = _tracer()
    with pytest.raises(ExplorationLimitError):
        explorer(model, max_states=50, tracer=tracer)
    end = _events(tracer, "sweep_end")[0]
    assert end["outcome"] == "limit"
    assert end["states"] >= 50
    assert end["seconds"] > 0


def test_passed_stats_object_still_filled(model):
    st = ExplorationStats()
    explore_fast(model, stats=st)
    assert st.states > 0 and st.seconds > 0


def test_fixpoint_events_from_checker(small_lts):
    tracer = _tracer()
    with obs.activate(tracer):
        assert holds(small_lts, parse_formula("mu X. (<d>T \\/ <T>X)"))
    fps = _events(tracer, "fixpoint")
    assert fps, "mu-calculus fixpoints emit events"
    assert fps[0]["op"] == "mu"
    assert fps[0]["states"] == small_lts.n_states


def test_requirement_check_event():
    tracer = _tracer()
    with obs.activate(tracer):
        rep = check_requirement_1(CONFIG_1)
    checks = _events(tracer, "check")
    assert len(checks) == 1
    assert checks[0]["requirement"] == rep.requirement
    assert checks[0]["holds"] is True
    assert checks[0]["states"] == rep.lts_states
    assert checks[0]["seconds"] > 0


def test_ambient_activation_reaches_engine(model):
    tracer = _tracer()
    with obs.activate(tracer):
        explore_fast(model)
    assert _events(tracer, "sweep_end")
    assert obs.current() is obs.NULL_TRACER  # restored afterwards
