"""Spans: the one timing primitive, and the whole-run account built on
their ``parent`` ids."""

from __future__ import annotations

import pytest

from repro import obs
from repro.analysis.experiments import run_table8
from repro.jackal.model import JackalModel
from repro.jackal.params import CONFIG_1, ProtocolVariant
from repro.jackal.requirements import check_requirement_4
from repro.lts.certreduce import ReducedSystem
from repro.lts.engine import explore_fast
from repro.lts.explore import ExplorationStats, explore
from repro.obs.report import whole_run
from repro.staticcheck.symmetry import certify

FIXED = ProtocolVariant.fixed()


def _events(tracer, ev):
    return [e for e in tracer.events() if e["ev"] == ev]


def test_spans_nest_and_a_failed_block_records_nothing():
    tracer = obs.Tracer()
    with tracer.span("outer", x=1) as outer:
        with tracer.span("inner") as inner:
            inner.fields["y"] = 2
        with pytest.raises(KeyError), tracer.span("failed"):
            raise KeyError
    first, second = tracer.events()
    assert (first["ev"], first["y"], first["parent"]) == (
        "inner", 2, second["span"]
    )
    assert (second["ev"], second["x"], second["parent"]) == ("outer", 1, None)
    assert first["span"] != second["span"]
    assert second["seconds"] == round(outer.seconds, 6) >= first["seconds"]
    assert second["t"] >= first["t"]


def test_a_sweep_inside_a_check_is_counted_once():
    # the reference explorer's LTS has no winners column, so the
    # certified Requirement 4 sweeps the quotient inside its own check
    cert, findings = certify(CONFIG_1, FIXED)
    assert cert is not None, findings
    lts = explore(ReducedSystem(JackalModel(CONFIG_1, FIXED), cert))
    tracer = obs.Tracer(ring=100_000)
    with obs.activate(tracer):
        assert check_requirement_4(
            CONFIG_1, FIXED, lts=lts, certificate=cert
        ).holds
    (check,) = _events(tracer, "check")
    sweeps = _events(tracer, "sweep_end")
    assert sweeps and check["parent"] is None
    assert all(e["parent"] == check["span"] for e in sweeps)
    run = whole_run(tracer.events())
    assert run["sweeps_s"] == pytest.approx(sum(e["seconds"] for e in sweeps))
    assert run["sweeps_s"] + run["checks_s"] == pytest.approx(
        check["seconds"], abs=1e-6
    )


def test_a_traced_table8_row_is_its_span():
    tracer = obs.Tracer(ring=100_000)
    with obs.activate(tracer):
        (row,) = run_table8(rounds=1, configs={"1": CONFIG_1})
    (span,) = _events(tracer, "table8_row")
    assert span["seconds"] == round(row.seconds, 6) > 0
    assert (span["config"], span["states"], span["transitions"]) == (
        row.config, row.states, row.transitions
    )
    inside = _events(tracer, "check") + _events(tracer, "sweep_end")
    assert inside and all(e["parent"] == span["span"] for e in inside)


def test_untraced_runs_are_still_timed():
    assert obs.current() is obs.NULL_TRACER
    model = JackalModel(CONFIG_1, FIXED)
    for sweep in (explore, explore_fast):
        stats = ExplorationStats()
        sweep(model, stats=stats)
        assert stats.seconds > 0
    (row,) = run_table8(rounds=1, configs={"1": CONFIG_1})
    assert row.seconds > 0
    with obs.NULL_TRACER.span("anything") as span:
        pass
    assert span.seconds >= 0
    assert obs.NULL_TRACER.events() == []
