"""Trace rendering: phase breakdown math and the timeline report."""

from __future__ import annotations

import pytest

from repro import obs
from repro.jackal.params import CONFIG_1, ProtocolVariant
from repro.jackal.requirements import build_model
from repro.lts.engine import explore_fast
from repro.obs.report import (
    phase_breakdown,
    render_report,
    report_from_file,
    whole_run,
)
from repro.obs.tracer import read_trace


@pytest.fixture
def model():
    return build_model(CONFIG_1, ProtocolVariant.fixed(), probes=False)


def test_phase_breakdown_from_wave_events():
    events = [
        {"t": 0.0, "ev": "sweep_start", "backend": "engine"},
        {"t": 0.1, "ev": "wave", "succ_s": 0.04, "dedup_s": 0.02},
        {"t": 0.2, "ev": "wave", "succ_s": 0.03, "dedup_s": 0.01},
        {"t": 0.3, "ev": "sweep_end", "seconds": 0.2},
    ]
    phases = phase_breakdown(events)
    assert phases["successors_s"] == 0.07
    assert phases["dedup_s"] == 0.03
    assert phases["other_s"] == 0.1
    assert phases["total_s"] == 0.2


def test_phase_breakdown_empty():
    phases = phase_breakdown([])
    assert phases["total_s"] == 0.0
    assert phases["other_s"] == 0.0


def test_render_report_on_recorded_sweep(model):
    with obs.Tracer(ring=10_000) as tracer, obs.activate(tracer):
        explore_fast(model)
    text = render_report(tracer.events())
    assert "flight recorder report" in text
    assert "sweep 1: engine" in text
    assert "depth waves:" in text
    assert "phase breakdown:" in text


def test_recorded_distributed_trace_still_renders():
    """A trace of the retired partitioned backend is outside input: its
    worker, ring and recovery events are skipped like any unknown
    event, and what the report does know still renders."""
    events = [
        {"t": 0.0, "ev": "sweep_start", "backend": "distributed-process",
         "n_workers": 2, "lane": "coordinator"},
        {"t": 0.001, "ev": "worker_start", "worker": 0, "clock_offset": 0.0,
         "lane": "worker0"},
        {"t": 0.01, "ev": "fault_plan", "kind": "kill", "worker": 0,
         "arg": 2},
        {"t": 0.02, "ev": "ring_get", "worker": 1, "seq": 1,
         "lane": "worker1"},
        {"t": 0.03, "ev": "ring_put", "worker": 1, "seq": 1, "seconds": 0.001,
         "lane": "worker1"},
        {"t": 0.04, "ev": "local_chase", "worker": 1, "seq": 1, "states": 3,
         "lane": "worker1"},
        {"t": 0.05, "ev": "ack", "worker": 1, "seq": 1, "visited": 40,
         "expand_s": 0.01, "lane": "coordinator"},
        {"t": 0.10, "ev": "worker_death", "worker": 0, "inflight": 2,
         "pending": 1, "alive": 1, "visited": 12},
        {"t": 0.11, "ev": "redispatch", "worker": 0, "batches": 2},
        {"t": 0.12, "ev": "coord_sample", "alive": 1},
        {"t": 0.30, "ev": "sweep_end", "outcome": "ok", "states": 52,
         "transitions": 80, "seconds": 0.3, "states_per_second": 173.0,
         "worker_deaths": 1, "redispatched_batches": 2, "recovered": True,
         "worker_succ_s": 0.1, "worker_expand_s": 0.2, "ring_put_s": 0.05,
         "coord_handle_s": 0.05, "max_rss_bytes": 1048576,
         "lane": "coordinator"},
    ]
    text = render_report(events)
    assert "sweep 1: distributed-process — ok" in text
    assert "states 52  transitions 80" in text
    assert "memory: max RSS 1.0 MiB" in text
    for ignored in ("worker", "ring_", "local_chase", "ack", "redispatch",
                    "fault_plan", "coord_sample", "transport", "lane"):
        assert ignored not in text
    assert phase_breakdown(events) == {
        "successors_s": 0.0, "dedup_s": 0.0, "other_s": 0.3, "total_s": 0.3,
    }


def test_trace_of_the_retired_recorders_still_renders():
    """Older traces carry the memory watcher's ``mem_pressure`` events
    and ``mem_pressure_events`` field, the on-the-fly checker's
    ``product_*`` events and the engine's ``gc_suspend``/``gc_resume``
    bracket; they are skipped, and the rest renders."""
    events = [
        {"t": 0.0, "ev": "sweep_start", "backend": "engine"},
        {"t": 0.01, "ev": "gc_suspend"},
        {"t": 0.05, "ev": "mem_pressure", "rss_bytes": 2097152,
         "threshold_bytes": 1048576, "structs": {"visited_index": 4096}},
        {"t": 0.09, "ev": "gc_resume", "suspended_s": 0.08},
        {"t": 0.1, "ev": "sweep_end", "outcome": "ok", "states": 7,
         "transitions": 9, "seconds": 0.1, "max_rss_bytes": 2097152,
         "bytes_per_state": 58.5, "mem_pressure_events": 1},
        {"t": 0.2, "ev": "product_start", "regular": "T*.c",
         "max_states": None},
        {"t": 0.3, "ev": "product_end", "found": True, "product_states": 77,
         "seconds": 0.1},
    ]
    text = render_report(events)
    assert "sweep 1: engine — ok" in text
    assert "memory: max RSS 2.0 MiB  visited set 58.5 B/state" in text
    for retired in ("mem_pressure", "pressure", "product", "77", "gc_",
                    "suspended"):
        assert retired not in text


def test_render_report_wave_elision():
    waves = [
        {"t": i * 0.001, "ev": "wave", "depth": i, "states": i,
         "frontier": 1, "wave_s": 0.001}
        for i in range(1, 101)
    ]
    text = render_report(
        [{"t": 0.0, "ev": "sweep_start", "backend": "engine"}] + waves
    )
    assert "waves elided" in text


def test_render_report_checks_and_fixpoints():
    events = [
        {"t": 0.1, "ev": "fixpoint", "var": "X", "op": "mu",
         "mode": "kleene", "iterations": 4, "states": 10, "seconds": 0.01},
        {"t": 0.15, "ev": "fixpoint", "var": "_R0", "op": "nu",
         "mode": "worklist-box", "iterations": 37, "states": 10,
         "seconds": 0.002},
        {"t": 0.2, "ev": "check", "requirement": "1 (deadlock freeness)",
         "holds": True, "states": 288, "seconds": 0.05},
        {"t": 0.25, "ev": "check",
         "requirement": "3.2 (bounded copies when stable)", "holds": None,
         "states": 0, "seconds": 0.0},
    ]
    text = render_report(events)
    # frontier rounds are depth, not Kleene iterations; both show per row
    assert (
        "fixpoints: 2 solved (1 kleene, 1 worklist-box; 4 Kleene iterations)"
        in text
    )
    assert "nu _R0      worklist-box          37 rounds     0.002 s" in text
    assert "requirement checks:" in text
    assert "1 (deadlock freeness)              HOLDS " in text
    # a requirement not checked on this configuration is not a HOLDS
    assert "3.2 (bounded copies when stable)   NOT CHECKED " in text


def test_report_from_file_round_trip(tmp_path, model):
    path = tmp_path / "sweep.jsonl"
    with obs.Tracer(path) as tracer, obs.activate(tracer):
        explore_fast(model)
    text = report_from_file(path)
    assert "sweep 1: engine" in text


def _recorded_check(tmp_path, *extra):
    from repro.cli import main

    path = tmp_path / "check.jsonl"
    args = ["check", "--config", "1", "--rounds", "1", "--trace", str(path)]
    assert main(args + list(extra)) == 0
    return path, read_trace(path)


def _seconds(events, ev):
    return sum(e["seconds"] for e in events if e["ev"] == ev)


def test_whole_run_line_accounts_for_a_recorded_check(tmp_path, capsys):
    path, events = _recorded_check(tmp_path)
    run = whole_run(events)
    # one sweep, five checks that were handed their sweep
    assert set(run) == {"span_s", "sweeps_s", "checks_s", "unattributed_s"}
    assert run["sweeps_s"] == pytest.approx(_seconds(events, "sweep_end"))
    assert run["checks_s"] == pytest.approx(_seconds(events, "check"))
    assert min(run.values()) >= 0
    assert run["span_s"] >= events[-1]["t"] - events[0]["t"]
    assert (
        run["sweeps_s"] + run["checks_s"] + run["unattributed_s"]
    ) == pytest.approx(run["span_s"], abs=1e-5)
    last = report_from_file(path).splitlines()[-1]
    assert last.startswith(f"whole run: {run['span_s']:.3f} s = sweeps ")
    assert "+ checks " in last and "+ unattributed " in last


def test_whole_run_counts_a_sweep_inside_a_check_once(tmp_path, capsys):
    # a stand-alone check runs the plan: its `check` window opens after
    # the sweep ends and holds the decision alone
    _path, events = _recorded_check(tmp_path, "--requirement", "1")
    (end,) = [e for e in events if e["ev"] == "sweep_end"]
    (check,) = [e for e in events if e["ev"] == "check"]
    assert check["t"] - check["seconds"] >= end["t"] - 1e-6
    run = whole_run(events)
    assert run["sweeps_s"] == pytest.approx(end["seconds"])
    assert run["checks_s"] == pytest.approx(check["seconds"])
    # a sweep whose parent is a check is counted once, as sweep time,
    # also through a span between them that is not counted
    nested = [
        {"t": 0.0, "ev": "sweep_start", "backend": "engine"},
        {"t": 0.5, "ev": "sweep_end", "backend": "engine", "seconds": 0.5,
         "span": 2, "parent": 1},
        {"t": 0.6, "ev": "check", "requirement": "1", "seconds": 0.6,
         "span": 1, "parent": None},
    ]
    between = [
        nested[0], {**nested[1], "parent": 3},
        {"t": 0.55, "ev": "fixpoint", "seconds": 0.55, "span": 3,
         "parent": 1},
        nested[2],
    ]
    for events in (nested, between):
        run = whole_run(events)
        assert (run["span_s"], run["sweeps_s"]) == (0.6, 0.5)
        assert run["checks_s"] == pytest.approx(0.1)
        assert run["unattributed_s"] == pytest.approx(0.0)


def test_whole_run_ends_on_a_parent_cycle():
    # a hand-edited trace is outside input: a cycle of parent ids among
    # spans that are not counted must not hang the report
    events = [
        {"t": 0.1, "ev": "fixpoint", "seconds": 0.1, "span": 1, "parent": 2},
        {"t": 0.2, "ev": "fixpoint", "seconds": 0.1, "span": 2, "parent": 1},
        {"t": 0.3, "ev": "check", "seconds": 0.1, "span": 3, "parent": 1},
    ]
    assert whole_run(events)["checks_s"] == 0.1


def test_report_on_empty_trace(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    text = report_from_file(path)
    assert "0 sweep(s), 0 events" in text


def test_report_on_truncated_trace(tmp_path):
    """A trace torn mid-line: the report is strict, never a silent
    partial report."""
    import json

    path = tmp_path / "torn.jsonl"
    path.write_text(
        '{"t": 0.0, "ev": "sweep_start", "backend": "engine"}\n'
        '{"t": 0.1, "ev": "sweep_end", "outcome": "ok", "states": 3'
    )
    with pytest.raises(json.JSONDecodeError, match="trace line 2"):
        report_from_file(path)


def test_report_on_interleaved_multi_sweep_trace():
    """Two sweeps back to back render as two numbered sections."""
    events = [
        {"t": 0.0, "ev": "sweep_start", "backend": "engine"},
        {"t": 0.1, "ev": "wave", "depth": 1, "states": 2, "wave_s": 0.1},
        {"t": 0.2, "ev": "sweep_end", "outcome": "ok", "states": 2,
         "transitions": 1, "seconds": 0.2},
        {"t": 0.3, "ev": "sweep_start", "backend": "serial"},
        {"t": 0.4, "ev": "sweep_end", "outcome": "limit", "states": 9,
         "transitions": 9, "seconds": 0.1},
    ]
    text = render_report(events)
    assert "2 sweep(s)" in text
    assert "sweep 1: engine — ok" in text
    assert "sweep 2: serial — limit" in text
