"""Trace rendering: phase breakdown math and the timeline report."""

from __future__ import annotations

import pytest

from repro import obs
from repro.lts.engine import explore_fast
from repro.obs.report import (
    phase_breakdown,
    render_report,
    report_from_file,
    whole_run,
)
from repro.obs.tracer import read_trace


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
    assert phases["transport_s"] == 0.0
    assert phases["other_s"] == 0.1
    assert phases["total_s"] == 0.2


def test_phase_breakdown_from_distributed_end():
    events = [
        {"ev": "sweep_end", "seconds": 1.0, "worker_succ_s": 0.3,
         "worker_expand_s": 0.5, "ring_put_s": 0.1, "coord_handle_s": 0.1},
    ]
    phases = phase_breakdown(events)
    assert phases["successors_s"] == 0.3
    assert phases["dedup_s"] == 0.2  # expand minus succ
    assert phases["transport_s"] == 0.2
    assert phases["other_s"] == 0.3
    assert phases["total_s"] == 1.0


def test_phase_breakdown_empty():
    phases = phase_breakdown([])
    assert phases["total_s"] == 0.0
    assert phases["other_s"] == 0.0


def test_render_report_on_recorded_sweep(chain_system):
    tracer = obs.Tracer(ring=10_000)
    with obs.Instrumentation(tracer=tracer) as inst:
        explore_fast(chain_system, obs=inst)
    text = render_report(tracer.events())
    assert "flight recorder report" in text
    assert "sweep 1: engine" in text
    assert "depth waves:" in text
    assert "phase breakdown:" in text
    assert "gc_suspend" in text


def test_render_report_recovery_and_timeline():
    events = [
        {"t": 0.0, "ev": "sweep_start", "backend": "distributed-process",
         "n_workers": 2, "packed": False},
        {"t": 0.01, "ev": "fault_plan", "kind": "kill", "worker": 0,
         "arg": 2},
        # events of the removed queue plane and inline sweep still load
        {"t": 0.02, "ev": "dispatch", "worker": 1, "seq": 0, "depth": 0,
         "n": 8},
        {"t": 0.03, "ev": "wave", "depth": 1, "states": 8, "frontier": 4},
        {"t": 0.05, "ev": "ack", "worker": 1, "seq": 0, "visited": 40,
         "expand_s": 0.01},
        {"t": 0.10, "ev": "worker_death", "worker": 0, "inflight": 2,
         "pending": 1, "alive": 1, "visited": 12},
        {"t": 0.11, "ev": "redispatch", "worker": 0, "batches": 2},
        {"t": 0.30, "ev": "sweep_end", "outcome": "ok", "states": 52,
         "transitions": 80, "seconds": 0.3, "states_per_second": 173.0,
         "worker_deaths": 1, "redispatched_batches": 2, "recovered": True},
    ]
    text = render_report(events)
    assert "workers=2" in text
    assert "worker_death" in text
    assert "redispatch" in text
    assert "recovery: worker_deaths=1 redispatched_batches=2 recovered=yes" in text
    # the per-worker ack table
    assert "states/busy-s" in text


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
        {"t": 0.3, "ev": "product_end", "found": False,
         "product_states": 77, "seconds": 0.02},
    ]
    text = render_report(events)
    # frontier rounds are depth, not Kleene iterations; both show per row
    assert (
        "fixpoints: 2 solved (1 kleene, 1 worklist-box; 4 Kleene iterations)"
        in text
    )
    assert "nu _R0      worklist-box          37 rounds     0.002 s" in text
    assert "requirement checks:" in text
    assert "HOLDS" in text
    assert text.count("on-the-fly product: 77 states") == 1


def test_report_from_file_round_trip(tmp_path, chain_system):
    path = tmp_path / "sweep.jsonl"
    with obs.Instrumentation(tracer=obs.Tracer(path)) as inst:
        explore_fast(chain_system, obs=inst)
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
    # one sweep, one derivation, five checks that were handed their LTS
    assert run["sweeps_s"] == pytest.approx(_seconds(events, "sweep_end"))
    assert run["lts_derive_s"] == pytest.approx(_seconds(events, "lts_derive"))
    assert run["checks_s"] == pytest.approx(_seconds(events, "check"))
    assert min(run.values()) >= 0
    assert run["span_s"] >= events[-1]["t"] - events[0]["t"]
    assert (
        run["sweeps_s"] + run["lts_derive_s"] + run["checks_s"]
        + run["unattributed_s"]
    ) == pytest.approx(run["span_s"], abs=1e-5)
    last = report_from_file(path).splitlines()[-1]
    assert last.startswith(f"whole run: {run['span_s']:.3f} s = sweeps ")
    assert "+ checks " in last and "+ unattributed " in last


def test_whole_run_counts_a_sweep_inside_a_check_once(tmp_path, capsys):
    # a stand-alone check explores inside its own `check` window
    _path, events = _recorded_check(tmp_path, "--requirement", "1")
    (check,) = [e for e in events if e["ev"] == "check"]
    run = whole_run(events)
    assert run["sweeps_s"] == pytest.approx(_seconds(events, "sweep_end"))
    assert run["checks_s"] == pytest.approx(
        check["seconds"] - run["sweeps_s"], abs=1e-5
    )
    assert run["span_s"] == pytest.approx(check["seconds"], abs=1e-3)


def test_report_on_empty_trace(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    text = report_from_file(path)
    assert "0 sweep(s), 0 events" in text


def test_report_on_truncated_trace(tmp_path):
    """A trace torn mid-line: strict reading raises, lenient renders."""
    import json

    path = tmp_path / "torn.jsonl"
    path.write_text(
        '{"t": 0.0, "ev": "sweep_start", "backend": "engine"}\n'
        '{"t": 0.1, "ev": "sweep_end", "outcome": "ok", "states": 3'
    )
    import pytest

    with pytest.raises(json.JSONDecodeError):
        report_from_file(path)
    text = report_from_file(path, lenient=True)
    assert "sweep 1: engine" in text  # open sweep, end line was torn


def test_report_on_a_trace_holding_only_a_derivation():
    """An ``lts_derive`` event renders without any sweep around it, and
    with its fields missing (the schema is append-only, readers lenient)."""
    events = [
        {"t": 0.0, "ev": "lts_derive", "kept": 623117, "dropped": 302639,
         "seconds": 0.0246},
        {"t": 0.1, "ev": "lts_derive"},
    ]
    text = render_report(events)
    assert "0 sweep(s), 2 events" in text
    assert (
        "derived plain LTS: 623,117 transitions kept, "
        "302,639 probe self-loops dropped (0.025 s)" in text
    )
    assert "derived plain LTS: 0 transitions kept" in text
    assert "phase breakdown" not in text


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


def test_render_lanes_and_batch_latency():
    """Lane-tagged merged events render per-worker utilization and the
    cross-worker dispatch-to-ack latency distribution."""
    events = [
        {"t": 0.0, "ev": "sweep_start", "backend": "distributed-process",
         "n_workers": 2, "lane": "coordinator"},
        {"t": 0.001, "ev": "worker_start", "worker": 0, "clock_offset": 0.0,
         "lane": "worker0"},
        {"t": 0.001, "ev": "worker_start", "worker": 1, "clock_offset": 0.0,
         "lane": "worker1"},
        {"t": 0.01, "ev": "ring_get", "worker": 0, "seq": 1,
         "lane": "worker0"},
        {"t": 0.02, "ev": "ack", "worker": 0, "seq": 1, "states": 5,
         "visited": 5, "expand_s": 0.004, "lane": "worker0"},
        {"t": 0.03, "ev": "ack", "worker": 0, "seq": 1, "states": 5,
         "visited": 5, "expand_s": 0.004, "lane": "coordinator"},
        {"t": 0.05, "ev": "sweep_end", "outcome": "ok", "states": 5,
         "transitions": 4, "seconds": 0.05, "max_rss_bytes": 1048576,
         "mem_pressure_events": 0, "lane": "coordinator"},
    ]
    text = render_report(events)
    assert "3 stream(s): coordinator, worker0, worker1" in text
    assert "worker lanes:" in text
    assert "worker0" in text and "worker1" in text
    assert "util" in text and "idle s" in text
    # the 0.01 -> 0.03 pickup->ack window: 20ms
    assert "dispatch->ack latency: n=1 min 20.0 ms" in text
    assert "memory: max RSS 1.0 MiB" in text


def test_lane_prefix_in_timeline_and_ack_dedup():
    """Merged acks appear on both lanes; the table counts one of them."""
    from repro.obs.report import _render_sweep  # noqa: F401 - smoke import

    events = [
        {"t": 0.0, "ev": "sweep_start", "backend": "distributed-process",
         "n_workers": 1, "lane": "coordinator"},
        {"t": 0.01, "ev": "ack", "worker": 0, "seq": 1, "visited": 7,
         "expand_s": 0.002, "lane": "worker0"},
        {"t": 0.02, "ev": "ack", "worker": 0, "seq": 1, "visited": 7,
         "expand_s": 0.002, "lane": "coordinator"},
        {"t": 0.03, "ev": "sweep_end", "outcome": "ok", "states": 7,
         "transitions": 6, "seconds": 0.03, "lane": "coordinator"},
    ]
    text = render_report(events)
    # one ack batch in the per-worker table, not two
    line = next(ln for ln in text.splitlines() if ln.strip().startswith("0 "))
    assert line.split()[1] == "1"
