"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_check_fixed_holds(capsys):
    code = main(["check", "--config", "1", "--variant", "fixed"])
    out = capsys.readouterr().out
    assert code == 0
    assert "HOLDS" in out
    assert "VIOLATED" not in out


def test_check_single_requirement(capsys):
    code = main(["check", "--config", "1", "--requirement", "1"])
    assert code == 0
    assert "deadlock" in capsys.readouterr().out


def test_check_error1_fails_with_trace(capsys):
    code = main([
        "check", "--config", "1", "--variant", "error1", "--cyclic",
        "--requirement", "1", "--show-trace",
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "VIOLATED" in out
    assert "stale_remote_wait" in out


def test_check_error2(capsys):
    code = main([
        "check", "--config", "2", "--variant", "error2",
        "--requirement", "3.2",
    ])
    assert code == 1


def test_explore_writes_aut(tmp_path, capsys):
    path = tmp_path / "c1.aut"
    code = main(["explore", "--config", "1", "--aut", str(path)])
    assert code == 0
    text = path.read_text()
    assert text.startswith("des (0,")
    from repro.lts.aut import read_aut

    lts = read_aut(path)
    assert lts.n_states > 100


def test_table8_small(capsys):
    code = main(["table8", "--rounds", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Table 8" in out
    assert out.count("yes") == 3


def test_narrate_error1(capsys):
    code = main([
        "narrate", "--config", "1", "--variant", "error1", "--cyclic",
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "never arrive" in out  # the Error-1 narration


def test_narrate_nothing_to_tell(capsys):
    code = main(["narrate", "--config", "1", "--variant", "fixed"])
    out = capsys.readouterr().out
    assert code == 0
    assert "nothing to narrate" in out


def test_narrate_explicit_requirement_is_checked_directly(capsys):
    # used to narrate a requirement-1 trace whenever one existed, even
    # when --requirement 3.2 was asked for; now 3.2 is checked directly
    code = main([
        "narrate", "--config", "1", "--variant", "error1", "--cyclic",
        "--requirement", "3.2",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "requirement 3.2" in out
    assert "nothing to narrate" in out
    assert "never arrive" not in out  # no requirement-1 deadlock narration


def test_narrate_requirement_32_counterexample(capsys):
    code = main([
        "narrate", "--config", "2", "--variant", "error2",
        "--requirement", "3.2",
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "requirement 3.2" in out
    assert "VIOLATED" in out


def test_litmus(capsys):
    code = main(["litmus"])
    out = capsys.readouterr().out
    assert code == 0
    assert "conforms" in out


def test_formula_check(capsys):
    code = main(["formula", "--config", "1", "[T*.c_home] F"])
    out = capsys.readouterr().out
    assert code == 0
    assert "True" in out


def test_formula_violated(capsys):
    code = main([
        "formula", "--config", "1", "--variant", "error1", "--cyclic",
        "<T*.stale_remote_wait(t0)> T",
    ])
    assert code == 0  # the buggy path is reachable -> formula True


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_formula_no_probes(capsys):
    code = main([
        "formula", "--config", "1", "--no-probes",
        "[T*.write(t0)] mu X. (<T>T /\\ [not writeover(t0)] X)",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "True" in out


# -- repro bench fault injection --------------------------------------------


@pytest.mark.slow
def test_bench_inject_fault_recovers(capsys):
    code = main([
        "bench", "--config", "1", "--rounds", "1", "--workers", "2",
        "--backends", "distributed", "--batch-size", "32",
        "--inject-fault", "kill:0@2",
    ])
    out = capsys.readouterr().out
    # the cross-check passed: the crashed sweep reproduced the serial
    # counts exactly, and the recovery is reported
    assert code == 0
    assert "worker_deaths=1" in out
    assert "recovered=True" in out


def test_bench_inject_fault_without_distributed_backend_exits_2(capsys):
    # a fault plan that would never be exercised must be an error, not
    # a silently fault-free benchmark
    code = main([
        "bench", "--config", "1", "--rounds", "1",
        "--backends", "serial,engine", "--inject-fault", "kill:0@1",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "distributed" in err


def test_bench_bad_fault_spec_exits_2(capsys):
    code = main([
        "bench", "--config", "1", "--rounds", "1",
        "--backends", "distributed", "--inject-fault", "fry:0@1",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "fault spec" in err


# -- repro lint ------------------------------------------------------------


def test_lint_clean_repo_exits_zero(capsys):
    code = main(["lint"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 error(s)" in out


def test_lint_error1_mutation_exits_nonzero(capsys):
    code = main(["lint", "--variant", "error1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "JKL005" in out
    assert "stale_remote_wait" in out


def test_lint_json_report(tmp_path, capsys):
    import json

    path = tmp_path / "lint.json"
    code = main(["lint", "--variant", "buggy", "--json", "--out", str(path)])
    assert code == 1
    data = json.loads(path.read_text())
    assert data["exit_code"] == 1
    assert [f["rule"] for f in data["findings"]] == ["JKL005"]
    assert data["findings"][0]["severity"] == "error"


def test_lint_suppress(capsys):
    code = main(["lint", "--variant", "error1", "--suppress", "JKL005"])
    assert code == 0


def test_lint_rules_catalogue(capsys):
    code = main(["lint", "--rules"])
    out = capsys.readouterr().out
    assert code == 0
    for rule in ("JKL001", "JKL005", "JKL101", "JKL201"):
        assert rule in out


def test_lint_extra_formula_vacuous(capsys):
    code = main(["lint", "--formula", 'ghost=[T*."write(t9)"] F'])
    out = capsys.readouterr().out
    assert code == 1
    assert "JKL201" in out
    assert "ghost" in out


def test_lint_is_fast_and_explores_nothing(monkeypatch):
    import importlib
    import time

    def boom(*_a, **_k):  # pragma: no cover - failure path
        raise AssertionError("repro lint must not explore")

    monkeypatch.setattr(
        importlib.import_module("repro.lts.engine"), "explore_fast", boom
    )
    start = time.perf_counter()
    assert main(["lint", "--config", "3"]) == 0
    assert time.perf_counter() - start < 5.0


def test_lint_json_carries_schema_version_and_fingerprint(tmp_path):
    import json

    path = tmp_path / "lint.json"
    assert main(["lint", "--json", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["schema_version"] >= 2
    assert len(data["fingerprint"]) == 64


# -- repro lint --certify / --reduce ----------------------------------------


def test_lint_certify_writes_certificate(tmp_path, capsys):
    import json

    cert_path = tmp_path / "CERT.json"
    code = main(["lint", "--certify", "--cert-out", str(cert_path)])
    assert code == 0
    from repro.staticcheck.certificates import CERT_SCHEMA_VERSION

    data = json.loads(cert_path.read_text())
    assert data["schema_version"] == CERT_SCHEMA_VERSION
    assert data["group"]
    assert data["signature"]
    assert str(cert_path) in capsys.readouterr().out


def test_lint_certify_failure_exits_one_without_certificate(
    tmp_path, monkeypatch
):
    """The exit-code contract: certification failure is exit 1 with a
    machine-readable JKL30x reason in the JSON report, and no
    certificate file is written."""
    import json

    from repro import cli as cli_mod
    from repro.staticcheck.findings import Finding, Severity

    def refused(_config, _variant, **_kw):
        return None, [
            Finding("JKL301", Severity.ERROR, "model/group",
                    "no nontrivial admissible permutation")
        ]

    import repro.staticcheck.symmetry as symmetry_mod

    monkeypatch.setattr(symmetry_mod, "certify", refused)
    cert_path = tmp_path / "CERT.json"
    out_path = tmp_path / "lint.json"
    code = cli_mod.main([
        "lint", "--certify", "--json",
        "--cert-out", str(cert_path), "--out", str(out_path),
    ])
    assert code == 1
    assert not cert_path.exists()
    data = json.loads(out_path.read_text())
    assert data["exit_code"] == 1
    assert [f["rule"] for f in data["findings"]] == ["JKL301"]


def test_check_reduce_roundtrip(tmp_path, capsys):
    cert_path = tmp_path / "CERT.json"
    assert main(["lint", "--certify", "--cert-out", str(cert_path)]) == 0
    capsys.readouterr()
    code = main(["check", "--reduce", str(cert_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "HOLDS" in out and "VIOLATED" not in out


def test_check_reduce_refuses_stale_certificate(tmp_path, capsys):
    cert_path = tmp_path / "CERT.json"
    # certified for config 1, then used on config 2: JKL303, exit 2
    assert main(["lint", "--certify", "--cert-out", str(cert_path)]) == 0
    capsys.readouterr()
    code = main(["check", "--config", "2", "--reduce", str(cert_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "refusing to reduce" in err
    assert "JKL303" in err


def test_check_reduce_unreadable_certificate_exit_2(tmp_path, capsys):
    bad = tmp_path / "nope.json"
    code = main(["check", "--reduce", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


def test_explore_reduce_shrinks_the_lts(tmp_path, capsys):
    cert_path = tmp_path / "CERT.json"
    assert main(["lint", "--certify", "--cert-out", str(cert_path)]) == 0
    capsys.readouterr()
    assert main(["explore"]) == 0
    unreduced = capsys.readouterr().out
    assert "288" in unreduced
    # the certified formulas section licenses the full symmetry
    # quotient for the plain LTS too (per-thread formulas are decided
    # on its group-unfolding), and the slice trims the rstate fields ...
    assert main(["explore", "--reduce", str(cert_path)]) == 0
    assert "154" in capsys.readouterr().out
    # ... and the probe LTS (the requirement-3 view) lands on the same
    # sliced quotient
    assert main(["explore", "--probes", "--reduce", str(cert_path)]) == 0
    assert "154" in capsys.readouterr().out


# -- error handling: ReproError -> message on stderr, exit code 2 -----------


def test_bad_model_parameters_exit_2(capsys):
    code = main(["check", "--config", "1", "--rounds", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "rounds" in err
    assert "Traceback" not in err


def test_malformed_formula_exit_2(capsys):
    code = main(["formula", "--config", "1", "[T*.c_home F"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


def test_lint_malformed_extra_formula_exit_2(capsys):
    code = main(["lint", "--formula", "broken=[T* F"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


# -- flight recorder (--trace / --metrics-out / repro report) ---------------


def test_explore_trace_and_metrics(tmp_path, capsys):
    import json

    from repro.obs.tracer import read_trace

    trace = tmp_path / "sweep.jsonl"
    metrics = tmp_path / "m.json"
    code = main([
        "explore", "--config", "1",
        "--trace", str(trace), "--metrics-out", str(metrics),
    ])
    assert code == 0
    events = read_trace(trace)
    kinds = [e["ev"] for e in events]
    assert "sweep_start" in kinds and "sweep_end" in kinds and "wave" in kinds
    snap = json.loads(metrics.read_text())
    assert snap["repro_sweep_states_total"] > 0
    err = capsys.readouterr().err
    assert f"written: {trace}" in err
    assert f"written: {metrics}" in err


def test_metrics_out_prometheus_suffix(tmp_path):
    metrics = tmp_path / "m.prom"
    code = main(["explore", "--config", "1", "--metrics-out", str(metrics)])
    assert code == 0
    text = metrics.read_text()
    assert "# TYPE repro_sweeps_total counter" in text
    assert 'repro_sweeps_total{backend="engine",outcome="ok"} 1' in text


def test_trace_ring_bounds_the_file(tmp_path):
    from repro.obs.tracer import read_trace

    trace = tmp_path / "tail.jsonl"
    code = main([
        "explore", "--config", "1",
        "--trace", str(trace), "--trace-ring", "5",
    ])
    assert code == 0
    assert len(read_trace(trace)) == 5


def test_check_trace_records_requirement_events(tmp_path):
    from repro.obs.tracer import read_trace

    trace = tmp_path / "check.jsonl"
    code = main([
        "check", "--config", "1", "--requirement", "1",
        "--trace", str(trace),
    ])
    assert code == 0
    checks = [e for e in read_trace(trace) if e["ev"] == "check"]
    assert len(checks) == 1
    assert checks[0]["holds"] is True


def test_report_renders_trace(tmp_path, capsys):
    trace = tmp_path / "sweep.jsonl"
    assert main(["explore", "--config", "1", "--trace", str(trace)]) == 0
    capsys.readouterr()
    code = main(["report", str(trace)])
    out = capsys.readouterr().out
    assert code == 0
    assert "flight recorder report" in out
    assert "sweep 1: engine" in out
    assert "phase breakdown:" in out


def test_report_missing_file_exits_2(tmp_path, capsys):
    code = main(["report", str(tmp_path / "absent.jsonl")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


def test_report_malformed_trace_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"t": 0.1, "ev": "a"}\nnot json\n')
    code = main(["report", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "malformed" in err


def test_bench_report_embeds_phases_and_metrics(tmp_path):
    import json

    out = tmp_path / "B.json"
    code = main([
        "bench", "--config", "1", "--rounds", "1",
        "--backends", "serial,engine", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    phases = report["phases"]
    assert set(phases) == {
        "successors_s", "dedup_s", "transport_s", "other_s", "total_s"
    }
    assert phases["total_s"] > 0
    assert report["metrics"]["repro_sweep_states_total"] == \
        report["system"]["states"]


# -- flight recorder v2 (--trace-dir / merged report / memory gate) ----------


def test_explore_distributed_trace_dir_and_merged_report(tmp_path, capsys):
    """The acceptance scenario: a distributed sweep with --trace-dir
    leaves one stream per process and `repro report <dir>` renders the
    merged timeline with every worker's lane."""
    td = tmp_path / "td"
    code = main([
        "explore", "--config", "1", "--distributed", "--workers", "2",
        "--trace-dir", str(td),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "workers" in captured.out
    assert f"written: {td}" in captured.err
    names = sorted(p.name for p in td.iterdir())
    assert names == [
        "trace.coordinator.jsonl", "trace.worker0.jsonl",
        "trace.worker1.jsonl",
    ]

    code = main(["report", str(td)])
    out = capsys.readouterr().out
    assert code == 0
    assert "3 stream(s): coordinator, worker0, worker1" in out
    assert "worker lanes:" in out
    assert "dispatch->ack latency:" in out
    assert "memory: max RSS" in out


def test_trace_and_trace_dir_are_mutually_exclusive(tmp_path, capsys):
    code = main([
        "explore", "--config", "1",
        "--trace", str(tmp_path / "t.jsonl"),
        "--trace-dir", str(tmp_path / "td"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "mutually exclusive" in err


def test_report_merges_multiple_files(tmp_path, capsys):
    import json

    coord = tmp_path / "trace.coordinator.jsonl"
    coord.write_text(json.dumps(
        {"t": 0.0, "ev": "sweep_start", "backend": "distributed-process",
         "n_workers": 1}) + "\n")
    worker = tmp_path / "trace.worker0.jsonl"
    worker.write_text(json.dumps(
        {"t": 0.0, "ev": "worker_start", "worker": 0,
         "clock_offset": 0.1}) + "\n")
    code = main(["report", str(coord), str(worker)])
    out = capsys.readouterr().out
    assert code == 0
    assert "2 stream(s): coordinator, worker0" in out


def test_report_lenient_renders_torn_trace(tmp_path, capsys):
    torn = tmp_path / "torn.jsonl"
    torn.write_text(
        '{"t": 0.0, "ev": "sweep_start", "backend": "engine"}\n'
        '{"t": 0.1, "ev": "sweep_end", "outc'
    )
    assert main(["report", str(torn)]) == 2  # strict by default
    capsys.readouterr()
    code = main(["report", "--lenient", str(torn)])
    out = capsys.readouterr().out
    assert code == 0
    assert "sweep 1: engine" in out


def test_report_empty_trace_renders(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code = main(["report", str(empty)])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 sweep(s), 0 events" in out


def test_mem_pressure_events_recorded(tmp_path):
    from repro.obs.tracer import read_trace

    trace = tmp_path / "t.jsonl"
    code = main([
        "explore", "--config", "1", "--trace", str(trace),
        "--mem-pressure-mb", "1",  # any CPython is over 1 MiB RSS
    ])
    assert code == 0
    events = read_trace(trace)
    assert any(e["ev"] == "mem_pressure" for e in events)
    end = [e for e in events if e["ev"] == "sweep_end"][-1]
    assert end["mem_pressure_events"] >= 1
    assert end["max_rss_bytes"] > 0


def test_bench_max_rss_gate_cli(tmp_path, capsys):
    import json

    out = tmp_path / "B.json"
    code = main([
        "bench", "--config", "1", "--rounds", "1",
        "--backends", "serial,engine", "--out", str(out),
        "--max-rss-mb", "1",  # deliberately impossible cap
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert "RSS watermark" in err and "--max-rss-mb" in err
    report = json.loads(out.read_text())
    for name in ("serial", "engine"):
        assert report["backends"][name]["max_rss_bytes"] > 0
        assert report["backends"][name]["mem"]["watermarks"]
