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


def test_litmus_verb_removed(capsys):
    # the checked model is data-free: no litmus outcome set can be read
    # off its labels, so there is no conformance verb
    with pytest.raises(SystemExit) as exc:
        main(["litmus"])
    assert exc.value.code == 2
    assert "invalid choice: 'litmus'" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv", [
    ["explore", "--distributed"],
    ["explore", "--workers", "2"],
    ["explore", "--trace-dir", "td"],
    ["bench", "--workers", "2"],
    ["bench", "--inject-fault", "kill:0@1"],
    ["bench", "--batch-size", "32"],
    ["bench", "--min-dist-speedup", "1.0"],
    ["report", "--lenient", "t.jsonl"],
    ["report", "a.jsonl", "b.jsonl"],
])
def test_partitioned_backend_options_are_gone(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # the bench verb that carried four of them is gone as a whole
    assert "unrecognized arguments" in err or "invalid choice: 'bench'" in err


@pytest.mark.parametrize("argv", [
    ["check", "--metrics-out", "m.json"],
    ["explore", "--progress"],
    ["explore", "--mem-pressure-mb", "1"],
    ["bench"],
])
def test_recorders_beside_the_tracer_are_gone(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err or "invalid choice: 'bench'" in err


def test_check_on_three_processors_does_not_claim_3_2(tmp_path, capsys):
    """3.2 is formulated for two processors: on config 3 it is reported
    as not checked, in the table and the trace, and does not decide the
    exit code."""
    from repro.obs.tracer import read_trace

    trace = tmp_path / "c3.jsonl"
    code = main(["check", "--config", "3", "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0
    (row,) = [ln for ln in out.splitlines() if "3.2 (bounded" in ln]
    assert "NOT CHECKED" in row and "HOLDS" not in row
    assert "VIOLATED" not in out
    (check,) = [
        e for e in read_trace(trace)
        if e["ev"] == "check" and e["requirement"].startswith("3.2")
    ]
    assert check["holds"] is None
    code = main(["check", "--config", "3", "--requirement", "3.2"])
    assert code == 0
    assert "3.2 (bounded copies when stable): NOT CHECKED" in (
        capsys.readouterr().out
    )


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
    for rule in ("JKL001", "JKL005", "JKL201", "JKL301"):
        assert rule in out
    assert not [line for line in out.splitlines() if line.startswith("JKL1")]


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


def test_check_reduce_labels_quotient_counts(tmp_path, capsys):
    # under a certificate the state counts are quotient counts, and
    # every requirement row says so, not only Requirement 4's
    cert_path = tmp_path / "CERT.json"
    cyclic = ["--config", "1", "--cyclic"]
    assert main(["lint", "--certify", "--cert-out", str(cert_path),
                 *cyclic]) == 0
    capsys.readouterr()
    assert main(["check", *cyclic, "--reduce", str(cert_path)]) == 0
    out = capsys.readouterr().out
    for label in ("1 (deadlock freeness", "2 (assertions",
                  "3.1 (at most one home", "3.2 (bounded copies when stable",
                  "4 (liveness, fair"):
        assert f"{label}, full quotient)" in out, label


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


@pytest.mark.parametrize("argv", [
    ["check", "--max-states", "0"],
    ["explore", "--max-states", "-1"],
    ["table8", "--max-states", "0"],
    ["explore", "--trace-ring", "-1"],
    ["explore", "--trace-ring", "0"],
    ["explore", "--trace-ring", "many"],
])
def test_counts_below_one_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["explore", "--trace", "{missing}/t.jsonl"],
    ["explore", "--aut", "{missing}/c1.aut"],
    ["lint", "--out", "{missing}/lint.txt"],
    ["lint", "--certify", "--cert-out", "{missing}/CERT.json"],
])
def test_unwritable_output_path_exits_2(argv, tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir"
    code = main([arg.format(missing=missing) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert str(missing) in err
    assert "Traceback" not in err


# -- flight recorder (--trace / --trace-ring / repro report) ----------------


def test_explore_trace_and_metrics(tmp_path, capsys):
    from repro.obs.tracer import read_trace

    trace = tmp_path / "sweep.jsonl"
    code = main(["explore", "--config", "1", "--trace", str(trace)])
    assert code == 0
    events = read_trace(trace)
    kinds = [e["ev"] for e in events]
    assert "sweep_start" in kinds and "sweep_end" in kinds and "wave" in kinds
    assert f"written: {trace}" in capsys.readouterr().err


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


# -- flight recorder: degenerate traces ------------------------------------


def test_report_empty_trace_renders(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code = main(["report", str(empty)])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 sweep(s), 0 events" in out
