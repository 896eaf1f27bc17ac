"""Self-test of the pipeline benchmark harness, on the ``smoke`` input.

    python -m pytest benchmarks/pipeline/test_harness.py -q

Not part of tier-1 (whose ``testpaths`` is ``tests/``): it proves that
the harness prints what BENCHMARK.json promises, that its spans account
for the traced run, that its output checker bites, and that ``--compare``
reads what a run writes.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = run.load_spec()
SMOKE_CELL = wl.WORKLOADS["smoke"].cells[0].id
METRIC_LINE = re.compile(
    r"^smoke\s+(?P<name>\S+)\s+(?P<value>-?\d+\.\d+)\s+(?P<unit>\S+)\s+"
    r"n=(?P<n>\d+)"
)


def run_smoke(out, *extra):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke",
         "--seed", "7", "--out", str(out), *map(str, extra)],
        capture_output=True, text=True, timeout=170,
    )


def printed_metrics(stdout: str) -> dict:
    return {
        m["name"]: m
        for m in (METRIC_LINE.match(line) for line in stdout.splitlines())
        if m
    }


@pytest.mark.parametrize(
    "trace, section", [(0, "end_to_end"), (1, "per_layer")]
)
def test_every_metric_prints_with_name_unit_and_count(tmp_path, trace, section):
    proc = run_smoke(tmp_path, "--seconds", 1, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    printed = printed_metrics(proc.stdout)
    for metric in SPEC[section]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"])
        line = printed[metric["name"]]
        assert line["unit"] == metric["unit"]
        assert int(line["n"]) >= 1
    assert float(printed["failed_share"]["value"]) == 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for name, entry in result["metrics"].items():
        assert entry["unit"] == printed[name]["unit"]


def test_spans_nest_and_account_for_the_traced_wall(tmp_path):
    proc = run_smoke(tmp_path, "--seconds", 1, "--trace", 1)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads((tmp_path / "spans-smoke.json").read_text())
    by_id = {row["id"]: row for row in rows}
    assert any(row["name"] == layers.TRACED_WALL for row in rows)
    for row in rows:
        assert row["workload"] == "smoke"
        assert row["start"] <= row["end"]
        if row["parent"] is not None:
            parent = by_id[row["parent"]]
            assert parent["start"] <= row["start"]
            assert row["end"] <= parent["end"]
    assert layers.unattributed_share(rows) <= 0.05


def test_doctored_expected_file_is_caught(tmp_path):
    expected = wl.load_expected(wl.DEFAULT_EXPECTED)
    expected["counts"][SMOKE_CELL]["plain_states"] += 1
    expected["verdicts"][SMOKE_CELL]["3.2"] = False
    doctored = tmp_path / "expected.json"
    doctored.write_text(json.dumps(expected))
    proc = run_smoke(tmp_path, "--seconds", 1, "--trace", 0, "--expected", doctored)
    assert proc.returncode != 0
    assert float(printed_metrics(proc.stdout)["failed_share"]["value"]) > 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


@pytest.mark.parametrize("body", ["raise SystemExit(3)", "import time; time.sleep(60)"])
def test_crashed_child_fails_all_its_outputs(tmp_path, monkeypatch, capsys, body):
    # a stand-in child that dies (or hangs past the time limit)
    (tmp_path / "run.py").write_text(body)
    monkeypatch.setattr(run, "HERE", tmp_path)
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 1)
    outputs = len(wl.expected_outputs(
        wl.WORKLOADS["smoke"], wl.load_expected(wl.DEFAULT_EXPECTED)
    ))
    code = run.main(
        ["--workload", "smoke", "--seconds", "1", "--trace", "0",
         "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert code != 0
    # counted as failed, not dropped: nothing was left to take a median of
    share = printed_metrics(out)["failed_share"]
    runs, rest = divmod(int(share["n"]), outputs)
    assert float(share["value"]) == 1.0 and runs >= 1 and rest == 0
    assert not out.splitlines()[-1].startswith("{")


# -- --compare ---------------------------------------------------------------


def compare_files(tmp_path, capsys, a: dict, b: dict):
    for name, workloads in (("a.json", a), ("b.json", b)):
        (tmp_path / name).write_text(json.dumps({"workloads": workloads}))
    code = run.main(
        ["--compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    )
    return code, capsys.readouterr().out


def one_set(samples_by_metric: dict, counts: dict | None = None) -> dict:
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    return {"smoke": {
        "end_to_end": {
            name: dict(run.summarize(samples), unit=units[name])
            for name, samples in samples_by_metric.items()
        },
        "attempted": 10, "failed": 0,
        "per_layer": counts or {"lts.engine.states": 288},
    }}


STEADY = {m["name"]: [1.00, 1.01, 1.02, 1.03, 1.04] for m in SPEC["end_to_end"]}


def test_compare_tells_within_worse_better_and_unresolved(tmp_path, capsys):
    code, out = compare_files(tmp_path, capsys, one_set(STEADY), one_set(STEADY))
    assert code == 0 and out.count("within") == len(SPEC["end_to_end"])

    slower = dict(STEADY, verdict_s=[1.5 * x for x in STEADY["verdict_s"]])
    code, out = compare_files(tmp_path, capsys, one_set(STEADY), one_set(slower))
    (line,) = [ln for ln in out.splitlines() if "worse" in ln]
    assert code != 0 and "verdict_s" in line and "+50.00%" in line

    # a spread wider than the bound resolves only if every run of B is better
    noisy = dict(STEADY, cpu_s=[1.0, 1.3, 1.6, 1.9, 2.2])
    code, out = compare_files(tmp_path, capsys, one_set(noisy), one_set(noisy))
    assert code != 0 and out.count("unresolved") == 1
    fast = dict(STEADY, cpu_s=[0.5, 0.6, 0.7, 0.8, 0.9])
    code, out = compare_files(tmp_path, capsys, one_set(noisy), one_set(fast))
    assert code == 0 and out.count("better") == 1

    # one run per set (the three big workloads under --seconds) and a set
    # whose every child crashed are unresolved, not an exception
    single = {name: samples[:1] for name, samples in STEADY.items()}
    code, out = compare_files(tmp_path, capsys, one_set(single), one_set(single))
    assert code != 0 and out.count("unresolved") == len(SPEC["end_to_end"])
    code, out = compare_files(tmp_path, capsys, one_set(STEADY), one_set({}))
    assert code != 0 and out.count("no run finished") == len(SPEC["end_to_end"])


def test_compare_wants_identical_counts(tmp_path, capsys):
    moved = one_set(STEADY, {"lts.engine.states": 289})
    code, out = compare_files(tmp_path, capsys, one_set(STEADY), moved)
    assert code != 0 and "['lts.engine.states']" in out


def test_compare_reads_what_two_full_sets_write(tmp_path):
    """The all-rounds form on smoke, twice; --compare on its results."""
    for side in ("a", "b"):
        proc = run_smoke(tmp_path / side)
        assert proc.returncode == 0, proc.stderr
        for name, m in printed_metrics(proc.stdout).items():
            if name in {e["name"] for e in SPEC["end_to_end"]}:
                assert int(m["n"]) == run.REPEATS
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--compare",
         str(tmp_path / "a" / "results.json"),
         str(tmp_path / "b" / "results.json")],
        capture_output=True, text=True, timeout=170,
    )
    # smoke runs for milliseconds, so the verdicts themselves are noise
    assert proc.returncode in (0, 1), proc.stderr
    rows = [ln.split() for ln in proc.stdout.splitlines() if ln.startswith("smoke")]
    assert [r[1] for r in rows[:-1]] == [m["name"] for m in SPEC["end_to_end"]]
    assert all(
        r[6] in ("within", "worse", "better", "unresolved") for r in rows[:-1]
    )
    assert "exact counts: identical; failed outputs 0" in proc.stdout
