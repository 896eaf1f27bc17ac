"""Smoke tests: every example script runs and prints its headline."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str, timeout: int = 600) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.slow
def test_quickstart():
    out = run_example("quickstart.py")
    assert out.count("HOLDS") >= 5
    assert "VIOLATED" in out  # the rediscovered bugs


@pytest.mark.slow
def test_error1_hunt():
    out = run_example("error1_deadlock_hunt.py")
    assert "narrated shortest error trace" in out
    assert "stale_remote_wait" in out or "never arrive" in out


@pytest.mark.slow
def test_error2_home_loss():
    out = run_example("error2_home_loss.py")
    assert "the home is gone" in out


@pytest.mark.slow
def test_table8_one_round():
    out = run_example("table8.py", "--rounds", "1")
    assert "Table 8 reproduction" in out
    assert out.count("yes") >= 3


@pytest.mark.slow
def test_trace_replay():
    out = run_example("trace_replay.py")
    assert "flight recorder report" in out
    assert "requirement checks:" in out
    assert "phase breakdown (replayed from the trace):" in out
    assert "ring mode kept the last 8" in out
