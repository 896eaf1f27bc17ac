"""Tracer: JSONL round-trip, ring bounding, monotonic timestamps."""

from __future__ import annotations

import json

import pytest

from repro.obs.tracer import NULL_TRACER, Tracer, read_trace


def test_file_mode_round_trip(tmp_path):
    path = tmp_path / "t.jsonl"
    with Tracer(path) as tr:
        tr.emit("sweep_start", backend="engine")
        tr.emit("wave", depth=1, states=3)
        tr.emit("sweep_end", outcome="ok")
    events = read_trace(path)
    assert [e["ev"] for e in events] == ["sweep_start", "wave", "sweep_end"]
    assert events[0]["backend"] == "engine"
    assert events[1] == {"t": events[1]["t"], "ev": "wave",
                         "depth": 1, "states": 3}


def test_timestamps_are_nondecreasing(tmp_path):
    path = tmp_path / "t.jsonl"
    with Tracer(path) as tr:
        for i in range(50):
            tr.emit("tick", i=i)
    ts = [e["t"] for e in read_trace(path)]
    assert ts == sorted(ts)
    assert ts[0] >= 0.0


def test_ring_mode_keeps_only_the_tail():
    tr = Tracer(ring=3)
    for i in range(10):
        tr.emit("tick", i=i)
    kept = tr.events()
    assert [e["i"] for e in kept] == [7, 8, 9]


def test_ring_plus_path_writes_tail_at_close(tmp_path):
    path = tmp_path / "tail.jsonl"
    tr = Tracer(path, ring=2)
    for i in range(5):
        tr.emit("tick", i=i)
    assert not path.exists() or path.read_text() == ""
    tr.close()
    assert [e["i"] for e in read_trace(path)] == [3, 4]


def test_ring_must_be_positive():
    with pytest.raises(ValueError):
        Tracer(ring=0)


def test_dump_in_memory(tmp_path):
    tr = Tracer(ring=10)
    tr.emit("a")
    tr.emit("b")
    out = tmp_path / "d.jsonl"
    tr.dump(out)
    assert [e["ev"] for e in read_trace(out)] == ["a", "b"]


def test_read_trace_skips_blank_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"t": 0.1, "ev": "a"}\n\n{"t": 0.2, "ev": "b"}\n')
    assert [e["ev"] for e in read_trace(path)] == ["a", "b"]


def test_read_trace_reports_bad_line_number(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"t": 0.1, "ev": "a"}\nnot json\n')
    with pytest.raises(json.JSONDecodeError, match="trace line 2"):
        read_trace(path)


def test_null_tracer_is_inert():
    assert NULL_TRACER.enabled is False
    NULL_TRACER.emit("anything", x=1)
    assert vars(NULL_TRACER) == {}  # it keeps nothing


def test_file_mode_survives_sigkill(tmp_path):
    """Line buffering means a killed process loses at most one line.

    The flight recorder's crash-safety contract: SIGKILL the writer
    mid-stream (no close, no atexit, no flush) and every event
    emitted before the kill must already be on disk.
    """
    import os
    import signal
    import subprocess
    import sys

    import repro

    path = tmp_path / "crash.jsonl"
    prog = (
        "import os, signal\n"
        "from repro.obs.tracer import Tracer\n"
        f"tr = Tracer({str(path)!r})\n"
        "for i in range(100):\n"
        "    tr.emit('tick', i=i)\n"
        "os.kill(os.getpid(), signal.SIGKILL)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", prog],
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == -signal.SIGKILL
    events = read_trace(path)  # whole lines only: a strict read succeeds
    assert [e["i"] for e in events] == list(range(100))
