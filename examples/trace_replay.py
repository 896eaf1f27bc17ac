#!/usr/bin/env python
"""Flight-recorder round trip: record a verification run, replay the trace.

The muCRL/CADP toolchain the paper used printed its instantiation
progress to the terminal and was gone; anything you wanted to know
afterwards — where the time went, how the frontier grew, which
fixpoint dominated — had to be re-run. This example records a full
verification session (exploration + requirement checks) into a JSONL
trace, then *replays* the trace offline: the
depth-wave table, the per-phase timing breakdown (successor generation
vs dedup), and the requirement-check summary, all without
touching the model again.

Run:  python examples/trace_replay.py
"""

import tempfile
from pathlib import Path

from repro import obs
from repro.jackal import CONFIG_1, JackalModel, ProtocolVariant
from repro.jackal.requirements import check_requirement_1, check_requirement_2
from repro.lts.engine import explore_fast
from repro.obs.report import phase_breakdown, render_report


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-trace-"))
    trace_path = workdir / "session.jsonl"

    # -- record: one instrumented verification session ----------------------
    with obs.Tracer(trace_path) as tracer, obs.activate(tracer):
        model = JackalModel(CONFIG_1, ProtocolVariant.fixed())
        explore_fast(model)
        check_requirement_1(CONFIG_1)
        check_requirement_2(CONFIG_1)
    print(f"recorded: {trace_path}")
    print()

    # -- replay: everything below comes from the file alone -----------------
    events = obs.read_trace(trace_path)
    print(render_report(events))
    print()

    phases = phase_breakdown(events)
    print("phase breakdown (replayed from the trace):")
    for key, seconds in phases.items():
        print(f"  {key:<14} {seconds:.4f} s")
    print()

    waves = [e for e in events if e["ev"] == "wave"]
    widest = max(waves, key=lambda w: w["frontier"])
    print(
        f"widest BFS wave: depth {widest['depth']} with a frontier of "
        f"{widest['frontier']:,} states"
    )

    # ring mode: the bounded black box for sweeps too large to trace
    with obs.Tracer(ring=8) as ring, obs.activate(ring):
        explore_fast(model)
    print(
        f"ring mode kept the last {len(ring.events())} of the sweep's "
        f"events (bounded memory)"
    )


if __name__ == "__main__":
    main()
