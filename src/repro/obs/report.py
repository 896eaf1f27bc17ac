"""Render a flight-recorder trace into a human-readable timeline.

The consumer side of :mod:`repro.obs.tracer`: ``repro report
trace.jsonl`` loads the JSONL events back and prints, per sweep, the
depth waves, the per-phase timing breakdown (successor generation vs
dedup), the mu-calculus fixpoint and requirement-check summaries, and a
last line that accounts for the whole recording (:func:`whole_run`),
and the plain-LTS derivations of older traces. Events and
fields it does not know — including those of traces recorded by older
versions — are skipped, never an error.
"""

from __future__ import annotations

from repro.obs.tracer import read_trace

#: maximum rows of one table (depth waves, fixpoints) rendered before
#: eliding the middle
_MAX_WAVE_ROWS = 40
#: what a kernel sweep keeps of each wave (``sweep_end.dest``)
_DESTS = {"columns": "transition columns", "tree": "BFS tree"}


def _head_and_tail(items: list, row, noun: str) -> list[str]:
    """One rendered row per item, the middle of a long list elided."""
    if len(items) <= _MAX_WAVE_ROWS:
        return [row(i) for i in items]
    head = _MAX_WAVE_ROWS // 2
    return [
        *(row(i) for i in items[:head]),
        f"  ... {len(items) - 2 * head} {noun} elided ...",
        *(row(i) for i in items[-head:]),
    ]


def phase_breakdown(events: list[dict]) -> dict:
    """Aggregate per-phase seconds over every sweep in ``events``.

    Sweeps contribute through their ``wave`` events (``succ_s`` /
    ``dedup_s``) and the ``seconds`` of their ``sweep_end``; ``other_s``
    is the unattributed remainder of the sweeps' wall time.
    """
    succ = dedup = total = 0.0
    for e in events:
        ev = e.get("ev")
        if ev == "wave":
            succ += e.get("succ_s", 0.0)
            dedup += e.get("dedup_s", 0.0)
        elif ev == "sweep_end":
            total += e.get("seconds", 0.0)
    return {
        "successors_s": round(succ, 6),
        "dedup_s": round(dedup, 6),
        "other_s": round(max(total - succ - dedup, 0.0), 6),
        "total_s": round(total, 6),
    }


def whole_run(events: list[dict]) -> dict:
    """Where the recording's wall-clock went, top down.

    ``sweeps_s`` + ``checks_s`` + ``unattributed_s`` = ``span_s``, the
    ``t`` of the last event. A span counts its own ``seconds`` less
    those of the counted spans nearest inside it (by ``parent`` ids): a
    sweep inside a check counts once, as sweep time (a certified
    Requirement 4 handed an LTS without winners, as
    ``benchmarks/pipeline/make_expected.py`` does, sweeps the quotient
    inside its check). Events without ids
    (older traces) count whole, as top-level spans.
    """
    spans = {e["span"]: e for e in events if "span" in e}
    parts = {"sweep_end": 0.0, "check": 0.0}
    for e in events:
        if e.get("ev") not in parts:
            continue
        seconds = e.get("seconds", 0.0)
        parts[e["ev"]] += seconds
        outer = spans.get(e.get("parent"))
        for _hop in spans:  # a hand-edited trace may hold a parent cycle
            if outer is None or outer.get("ev") in parts:
                break
            outer = spans.get(outer.get("parent"))
        if outer is not None and outer.get("ev") in parts:
            parts[outer["ev"]] -= seconds
    span = max((e["t"] for e in events if "t" in e), default=0.0)
    return {
        "span_s": round(span, 6),
        "sweeps_s": round(parts["sweep_end"], 6),
        "checks_s": round(parts["check"], 6),
        "unattributed_s": round(max(span - sum(parts.values()), 0.0), 6),
    }


def _pct(part: float, total: float) -> str:
    return f"{100.0 * part / total:.1f}%" if total > 0 else "-"


def _fmt_phase_line(phases: dict) -> str:
    total = phases["total_s"]
    parts = [
        f"successors {_pct(phases['successors_s'], total)} "
        f"({phases['successors_s']:.3f} s)",
        f"dedup {_pct(phases['dedup_s'], total)} "
        f"({phases['dedup_s']:.3f} s)",
        f"other {_pct(phases['other_s'], total)}",
    ]
    return "phase breakdown: " + " | ".join(parts)


def _split_sweeps(events: list[dict]) -> list[list[dict]]:
    """The events of each sweep, delimited by sweep_start/sweep_end."""
    sweeps: list[list[dict]] = []
    cur: list[dict] | None = None
    for e in events:
        ev = e.get("ev")
        if ev == "sweep_start":
            if cur is not None:
                sweeps.append(cur)  # unterminated (crashed) sweep
            cur = [e]
        elif cur is not None:
            cur.append(e)
            if ev == "sweep_end":
                sweeps.append(cur)
                cur = None
    if cur is not None:
        sweeps.append(cur)
    return sweeps


def _wave_table(waves: list[dict]) -> list[str]:
    timed = any("succ_s" in w for w in waves)
    header = f"  {'depth':>7} {'states':>10} {'frontier':>10} {'wave ms':>9}"
    if timed:
        header += f" {'succ ms':>9} {'dedup ms':>9}"
    lines = [header]

    def row(w):
        line = (
            f"  {w.get('depth', '?'):>7} {w.get('states', 0):>10,} "
            f"{w.get('frontier', 0):>10,} "
            f"{1000 * w.get('wave_s', 0.0):>9.1f}"
        )
        if timed:
            line += (
                f" {1000 * w.get('succ_s', 0.0):>9.1f}"
                f" {1000 * w.get('dedup_s', 0.0):>9.1f}"
            )
        return line

    lines.extend(_head_and_tail(waves, row, "waves"))
    return lines


def _render_sweep(i: int, events: list[dict]) -> list[str]:
    start = events[0] if events[0].get("ev") == "sweep_start" else {}
    end = next(
        (e for e in events if e.get("ev") == "sweep_end"), None
    )
    backend = start.get("backend", "?")
    outcome = end.get("outcome", "unterminated") if end else "unterminated"
    lines = [f"sweep {i}: {backend} — {outcome}"]

    if end:
        lines.append(
            f"  states {end.get('states', 0):,}  "
            f"transitions {end.get('transitions', 0):,}  "
            + (f"observed {n:,}  " if (n := end.get("observed")) else "")
            + f"seconds {end.get('seconds', 0.0):.3f}  "
            f"states/s {end.get('states_per_second', 0.0):,.0f}"
            + (f"  depth {end['depth']}" if "depth" in end else "")
            + (
                f"  max frontier {end['max_frontier']:,}"
                if "max_frontier" in end
                else ""
            )
        )
        red = end.get("reduction")
        if red:
            lines.append(
                "  reduction: "
                f"canonical_hits={red.get('canonical_hits', 0):,} "
                f"ample_prunes={red.get('ample_prunes', 0):,} "
                f"slice_hits={red.get('slice_hits', 0):,}"
            )
        if end.get("max_rss_bytes"):
            mem = f"  memory: max RSS {end['max_rss_bytes'] / 2**20:.1f} MiB"
            visited = end.get("bytes_per_state")
            if visited is not None:
                mem += f"  visited set {visited:.1f} B/state"
            if visited is not None and "dest_bytes" in end:
                kept = end["dest_bytes"] / max(end.get("states", 0), 1)
                mem += (
                    f"  {_DESTS.get(end.get('dest'), 'kept')} "
                    f"{kept:.1f} B/state  (together {visited + kept:.1f})"
                )
            lines.append(mem)

    waves = [e for e in events if e.get("ev") == "wave"]
    if waves:
        lines.append("  depth waves:")
        lines.extend("  " + ln for ln in _wave_table(waves))

    phases = phase_breakdown(events)
    if phases["total_s"] > 0:
        lines.append("  " + _fmt_phase_line(phases))
    return lines


#: a ``check`` event's ``holds`` as the CLI prints it (``null``: the
#: requirement was not checked on this configuration)
_VERDICTS = {True: "HOLDS", False: "VIOLATED"}


def render_report(events: list[dict]) -> str:
    """The full human-readable report for a trace (see module docstring)."""
    sweeps = _split_sweeps(events)
    run = whole_run(events)
    head = (
        f"flight recorder report — {len(sweeps)} sweep(s), "
        f"{len(events)} events, {run['span_s']:.3f} s of recording"
    )
    lines = [head]
    for i, sweep in enumerate(sweeps, 1):
        lines.append("")
        lines.extend(_render_sweep(i, sweep))

    fixpoints = [e for e in events if e.get("ev") == "fixpoint"]
    if fixpoints:
        by_mode: dict[str, int] = {}
        iters = 0
        for e in fixpoints:
            by_mode[e.get("mode", "?")] = by_mode.get(e.get("mode", "?"), 0) + 1
            if e.get("mode") == "kleene":
                iters += e.get("iterations", 0)
        modes = ", ".join(f"{n} {m}" for m, n in sorted(by_mode.items()))
        lines.append("")
        lines.append(
            f"fixpoints: {len(fixpoints)} solved ({modes}; "
            f"{iters} Kleene iterations)"
        )

        def fixpoint_row(e: dict) -> str:
            # iterations: Kleene rounds, or the frontier depth of a
            # worklist solve
            return (
                f"  {e.get('op', '?'):<2} {e.get('var', '?'):<8} "
                f"{e.get('mode', '?'):<17} {e.get('iterations', 0):>6} rounds  "
                f"{e.get('seconds', 0.0):>8.3f} s"
            )

        lines.extend(_head_and_tail(fixpoints, fixpoint_row, "fixpoints"))

    checks = [e for e in events if e.get("ev") == "check"]
    if checks:
        lines.append("")
        lines.append("requirement checks:")
        for e in checks:
            lines.append(
                f"  {e.get('requirement', '?'):<34} "
                f"{_VERDICTS.get(e.get('holds'), 'NOT CHECKED'):<11} "
                f"{e.get('states', 0):>10,} states  "
                f"{e.get('seconds', 0.0):>7.3f} s"
            )

    total_phases = phase_breakdown(events)
    if len(sweeps) > 1 and total_phases["total_s"] > 0:
        lines.append("")
        lines.append("overall " + _fmt_phase_line(total_phases))
    if run["span_s"] > 0:
        lines.append("")
        lines.append(
            f"whole run: {run['span_s']:.3f} s = "
            + " + ".join(
                f"{name} {run[key]:.3f} s ({_pct(run[key], run['span_s'])})"
                for name, key in (
                    ("sweeps", "sweeps_s"), ("checks", "checks_s"),
                    ("unattributed", "unattributed_s"),
                )
            )
        )
    return "\n".join(lines)


def report_from_file(path) -> str:
    """Load ``path`` (one JSONL trace) and render it.

    Strict — a malformed line raises, which the CLI turns into a clean
    ``error:`` exit rather than a silent partial report.
    """
    return render_report(read_trace(path))
