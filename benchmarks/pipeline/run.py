"""Pipeline benchmark: time-to-verdict, CPU and memory per workload.

    python benchmarks/pipeline/run.py [--seed N] [--out DIR]
        every workload: five timed runs each (interleaved round-robin), one
        traced pass, every metric printed by name, results.json in DIR

    python benchmarks/pipeline/run.py --workload NAME --seed N \\
            --seconds S --trace 0|1
        the same for one workload, as many of the five timed runs as fit
        into S seconds; the last line of output is one JSON object holding
        the end-to-end metrics (--trace 0) or the per-layer metrics
        (--trace 1) that BENCHMARK.json names

    python benchmarks/pipeline/run.py --compare A/results.json B/results.json
        do two sets of runs agree within the bounds?

Every timed run is a fresh child process of this single-threaded parent,
one at a time, so peak RSS is per run and no memo survives between
runs. README.md has the protocol, the metrics and how they interact.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402 - needs HERE on the path

ROOT = wl.ROOT

#: timed runs per workload; fewer only where ``--seconds`` stops them
REPEATS = 5
#: run once and discarded before anything is timed: warms the file cache
WARM_UP = "smoke"
#: a child that runs longer than this is killed and fails all its outputs
CHILD_TIMEOUT_S = 170
#: traced twice, in two processes: every count must repeat exactly
DETERMINISM_WORKLOADS = ("matrix-small", "smoke")
#: batch counts follow a wall-clock quantum, so they do not repeat exactly
INEXACT_COUNTS = ("lts.distributed.",)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- the child: one run of one workload -----------------------------------


def _cpu_seconds() -> float:
    """User+system CPU of this process and the workers it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mib() -> float:
    """This process's peak RSS plus its largest reaped worker's."""
    return sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024


def child_main(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    expected = wl.load_expected(args.expected)
    inputs = wl.set_up(args.child, args.seed)
    want = wl.expected_outputs(inputs["workload"], expected)
    result = {"setup_s": time.time() - args.spawned_at}
    if not args.trace:
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        results = wl.run_untraced(inputs)
        result["verdict_s"] = time.perf_counter() - t0
        result["cpu_s"] = _cpu_seconds() - cpu0
        result["peak_rss_mib"] = _peak_rss_mib()
    else:
        import layers

        spans = layers.Spans(args.child)
        acc = layers.new_accumulator()
        traced = (
            layers.traced_dist
            if inputs["workload"].kind == "dist"
            else layers.traced_check
        )
        results = traced(spans, inputs, args.seed, acc)
        result["layers"] = layers.layer_metrics(
            spans, acc, inputs["certify_s"]
        )
        result["traced_wall_s"] = spans.total(layers.TRACED_WALL)
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"spans-{args.child}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spans.rows, fh)
    wrong = wl.wrong_outputs(want, wl.observed_outputs(inputs, results))
    result.update(attempted=len(want), failed=len(wrong), wrong=wrong)
    print(json.dumps(result))
    return 0


# -- the parent ------------------------------------------------------------


def spawn(workload: str, trace: int, args) -> dict:
    """Run one child to its end; a crash or timeout fails every output."""
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--child", workload, "--trace", str(trace),
        "--seed", str(args.seed), "--expected", str(args.expected),
        "--out", str(args.out), "--spawned-at", repr(time.time()),
    ]
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2**32))
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        failure = None if proc.returncode == 0 else proc.stderr[-2000:]
    except subprocess.TimeoutExpired:
        failure = f"timed out after {CHILD_TIMEOUT_S} s"
    if failure is None:
        return json.loads(proc.stdout.splitlines()[-1])
    print(f"[{workload}] child failed:\n{failure}", file=sys.stderr)
    try:
        lost = len(wl.expected_outputs(
            wl.WORKLOADS[workload], wl.load_expected(args.expected)
        ))
    except (OSError, ValueError, KeyError):
        lost = 1  # not even the expected file is readable
    return {"crashed": True, "attempted": lost, "failed": lost}


def timed_rounds(names: list[str], args) -> dict[str, list[dict]]:
    """Up to REPEATS rounds of one timed child per workload, round-robin.

    Interleaved so that background load hits every workload equally. With
    ``--seconds``, no round starts that is expected to end after it; the
    first always runs.
    """
    timed: dict[str, list[dict]] = {name: [] for name in names}
    started = time.perf_counter()
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for name in names:
            timed[name].append(spawn(name, 0, args))
        now = time.perf_counter()
        if args.seconds and (now - started) + (now - t0) > args.seconds:
            break
    return timed


def summarize(samples: list[float]) -> dict:
    return {
        "median": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "samples": samples,
    }


def end_to_end(timed: list[dict], spec: dict) -> dict:
    """Per end-to-end metric, the summary over the runs that finished."""
    done = [r for r in timed if not r.get("crashed")]
    if not done:
        return {}
    return {
        m["name"]: dict(
            summarize([r[m["name"]] for r in done]), unit=m["unit"]
        )
        for m in spec["end_to_end"]
    }


def exact_counts(per_layer: dict, spec: dict) -> dict:
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return {
        name: value
        for name, value in per_layer.items()
        if units[name] == "count" and not name.startswith(INEXACT_COUNTS)
    }


def traced_pass(workload: str, args, timed: list[dict], spec) -> dict:
    """One traced child (two where counts must be shown to repeat)."""
    first = spawn(workload, 1, args)
    out = {"attempted": first["attempted"], "failed": first["failed"]}
    if first.get("crashed"):
        return out
    per_layer = first["layers"]
    untraced = [r["verdict_s"] for r in timed if not r.get("crashed")]
    if untraced:
        base = statistics.median(untraced)
        overhead = (first["traced_wall_s"] - base) / base
    else:
        overhead = 0
    per_layer["bench.trace_overhead_share"] = overhead
    names = {m["name"] for m in spec["per_layer"]}
    if set(per_layer) != names:
        sys.exit(
            "per-layer metrics differ from BENCHMARK.json: "
            f"{sorted(set(per_layer) ^ names)}"
        )
    if workload in DETERMINISM_WORKLOADS:
        again = spawn(workload, 1, args)
        out["attempted"] += again["attempted"] + 1
        out["failed"] += again["failed"]
        if again.get("crashed") or exact_counts(
            again["layers"], spec
        ) != exact_counts(per_layer, spec):
            out["failed"] += 1
            print(f"[{workload}] counts did not repeat", file=sys.stderr)
    out["per_layer"] = per_layer
    return out


def record(workload, timed, traced, spec) -> dict:
    """Summarise one workload's runs and print every metric by name."""
    e2e = end_to_end(timed, spec)
    runs = timed + [traced] if traced else timed
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    per_layer = traced.get("per_layer", {}) if traced else {}
    for name, s in e2e.items():
        print(
            f"{workload:<13} {name:<42} {s['median']:>14.6f} {s['unit']:<6}"
            f" n={s['n']} min={s['min']:.6f} max={s['max']:.6f}"
        )
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, value in per_layer.items():
        print(f"{workload:<13} {name:<42} {value:>14.6f} {units[name]:<6} n=1")
    print(
        f"{workload:<13} {'failed_share':<42} {failed / attempted:>14.6f} "
        f"{'ratio':<6} n={attempted}"
    )
    return {
        "end_to_end": e2e,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "per_layer": per_layer,
    }


def run(names: list[str], args, spec) -> int:
    """Timed rounds, then the traced pass; results.json, spans in ``--out``."""
    spawn(WARM_UP, 0, args)
    timed = timed_rounds(names, args)
    report = {"seed": args.seed, "workloads": {}}
    for name in names:
        traced = None
        if args.trace:
            traced = traced_pass(name, args, timed[name], spec)
        report["workloads"][name] = record(name, timed[name], traced, spec)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "results.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"wrote {path}")
    failed = sum(w["failed"] for w in report["workloads"].values())
    if args.workload:  # the last line is the result object
        rec = report["workloads"][args.workload]
        if args.trace:
            wanted, values = spec["per_layer"], rec["per_layer"]
        else:
            wanted = spec["end_to_end"]
            values = {n: s["median"] for n, s in rec["end_to_end"].items()}
        if len(values) < len(wanted):
            print("no run finished: nothing to report", file=sys.stderr)
            return 2
        print(json.dumps({
            "correct": failed == 0,
            "attempted": rec["attempted"],
            "failed": failed,
            "metrics": {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in wanted
            },
        }))
    return 0 if failed == 0 else 1


# -- agreement of two sets of runs ------------------------------------------


def _spread(summary: dict) -> float:
    """Distance between the quartiles of a set's runs, over their median."""
    if summary["n"] < 2:
        return float("inf")  # one run says nothing about its own spread
    q1, _q2, q3 = statistics.quantiles(summary["samples"], n=4)
    return (q3 - q1) / summary["median"]


def _verdict(sa: dict, sb: dict, metric: dict) -> tuple[float, float, str]:
    """(relative difference, spread, verdict) of one metric, A against B."""
    sign = -1 if metric["better"] == "higher" else 1
    diff = sign * (sb["median"] - sa["median"]) / sa["median"]
    spread = max(_spread(sa), _spread(sb))
    if spread <= metric["bound"]:
        verdict = "worse" if diff > metric["bound"] else "within"
    elif max(sign * x for x in sb["samples"]) < min(
        sign * x for x in sa["samples"]
    ):
        verdict = "better"
    else:
        verdict = "unresolved"
    return diff, spread, verdict


def compare(path_a: str, path_b: str, spec) -> int:
    """Per workload x end-to-end metric: medians, difference, bound.

    ``worse``: B's median is worse than A's by more than the bound.
    ``unresolved``: a set's own quartile spread exceeds the bound (or a set
    has a single run, or none that finished), so the medians cannot show
    that nothing moved — unless every run of B reads better than every run
    of A (``better``). Exact counts must be equal.
    """
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)["workloads"]
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)["workloads"]
    if set(a) != set(b):
        sys.exit(f"different workloads: {sorted(set(a) ^ set(b))}")
    bad = 0
    print(
        f"{'workload':<13} {'metric':<13} {'A median':>12} {'B median':>12}"
        f" {'diff':>8} {'bound':>6}  verdict"
    )
    for name in a:
        for metric in spec["end_to_end"]:
            sa = a[name]["end_to_end"].get(metric["name"])
            sb = b[name]["end_to_end"].get(metric["name"])
            if sa is None or sb is None:
                bad += 1
                print(
                    f"{name:<13} {metric['name']:<13} unresolved "
                    "(no run finished)"
                )
                continue
            diff, spread, verdict = _verdict(sa, sb, metric)
            bad += verdict in ("worse", "unresolved")
            print(
                f"{name:<13} {metric['name']:<13} {sa['median']:>12.4f} "
                f"{sb['median']:>12.4f} {diff:>+8.2%} {metric['bound']:>6.2f}"
                f"  {verdict} (spread {spread:.2%})"
            )
        ca = exact_counts(a[name]["per_layer"], spec)
        cb = exact_counts(b[name]["per_layer"], spec)
        moved = sorted(
            k for k in ca.keys() | cb.keys() if ca.get(k) != cb.get(k)
        )
        failed = a[name]["failed"] + b[name]["failed"]
        bad += bool(moved) + bool(failed)
        print(
            f"{name:<13} {len(ca)} exact counts: "
            f"{'identical' if not moved else moved}; failed outputs {failed}"
        )
    return 0 if bad == 0 else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=1)
    p.add_argument("--out", default=str(HERE / "out"))
    p.add_argument("--expected", default=str(wl.DEFAULT_EXPECTED))
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    # internal: this process is one run
    p.add_argument("--child", choices=sorted(wl.WORKLOADS))
    p.add_argument("--spawned-at", type=float)
    args = p.parse_args(argv)
    if args.child:
        return child_main(args)
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"nothing to measure: {ROOT / 'src' / 'repro'} is missing")
    if args.workload:
        return run([args.workload], args, spec)
    return run([w["name"] for w in spec["workloads"]], args, spec)


if __name__ == "__main__":
    sys.exit(main())
