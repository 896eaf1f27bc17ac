"""Command-line interface.

Everything the paper's authors ran by hand — generation, requirement
checking, trace narration — as subcommands::

    python -m repro check   --config 1 --variant fixed
    python -m repro check   --config 2 --variant error2 --requirement 3.2
    python -m repro explore --config 1 --rounds 2 --aut out.aut
    python -m repro table8  --rounds 2
    python -m repro narrate --config 1 --variant error1 --cyclic
    python -m repro litmus
    python -m repro formula --config 1 '[T*.c_home] F'
    python -m repro bench   --config 1 --out BENCH_explore.json --profile
    python -m repro lint    --config 2 --certify --cert-out CERT.json
    python -m repro check   --config 2 --reduce CERT.json
    python -m repro explore --config 1 --trace sweep.jsonl --metrics-out m.json
    python -m repro report  sweep.jsonl
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys

from repro import obs
from repro.analysis.explain import narrate_trace
from repro.analysis.reporting import Table
from repro.errors import ReproError
from repro.jackal.params import CONFIG_1, CONFIG_2, CONFIG_3, Config, ProtocolVariant
from repro.jackal.requirements import (
    build_lts,
    build_model,
    check_all_requirements,
    check_requirement_1,
    check_requirement_2,
    check_requirement_3_1,
    check_requirement_3_2,
    check_requirement_4,
)

_CONFIGS = {"1": CONFIG_1, "2": CONFIG_2, "3": CONFIG_3}
_VARIANTS = {
    "fixed": ProtocolVariant.fixed,
    "buggy": ProtocolVariant.buggy,
    "error1": ProtocolVariant.error1,
    "error2": ProtocolVariant.error2,
    "no-migration": ProtocolVariant.no_migration,
    "alf": ProtocolVariant.alf,
}
_CHECKS = {
    "1": check_requirement_1,
    "2": check_requirement_2,
    "3.1": check_requirement_3_1,
    "3.2": check_requirement_3_2,
    "4": check_requirement_4,
}


def _config(args) -> Config:
    cfg = _CONFIGS[args.config]
    rounds = None if getattr(args, "cyclic", False) else args.rounds
    return dataclasses.replace(cfg, rounds=rounds)


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", choices=sorted(_CONFIGS), default="1",
                   help="paper configuration (default 1)")
    p.add_argument("--variant", choices=sorted(_VARIANTS), default="fixed",
                   help="protocol variant (default fixed)")
    p.add_argument("--rounds", type=int, default=1,
                   help="write+flush rounds per thread (default 1)")
    p.add_argument("--cyclic", action="store_true",
                   help="cyclic threads, as in the paper's muCRL spec")
    p.add_argument("--max-states", type=int, default=None,
                   help="abort beyond this many states")


def _add_reduce_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--reduce", default=None, metavar="CERT.json",
                   help="sweep under the symmetry/ample reduction this "
                   "certificate licenses (issued by `repro lint "
                   "--certify`); refuses with exit 2 unless the "
                   "certificate validates for this exact spec")


def _certificate(args):
    if getattr(args, "reduce", None) is None:
        return None
    from repro.staticcheck.certificates import load

    return load(args.reduce)


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("observability")
    g.add_argument("--trace", default=None, metavar="JSONL",
                   help="record a structured event trace to this file "
                   "(render it later with `repro report`)")
    g.add_argument("--trace-dir", default=None, metavar="DIR",
                   help="record one trace stream per process into this "
                   "directory: trace.coordinator.jsonl plus a "
                   "trace.worker<N>.jsonl per distributed worker "
                   "(render the merged timeline with `repro report DIR`)")
    g.add_argument("--trace-ring", type=int, default=None, metavar="N",
                   help="keep only the last N events (bounded memory; "
                   "with --trace the retained tail is written at exit)")
    g.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="write final metrics to this file (JSON, or "
                   "Prometheus text if the path ends in .prom)")
    g.add_argument("--progress", action="store_true",
                   help="live progress line on stderr while exploring")
    g.add_argument("--mem-pressure-mb", type=float, default=None,
                   metavar="MB",
                   help="emit a mem_pressure trace event when the "
                   "process RSS crosses this many MiB (memory "
                   "watermarks are recorded whenever any recording "
                   "flag is on)")


@contextlib.contextmanager
def _instrumented(args):
    """Activate the flight recorder the obs flags ask for (or NULL).

    On exit the trace file is closed and the metrics snapshot written,
    even when the command fails — a wedged sweep still leaves its
    black box behind.
    """
    trace = getattr(args, "trace", None)
    trace_dir = getattr(args, "trace_dir", None)
    ring = getattr(args, "trace_ring", None)
    metrics_out = getattr(args, "metrics_out", None)
    progress = getattr(args, "progress", False)
    pressure_mb = getattr(args, "mem_pressure_mb", None)
    if not (trace or trace_dir or ring or metrics_out or progress
            or pressure_mb):
        yield obs.NULL
        return
    if trace and trace_dir:
        raise ReproError("--trace and --trace-dir are mutually exclusive")
    if trace_dir:
        # the coordinator's stream lives next to the per-worker ones
        os.makedirs(trace_dir, exist_ok=True)
        trace = os.path.join(trace_dir, "trace.coordinator.jsonl")
    registry = obs.MetricsRegistry() if metrics_out else None
    tracer = obs.Tracer(path=trace, ring=ring) if (trace or ring) else None
    reporter = obs.ProgressReporter() if progress else None
    memwatch = obs.MemWatch(
        tracer=tracer, metrics=registry,
        threshold_bytes=(
            int(pressure_mb * 1024 * 1024) if pressure_mb else None
        ),
    )
    inst = obs.Instrumentation(registry, tracer, reporter, memwatch,
                               trace_dir=trace_dir)
    try:
        with obs.activate(inst):
            yield inst
    finally:
        inst.close()
        if trace_dir:
            print(f"written: {trace_dir}", file=sys.stderr)
        elif trace:
            print(f"written: {trace}", file=sys.stderr)
        if metrics_out:
            rendered = (
                registry.render_prometheus()
                if metrics_out.endswith(".prom")
                else registry.render_json() + "\n"
            )
            with open(metrics_out, "w") as fh:
                fh.write(rendered)
            print(f"written: {metrics_out}", file=sys.stderr)


def _cmd_check(args) -> int:
    cfg = _config(args)
    variant = _VARIANTS[args.variant]()
    with _instrumented(args):
        return _run_check(args, cfg, variant)


def _run_check(args, cfg, variant) -> int:
    cert = _certificate(args)
    if args.requirement:
        rep = _CHECKS[args.requirement](
            cfg, variant, max_states=args.max_states, certificate=cert
        )
        print(rep.summary())
        if rep.trace is not None and args.show_trace:
            print(rep.trace.format())
        return 0 if rep.holds else 1
    results = check_all_requirements(
        cfg, variant, max_states=args.max_states, certificate=cert
    )
    table = Table(
        f"requirements on config {args.config} ({variant.describe()}, "
        f"{cfg.describe()})",
        ["requirement", "verdict", "detail", "states"],
    )
    ok = True
    for rep in results.values():
        ok &= rep.holds
        table.add(requirement=rep.requirement,
                  verdict="HOLDS" if rep.holds else "VIOLATED",
                  detail=rep.detail, states=rep.lts_states)
    print(table.render())
    return 0 if ok else 1


def _cmd_explore(args) -> int:
    from repro.lts.aut import write_aut
    from repro.lts.stats import lts_summary

    cfg = _config(args)
    variant = _VARIANTS[args.variant]()
    cert = _certificate(args)
    if args.distributed:
        from repro.lts.distributed import distributed_explore

        model = build_model(cfg, variant, probes=args.probes)
        with _instrumented(args):
            _lts, stats = distributed_explore(
                model,
                n_workers=args.workers or os.cpu_count() or 2,
                max_states=args.max_states,
                certificate=cert,
            )
        row = {
            "states": stats.states, "transitions": stats.transitions,
            "workers": len(stats.per_worker_states),
            "seconds": round(stats.seconds, 3),
            "states/s": round(
                stats.states / stats.seconds if stats.seconds > 0 else 0.0
            ),
        }
        print(Table(
            f"distributed sweep of config {args.config} "
            f"({variant.describe()})",
            list(row), [row],
        ).render())
        if args.aut:
            raise ReproError(
                "--aut needs the explicit LTS; drop --distributed "
                "(the distributed backend is count-only from the CLI)"
            )
        return 0
    with _instrumented(args):
        _model, lts = build_lts(
            cfg, variant, probes=args.probes, max_states=args.max_states,
            certificate=cert,
        )
    summary = lts_summary(lts)
    print(Table(f"LTS of config {args.config} ({variant.describe()})",
                list(summary.as_row()), [summary.as_row()]).render())
    if args.aut:
        write_aut(lts, args.aut)
        print(f"written: {args.aut}")
    return 0


def _cmd_table8(args) -> int:
    rows = []
    for name, cfg in _CONFIGS.items():
        skip = ("3.1", "3.2", "4") if name == "3" else ()
        c = dataclasses.replace(
            cfg, rounds=None if args.cyclic else args.rounds
        )
        res = check_all_requirements(
            c, ProtocolVariant.fixed(), skip=skip, max_states=args.max_states
        )
        rows.append({
            "config": name,
            "states": max(r.lts_states for r in res.values()),
            "transitions": max(r.lts_transitions for r in res.values()),
            "req_checked": ", ".join(sorted(res)),
            "all_hold": all(r.holds for r in res.values()),
        })
    print(Table("Table 8 reproduction",
                ["config", "states", "transitions", "req_checked", "all_hold"],
                rows).render())
    return 0 if all(r["all_hold"] for r in rows) else 1


def _cmd_narrate(args) -> int:
    cfg = _config(args)
    variant = _VARIANTS[args.variant]()
    if args.requirement is not None:
        # an explicit requirement is checked directly — never narrate a
        # requirement-1 trace when the user asked about 3.2
        rep = _CHECKS[args.requirement](cfg, variant, max_states=args.max_states)
        print(rep.summary())
    else:
        # default: narrate whichever paper bug is present — the
        # deadlock (requirement 1) first, home loss (3.2) as fallback
        rep = check_requirement_1(cfg, variant, max_states=args.max_states)
        print(rep.summary())
        if rep.trace is None and rep.holds:
            rep = check_requirement_3_2(cfg, variant, max_states=args.max_states)
            print(rep.summary())
    if rep.trace is None:
        print("nothing to narrate (no counterexample found)")
        return 0
    model = build_model(cfg, variant, probes=not rep.holds and rep.requirement.startswith("3"))
    print()
    print(narrate_trace(model, rep.trace))
    return 1


def _cmd_bench(args) -> int:
    import json

    from repro.lts.bench import BenchMismatchError, bench_explore, format_bench

    cfg = dataclasses.replace(_config(args), with_probes=False)
    variant = _VARIANTS[args.variant]()
    model = build_model(cfg, variant, probes=False)
    backends = tuple(args.backends.split(","))
    faults = None
    if args.inject_fault:
        from repro.lts.faults import FaultPlan

        if "distributed" not in backends:
            # a fault plan that no backend would exercise must not be
            # silently ignored — the "benchmark" would claim recovery
            # coverage it never ran
            raise ReproError(
                "--inject-fault targets the distributed backend, but "
                f"--backends {args.backends!r} does not include "
                "'distributed'"
            )
        faults = FaultPlan.parse(",".join(args.inject_fault))
    cert = _certificate(args)
    try:
        with _instrumented(args):
            report = bench_explore(
                model,
                backends=backends,
                n_workers=args.workers,
                repeats=args.repeats,
                profile=args.profile,
                faults=faults,
                batch_size=args.batch_size,
                certificate=cert,
            )
    except BenchMismatchError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 2
    report["config"] = cfg.describe()
    report["variant"] = variant.describe()
    print(format_bench(report))
    if args.profile:
        print()
        print(report["profile"])
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"written: {args.out}")
    if args.min_sps is not None:
        best = max(
            row["states_per_second"] for row in report["backends"].values()
        )
        if best < args.min_sps:
            print(
                f"FAIL: best throughput {best:.0f} states/s below the "
                f"--min-sps floor {args.min_sps}",
                file=sys.stderr,
            )
            return 1
    if args.min_dist_speedup is not None:
        dist_speedup = report["speedup"].get("distributed")
        if dist_speedup is None:
            print(
                "FAIL: --min-dist-speedup set but the distributed "
                "backend did not run",
                file=sys.stderr,
            )
            return 1
        if dist_speedup < args.min_dist_speedup:
            print(
                f"FAIL: distributed speedup {dist_speedup:.2f}x below "
                f"the --min-dist-speedup floor {args.min_dist_speedup}",
                file=sys.stderr,
            )
            return 1
    if args.max_rss_mb is not None:
        from repro.lts.bench import rss_gate

        cap = int(args.max_rss_mb * 1024 * 1024)
        over = rss_gate(report, cap)
        if over:
            worst = max(
                report["backends"][n]["max_rss_bytes"] for n in over
            )
            print(
                f"FAIL: RSS watermark {worst / (1024 * 1024):.1f} MiB "
                f"exceeds the --max-rss-mb cap {args.max_rss_mb} "
                f"(backends: {', '.join(over)})",
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_report(args) -> int:
    import json

    from repro.obs.report import report_from_file, report_from_paths

    paths = args.tracefile
    single_file = len(paths) == 1 and not os.path.isdir(paths[0])
    shown = paths[0] if len(paths) == 1 else ", ".join(paths)
    try:
        if single_file and not args.lenient:
            # one plain file keeps the strict contract: a malformed
            # line is a clean error, never a silent partial report
            rendered = report_from_file(paths[0])
        elif single_file:
            rendered = report_from_file(paths[0], lenient=True)
        else:
            # directories / multiple streams merge leniently — crashed
            # workers legitimately leave torn tails behind
            rendered = report_from_paths(paths)
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise ReproError(f"cannot read trace {shown!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReproError(
            f"malformed trace {shown!r}: {exc.msg}"
        ) from exc
    print(rendered)
    return 0


def _cmd_litmus(_args) -> int:
    from repro.jmm import LITMUS_TESTS, run_conformance

    ok = True
    for t in LITMUS_TESTS():
        res = run_conformance(t)
        ok &= res.conforms
        print(res.summary())
    return 0 if ok else 1


def _cmd_lint(args) -> int:
    from repro.mucalc.parser import parse_formula
    from repro.staticcheck import RULES, default_formulas, run_lint

    if args.rules:
        for rule, text in sorted(RULES.items()):
            print(f"{rule}  {text}")
        return 0
    cfg = _config(args)
    variant = _VARIANTS[args.variant]()
    formulas = default_formulas(cfg)
    for spec in args.formula:
        name, _, text = spec.partition("=")
        if not text:
            name, text = f"<cli:{spec}>", spec
        formulas.append((name, parse_formula(text)))
    report = run_lint(
        cfg, variant, formulas=formulas, suppress=tuple(args.suppress)
    )
    cert = None
    if args.certify:
        from repro.staticcheck.symmetry import certify

        # certification failure surfaces as JKL30x findings in the
        # report (machine-readable in --json) and flips the exit code
        cert, cert_findings = certify(cfg, variant)
        report.extend(cert_findings)
    rendered = report.render_json() if args.json else report.render_text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(rendered + "\n")
        print(f"written: {args.out}")
    else:
        print(rendered)
    if cert is not None:
        cert.save(args.cert_out)
        print(f"written: {args.cert_out}")
    return report.exit_code


def _cmd_formula(args) -> int:
    from repro.mucalc.checker import holds
    from repro.mucalc.parser import parse_formula

    cfg = _config(args)
    variant = _VARIANTS[args.variant]()
    _model, lts = build_lts(
        cfg, variant, probes=args.probes, max_states=args.max_states
    )
    f = parse_formula(args.formula)
    result = holds(lts, f)
    print(f"{f}  on config {args.config} ({variant.describe()}): {result}")
    return 0 if result else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    ap = argparse.ArgumentParser(
        prog="repro",
        description="Jackal cache-coherence protocol verification "
        "(IPPS 2003 reproduction)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="model check the paper's requirements")
    _add_model_args(p)
    p.add_argument("--requirement", choices=sorted(_CHECKS), default=None,
                   help="check one requirement (default: all)")
    p.add_argument("--show-trace", action="store_true",
                   help="print the counterexample trace if any")
    _add_reduce_arg(p)
    _add_obs_args(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("explore", help="generate the LTS, optionally to .aut")
    _add_model_args(p)
    p.add_argument("--probes", action="store_true",
                   help="include the observability probe self-loops")
    p.add_argument("--aut", default=None, help="write the LTS to this path")
    p.add_argument("--distributed", action="store_true",
                   help="count-only partitioned sweep with worker "
                   "processes (combine with --trace-dir for one trace "
                   "stream per worker)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes for --distributed "
                   "(default: the machine's CPU count)")
    _add_reduce_arg(p)
    _add_obs_args(p)
    p.set_defaults(fn=_cmd_explore)

    p = sub.add_parser("table8", help="regenerate the paper's Table 8")
    p.add_argument("--rounds", type=int, default=2)
    p.add_argument("--cyclic", action="store_true")
    p.add_argument("--max-states", type=int, default=None)
    p.set_defaults(fn=_cmd_table8)

    p = sub.add_parser("narrate", help="find and narrate an error trace")
    _add_model_args(p)
    p.add_argument("--requirement", choices=("1", "3.2"), default=None,
                   help="narrate this requirement's counterexample "
                   "(default: requirement 1, falling back to 3.2 when "
                   "1 holds)")
    p.set_defaults(fn=_cmd_narrate)

    p = sub.add_parser(
        "bench", help="benchmark the exploration backends (BENCH_explore.json)"
    )
    _add_model_args(p)
    p.add_argument(
        "--backends",
        default="serial,engine,distributed",
        help="comma-separated backends (serial is always run)",
    )
    p.add_argument("--workers", type=int, default=None,
                   help="partitions for the distributed backend "
                   "(default: the machine's available CPU count)")
    p.add_argument("--repeats", type=int, default=1,
                   help="timed runs per backend; best is reported")
    p.add_argument("--profile", action="store_true",
                   help="cProfile the engine and print hot functions")
    p.add_argument("--inject-fault", action="append", default=[],
                   metavar="KIND:W@N",
                   help="inject a worker fault into the distributed "
                   "backend (repeatable; kill:W@N, raise:W@N, "
                   "delay:W@SECONDS) — the cross-check then exercises "
                   "crash recovery")
    p.add_argument("--batch-size", type=int, default=None,
                   help="initial distributed expansion quantum in states "
                   "(default 256; shrink to force many quanta on small "
                   "systems)")
    p.add_argument("--out", default=None, metavar="JSON",
                   help="write the report (e.g. BENCH_explore.json)")
    p.add_argument("--min-sps", type=float, default=None,
                   help="exit 1 if the best backend is slower than this")
    p.add_argument("--min-dist-speedup", type=float, default=None,
                   help="exit 1 if the distributed backend's speedup "
                   "over serial falls below this (e.g. 1.0)")
    p.add_argument("--max-rss-mb", type=float, default=None,
                   help="exit 1 if any backend's instrumented-pass RSS "
                   "watermark exceeds this many MiB (memory regression "
                   "gate)")
    _add_reduce_arg(p)
    _add_obs_args(p)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser(
        "report", help="render recorded trace files/dirs as a timeline"
    )
    p.add_argument("tracefile", metavar="TRACE", nargs="+",
                   help="JSONL trace file(s) written by --trace, and/or "
                   "--trace-dir directories; several streams merge into "
                   "one causal timeline with per-worker lanes")
    p.add_argument("--lenient", action="store_true",
                   help="skip unparseable lines instead of failing "
                   "(always on for directories/multiple streams)")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("litmus", help="JMM conformance of the DSM runtime")
    p.set_defaults(fn=_cmd_litmus)

    p = sub.add_parser(
        "lint", help="static protocol analysis (no state-space exploration)"
    )
    p.add_argument("--config", choices=sorted(_CONFIGS), default="1",
                   help="paper configuration (default 1)")
    p.add_argument("--variant", choices=sorted(_VARIANTS), default="fixed",
                   help="protocol variant (default fixed)")
    p.add_argument("--rounds", type=int, default=1,
                   help="write+flush rounds per thread (default 1)")
    p.add_argument("--cyclic", action="store_true",
                   help="cyclic threads, as in the paper's muCRL spec")
    p.add_argument("--json", action="store_true",
                   help="render the report as JSON")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the report to this path instead of stdout")
    p.add_argument("--suppress", action="append", default=[],
                   metavar="RULE", help="drop findings of this rule id "
                   "(repeatable, e.g. --suppress JKL202)")
    p.add_argument("--formula", action="append", default=[],
                   metavar="[NAME=]TEXT", help="also cross-check the "
                   "labels of this mu-calculus formula (repeatable)")
    p.add_argument("--rules", action="store_true",
                   help="list the rule catalogue and exit")
    p.add_argument("--certify", action="store_true",
                   help="additionally certify the spec for symmetry/"
                   "ample reduction; failures surface as JKL30x "
                   "findings (exit 1), success writes --cert-out")
    p.add_argument("--cert-out", default="CERT.json", metavar="FILE",
                   help="where --certify writes the signed reduction "
                   "certificate (default CERT.json)")
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser("formula", help="check a mu-calculus formula")
    _add_model_args(p)
    p.add_argument(
        "--no-probes",
        dest="probes",
        action="store_false",
        help="check on the probe-free model (needed for liveness formulas)",
    )
    p.set_defaults(probes=True)
    p.add_argument("formula", help="formula in the paper's syntax")
    p.set_defaults(fn=_cmd_formula)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        # library failures (bad parameters, malformed specs/formulas,
        # exploration limits) are reported, not tracebacked; exit code 2
        # distinguishes them from verification verdicts (0/1)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # e.g. `repro ... | head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
