"""Command-line interface.

Everything the paper's authors ran by hand — generation, requirement
checking, trace narration — as subcommands::

    python -m repro check   --config 1 --variant fixed
    python -m repro check   --config 2 --variant error2 --requirement 3.2
    python -m repro explore --config 1 --rounds 2 --aut out.aut
    python -m repro table8  --rounds 2
    python -m repro narrate --config 1 --variant error1 --cyclic
    python -m repro formula --config 1 '[T*.c_home] F'
    python -m repro lint    --config 2 --certify --cert-out CERT.json
    python -m repro check   --config 2 --reduce CERT.json
    python -m repro explore --config 1 --trace sweep.jsonl
    python -m repro report  sweep.jsonl
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys

from repro import obs
from repro.analysis.experiments import run_table8
from repro.analysis.explain import narrate_trace
from repro.analysis.reporting import Table, format_table
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


def _positive_int(text: str) -> int:
    """An argparse type for counts: an integer >= 1, else exit 2."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}"
        )
    return value


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", choices=sorted(_CONFIGS), default="1",
                   help="paper configuration (default 1)")
    p.add_argument("--variant", choices=sorted(_VARIANTS), default="fixed",
                   help="protocol variant (default fixed)")
    p.add_argument("--rounds", type=int, default=1,
                   help="write+flush rounds per thread (default 1)")
    p.add_argument("--cyclic", action="store_true",
                   help="cyclic threads, as in the paper's muCRL spec")
    p.add_argument("--max-states", type=_positive_int, default=None,
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
    g.add_argument("--trace-ring", type=_positive_int, default=None,
                   metavar="N",
                   help="keep only the last N events (bounded memory; "
                   "with --trace the retained tail is written at exit)")


@contextlib.contextmanager
def _traced(args):
    """Activate the tracer ``--trace``/``--trace-ring`` ask for, if any.

    On exit the trace file is closed, even when the command fails — a
    wedged sweep still leaves its black box behind.
    """
    if not (args.trace or args.trace_ring):
        yield
        return
    tracer = obs.Tracer(path=args.trace, ring=args.trace_ring)
    try:
        with obs.activate(tracer):
            yield
    finally:
        tracer.close()
        if args.trace:
            print(f"written: {args.trace}", file=sys.stderr)


def _cmd_check(args) -> int:
    cfg = _config(args)
    variant = _VARIANTS[args.variant]()
    with _traced(args):
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
        return 1 if rep.holds is False else 0
    results = check_all_requirements(
        cfg, variant, max_states=args.max_states, certificate=cert
    )
    table = Table(
        f"requirements on config {args.config} ({variant.describe()}, "
        f"{cfg.describe()})",
        ["requirement", "verdict", "detail", "states"],
    )
    for rep in results.values():
        table.add(requirement=rep.requirement, verdict=rep.verdict,
                  detail=rep.detail, states=rep.lts_states)
    print(table.render())
    # a requirement not checked on this configuration is neutral
    return 1 if any(r.holds is False for r in results.values()) else 0


def _cmd_explore(args) -> int:
    from repro.lts.aut import write_aut
    from repro.lts.stats import lts_summary

    cfg = _config(args)
    variant = _VARIANTS[args.variant]()
    cert = _certificate(args)
    with _traced(args):
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
    rows = run_table8(
        rounds=None if args.cyclic else args.rounds,
        max_states=args.max_states,
    )
    print(format_table([r.as_dict() for r in rows],
                       title="Table 8 reproduction"))
    return 0 if all(r.all_hold for r in rows) else 1


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


def _cmd_report(args) -> int:
    import json

    from repro.obs.report import report_from_file

    path = args.tracefile
    try:
        # strict: a malformed line is a clean error, never a silent
        # partial report
        rendered = report_from_file(path)
    except OSError as exc:
        raise ReproError(f"cannot read trace {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReproError(f"malformed trace {path!r}: {exc.msg}") from exc
    print(rendered)
    return 0


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
    _add_reduce_arg(p)
    _add_obs_args(p)
    p.set_defaults(fn=_cmd_explore)

    p = sub.add_parser("table8", help="regenerate the paper's Table 8")
    p.add_argument("--rounds", type=int, default=2)
    p.add_argument("--cyclic", action="store_true")
    p.add_argument("--max-states", type=_positive_int, default=None)
    p.set_defaults(fn=_cmd_table8)

    p = sub.add_parser("narrate", help="find and narrate an error trace")
    _add_model_args(p)
    p.add_argument("--requirement", choices=("1", "3.2"), default=None,
                   help="narrate this requirement's counterexample "
                   "(default: requirement 1, falling back to 3.2 when "
                   "1 holds)")
    p.set_defaults(fn=_cmd_narrate)

    p = sub.add_parser("report", help="render a recorded trace as a timeline")
    p.add_argument("tracefile", metavar="TRACE",
                   help="JSONL trace file written by --trace")
    p.set_defaults(fn=_cmd_report)

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
        # library failures (bad parameters, malformed formulas,
        # exploration limits) are reported, not tracebacked; exit code 2
        # distinguishes them from verification verdicts (0/1)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # e.g. `repro ... | head`
        return 0
    except OSError as exc:
        # an unwritable --trace/--out/--aut/--cert-out path is a usage
        # error like the ones above, not a verdict
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
