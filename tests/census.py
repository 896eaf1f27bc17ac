"""Call census: every ``def`` under ``src/`` is run by a verb or the
benchmark, or is on the allowlist below with its reason.

Run it from the repository root::

    PYTHONPATH=src python tests/census.py

A global trace hook (``sys.settrace`` and ``threading.settrace``)
records the code object of every call and returns ``None``, so no
per-line event fires. Under it the census runs every ``repro`` verb on
small cells, in-process, and the pipeline benchmark's set-up, untraced
pass, output checks and traced passes
(``benchmarks/pipeline/workloads.py`` and ``layers.py``) on small
workloads. It then parses every module under ``src/`` and fails on

* a ``def`` that nothing reached and that is not on :data:`ALLOWED`
  (a nested ``def`` counts only where the ``def`` around it was
  reached), and
* an :data:`ALLOWED` entry that was reached or names no ``def``.

It is not part of tier-1 (it takes about a minute); CI runs it.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_ABLATION = "ablations A1/A4 (benchmarks/bench_ablation_*.py) run it"
_DUNDER = "dunder: Python calls it for the tests, never a verb"

#: ``module path::qualified name`` -> why nothing the census runs calls it
ALLOWED: dict[str, str] = {
    # oracles the tests compare against
    "repro/lts/explore.py::explore":
        "oracle: the reference explorer the engine is held to",
    "repro/lts/statehash.py::mix64":
        "oracle: the scalar hash the row set's vectorised one is held to",
    "repro/lts/aut.py::read_aut":
        "oracle: reads back what write_aut (explore --aut) writes",
    "repro/lts/aut.py::_parse_transition": "oracle: read_aut's line parser",
    # names the benchmarks and examples pin
    "repro/jackal/statistics.py::protocol_statistics": _ABLATION,
    "repro/jackal/statistics.py::categorize_label": _ABLATION,
    "repro/jackal/statistics.py::ProtocolStatistics.count": _ABLATION,
    "repro/jackal/statistics.py::ProtocolStatistics.share": _ABLATION,
    "repro/jackal/statistics.py::ProtocolStatistics.messages": _ABLATION,
    "repro/jackal/statistics.py::ProtocolStatistics.migrations": _ABLATION,
    "repro/jackal/statistics.py::ProtocolStatistics.as_rows": _ABLATION,
    "repro/lts/trace.py::Trace.final_state":
        "examples/error2_home_loss.py reads a replayed trace's end state",
    "repro/obs/tracer.py::Tracer.events":
        "the in-memory recorder's reader: examples/trace_replay.py and "
        "CI's whole-run step",
    # error paths
    "repro/jackal/kernel.py::RuleTable._raise":
        "error path: a Fail rule (the scalar relation's ModelError) fires "
        "only on a state no paper variant reaches",
    "repro/jackal/model.py::JackalModel._violate":
        "error path: the assertion-violation move; Requirement 2 holds on "
        "every paper variant",
    "repro/staticcheck/symmetry.py::Permutation.as_dict":
        "error path: the permutation named in a JKL301/302/401/402 refusal",
    "repro/mucalc/syntax.py::ActionPredicate.matches":
        "error path: the abstract base raises NotImplementedError",
    "repro/lts/explore.py::TransitionSystem.initial_state":
        "protocol declaration: its body is ``...``",
    "repro/lts/explore.py::TransitionSystem.successors":
        "protocol declaration: its body is ``...``",
    # dunders
    "repro/analysis/reporting.py::Table.__str__": _DUNDER,
    "repro/jackal/codec.py::StateCodec.__repr__": _DUNDER,
    "repro/lts/cycles.py::Lasso.__len__": _DUNDER,
    "repro/lts/engine.py::RowStates.__iter__":
        "dunder: abstract in Mapping, so RowStates must define it",
    "repro/lts/lts.py::LTS.__eq__": _DUNDER,
    "repro/lts/lts.py::LTS.__hash__": _DUNDER,
    "repro/lts/lts.py::LTS.__repr__": _DUNDER,
    "repro/lts/trace.py::Trace.__iter__": _DUNDER,
    "repro/obs/tracer.py::Tracer.__enter__":
        "dunder: `with obs.Tracer() as t, obs.activate(t)`, the Python-API "
        "recording CI's whole-run step uses",
    "repro/obs/tracer.py::Tracer.__exit__":
        "dunder: closes the recorder `with obs.Tracer() as t` opened",
}

#: the verbs, each as ``repro`` would be called on the command line;
#: ``{tmp}`` is a scratch directory
VERBS: list[list[str]] = [
    ["check", "--config", "1", "--rounds", "1"],
    ["check", "--config", "1", "--rounds", "2", "--variant", "error1",
     "--requirement", "1", "--show-trace"],
    ["check", "--config", "1", "--rounds", "2", "--variant", "error2",
     "--trace", "{tmp}/check.jsonl"],
    ["check", "--config", "1", "--cyclic", "--variant", "buggy",
     "--requirement", "4", "--show-trace"],
    ["check", "--config", "2", "--rounds", "1", "--variant", "alf"],
    ["check", "--config", "1", "--rounds", "1", "--variant", "no-migration"],
    ["check", "--config", "1", "--rounds", "2", "--reduce"],
    ["check", "--config", "1", "--rounds", "2", "--variant", "error1",
     "--reduce"],
    ["check", "--config", "1", "--cyclic", "--variant", "error2",
     "--requirement", "3.2", "--reduce", "--show-trace"],
    *(
        ["check", "--config", "1", "--rounds", "1", "--requirement", req,
         "--variant", "error2"]
        for req in ("1", "2", "3.1", "3.2", "4")
    ),
    ["check", "--config", "3", "--rounds", "1", "--requirement", "3.2"],
    ["check", "--config", "2", "--rounds", "1", "--max-states", "100"],
    ["check", "--config", "1", "--rounds", "1", "--trace",
     "{tmp}/ring.jsonl", "--trace-ring", "50"],
    ["check", "--config", "1", "--rounds", "1", "--trace",
     "{tmp}/no/such/dir/t.jsonl"],
    ["explore", "--config", "1", "--rounds", "1", "--aut", "{tmp}/c1.aut",
     "--trace", "{tmp}/explore.jsonl"],
    ["explore", "--config", "1", "--rounds", "1", "--probes", "--reduce"],
    ["explore", "--config", "2", "--rounds", "1", "--max-states", "50"],
    ["table8", "--rounds", "1"],
    ["narrate", "--config", "1", "--rounds", "2", "--variant", "error1"],
    ["narrate", "--config", "1", "--rounds", "2", "--variant", "error2"],
    ["narrate", "--config", "1", "--rounds", "1", "--requirement", "3.2",
     "--variant", "error2"],
    ["narrate", "--config", "1", "--rounds", "1"],
    ["report", "{tmp}/check.jsonl"],
    ["report", "{tmp}/explore.jsonl"],
    ["report", "{tmp}/missing.jsonl"],
    ["lint"],
    ["lint", "--rules"],
    ["lint", "--config", "1", "--variant", "error1"],
    ["lint", "--config", "1", "--variant", "error1", "--json"],
    ["lint", "--config", "1", "--certify", "--json", "--out",
     "{tmp}/lint.json"],
    ["lint", "--config", "2", "--certify", "--variant", "buggy"],
    ["lint", "--formula", "safe=[T*.c_home] F", "--suppress", "JKL001"],
    ["formula", "--config", "1", "[T*.c_home] F"],
    ["formula", "--config", "1",
     "nu X. ([T]X /\\ (<T>T \\/ ~<write(t0) | flush(t0)>T))"],
    ["formula", "--config", "1", "--no-probes",
     "[T*.write(t0)] mu Y. (<T>T /\\ [not (writeover(t0) | flush(t0))] Y)"],
    ["formula", "--config", "1", "[T*. F"],
]


def _verbs(tmp: str) -> None:
    from repro.cli import main

    for argv in VERBS:
        argv = [a.replace("{tmp}", tmp) for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refusals
                code = exc.code
        print(f"  repro {' '.join(argv)}: exit {code}")


def _benchmark() -> None:
    sys.path.insert(0, str(ROOT / "benchmarks" / "pipeline"))
    import layers
    import workloads
    from workloads import Cell, Workload

    small = {
        "census-check": Workload("check", tuple(
            Cell(c, r, v)
            for c, r in ((1, 2), (1, None))
            for v in workloads.MATRIX_VARIANTS
        ) + (
            Cell(1, 2, "alf"), Cell(2, 1, "fixed"),
            Cell(1, 2, "fixed", reduced=True),
        )),
        "census-dist": Workload(
            "dist", (Cell(1, 2, "fixed", reqs=("1", "2")),)
        ),
    }
    workloads.WORKLOADS.update(small)
    for name in small:
        inputs = workloads.set_up(name, 1)
        workloads.observed_outputs(inputs, workloads.run_untraced(inputs))
        spans, acc = layers.Spans(name), layers.new_accumulator()
        traced = (
            layers.traced_dist if small[name].kind == "dist"
            else layers.traced_check
        )
        workloads.observed_outputs(inputs, traced(spans, inputs, 1, acc))
        layers.layer_metrics(spans, acc, inputs["certify_s"])
        print(f"  benchmark {name}: {len(inputs['cells'])} cell(s)")


def _definitions() -> dict[str, tuple[str, str | None, set[int]]]:
    """Every ``def`` under ``src/``: its key, the key of the ``def``
    around it (or ``None``) and the line numbers a code object of it
    may start on (the ``def`` line, or its first decorator's)."""
    defs = {}

    def visit(node, rel, path, outer):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = f"{rel}::{'.'.join((*path, child.name))}"
                lines = {child.lineno, *(d.lineno for d in child.decorator_list)}
                defs[key] = (os.path.realpath(SRC / rel), outer, lines)
                visit(child, rel, (*path, child.name), key)
            elif isinstance(child, ast.ClassDef):
                visit(child, rel, (*path, child.name), outer)
            else:
                visit(child, rel, path, outer)

    for py in sorted(SRC.rglob("*.py")):
        rel = py.relative_to(SRC).as_posix()
        visit(ast.parse(py.read_text()), rel, (), None)
    return defs


def main() -> int:
    calls: set[tuple[str, int]] = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls.add((code.co_filename, code.co_firstlineno))
        return None

    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        threading.settrace(hook)
        sys.settrace(hook)
        try:
            _verbs(tmp)
            _benchmark()
        finally:
            sys.settrace(None)
            threading.settrace(None)
            os.chdir(cwd)

    # a relative import path is relative to the directory it started in
    calls = {(os.path.realpath(os.path.join(cwd, f)), n) for f, n in calls}
    defs = _definitions()
    reached = {
        key for key, (path, _outer, lines) in defs.items()
        if any((path, line) in calls for line in lines)
    }
    unreached = sorted(
        key for key, (_path, outer, _lines) in defs.items()
        if key not in reached and (outer is None or outer in reached)
    )
    failures = [
        f"unreached and not allowed: {key}"
        for key in unreached if key not in ALLOWED
    ]
    failures += [
        f"allowed but {'reached' if key in reached else 'no such def'}: {key}"
        for key in ALLOWED if key not in defs or key in reached
    ]
    print(
        f"{len(defs)} defs under src/, {len(reached)} reached, "
        f"{len(unreached)} unreached ({len(ALLOWED)} allowed)"
    )
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
