"""The benchmark's workloads: inputs, the timed calls and the output checks.

A workload is a list of *cells* (configuration x variant x requirement
set) run through one entry point of the program under test. The table
below is data only; ``repro`` is imported lazily so that the parent
harness can count a crashed child's outputs without loading the
program.

Every cell's verdicts and counts live in ``expected.json`` — verdicts
written by hand from the paper's narrative, counts generated once by
``make_expected.py`` from the reference explorer. Nothing here derives
an expectation from the code paths being timed.
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
DEFAULT_EXPECTED = HERE / "expected.json"

ALL_REQS = ("1", "2", "3.1", "3.2", "4")

#: the only multi-process workload uses exactly the reference box's cores
DIST_WORKERS = 2


@dataclasses.dataclass(frozen=True)
class Cell:
    """One model instance and the requirements decided on it."""

    config_no: int
    rounds: int | None  # None = cyclic threads
    variant_name: str
    reqs: tuple[str, ...] = ALL_REQS
    reduced: bool = False

    @property
    def id(self) -> str:
        r = "cyc" if self.rounds is None else f"r{self.rounds}"
        tag = "+cert" if self.reduced else ""
        return f"c{self.config_no}{r}/{self.variant_name}{tag}"

    def config(self):
        from repro.jackal import params

        base = getattr(params, f"CONFIG_{self.config_no}")
        return dataclasses.replace(base, rounds=self.rounds)

    def variant(self):
        from repro.jackal.params import ProtocolVariant

        return getattr(ProtocolVariant, self.variant_name.replace("-", "_"))()

    @property
    def skip(self) -> tuple[str, ...]:
        return tuple(r for r in ALL_REQS if r not in self.reqs)


@dataclasses.dataclass(frozen=True)
class Workload:
    kind: str  # "check" | "dist"
    cells: tuple[Cell, ...]


MATRIX_VARIANTS = ("fixed", "error1", "error2", "buggy", "no-migration")

#: why each was chosen is recorded in BENCHMARK.json and README.md
WORKLOADS: dict[str, Workload] = {
    "c2r2-check": Workload("check", (Cell(2, 2, "fixed"),)),
    "c3r2-sweep": Workload("check", (Cell(3, 2, "fixed", reqs=("1", "2")),)),
    "c3r2-dist": Workload("dist", (Cell(3, 2, "fixed", reqs=("1", "2")),)),
    "c1r4-reduced": Workload("check", (Cell(1, 4, "fixed", reduced=True),)),
    "matrix-small": Workload(
        "check",
        tuple(
            Cell(c, r, v)
            for c, r in ((1, 2), (2, 1), (1, None))
            for v in MATRIX_VARIANTS
        ),
    ),
    # not in BENCHMARK.json: the harness self-test's input
    "smoke": Workload("check", (Cell(1, 1, "fixed"),)),
}


def load_expected(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- outputs -------------------------------------------------------------


def expected_outputs(workload: Workload, expected: dict) -> dict:
    """Every checked output of one run, ``name -> expected value``."""
    out: dict = {}
    for cell in workload.cells:
        counts = expected["counts"][cell.id]
        if workload.kind == "dist":
            for key in ("plain_states", "plain_transitions", "terminal_states"):
                out[f"{cell.id}:{key}"] = counts[key]
            continue
        verdicts = expected["verdicts"][cell.id]
        keys = ["plain_states", "plain_transitions", "deadlocks"]
        if "3.1" in cell.reqs:
            keys += ["probe_states", "probe_transitions"]
        for key in keys:
            out[f"{cell.id}:{key}"] = counts[key]
        for req in cell.reqs:
            out[f"{cell.id}:verdict/{req}"] = verdicts[req]
            if verdicts[req]:
                continue
            # None: violated, but no trace is extracted (Req 4 without lasso)
            steps = counts["trace_steps"].get(req)
            out[f"{cell.id}:trace_steps/{req}"] = steps
            # reduced traces are representatives only, so not replayed
            if steps is not None and not cell.reduced:
                out[f"{cell.id}:replay/{req}"] = True
    return out


_DEADLOCKS = re.compile(r"^(\d+) deadlock state")


def _deadlock_count(report):
    """Improper terminal states as Requirement 1 reports them."""
    if report.holds:
        return 0
    m = _DEADLOCKS.match(report.detail)
    return int(m.group(1)) if m else None


def _replays(cell: Cell, labels) -> bool:
    from repro.analysis.simulator import Simulator
    from repro.errors import TraceError
    from repro.jackal.requirements import build_model

    model = build_model(cell.config(), cell.variant(), probes=False)
    try:
        Simulator(model).run(labels)
    except TraceError:
        return False
    return True


def observed_check_outputs(cell: Cell, reports: dict) -> dict:
    """The outputs of one ``check_all_requirements`` result."""
    out = {
        f"{cell.id}:plain_states": reports["1"].lts_states,
        f"{cell.id}:plain_transitions": reports["1"].lts_transitions,
        f"{cell.id}:deadlocks": _deadlock_count(reports["1"]),
    }
    if "3.1" in reports:
        out[f"{cell.id}:probe_states"] = reports["3.1"].lts_states
        out[f"{cell.id}:probe_transitions"] = reports["3.1"].lts_transitions
    for req, rep in reports.items():
        out[f"{cell.id}:verdict/{req}"] = rep.holds
        if rep.holds:
            continue
        if rep.trace is None:
            out[f"{cell.id}:trace_steps/{req}"] = None
            continue
        out[f"{cell.id}:trace_steps/{req}"] = len(rep.trace.labels)
        if not cell.reduced:
            out[f"{cell.id}:replay/{req}"] = _replays(cell, rep.trace.labels)
    return out


def observed_dist_outputs(cell: Cell, stats) -> dict:
    return {
        f"{cell.id}:plain_states": stats.states,
        f"{cell.id}:plain_transitions": stats.transitions,
        f"{cell.id}:terminal_states": stats.deadlocks,
    }


_MISSING = object()


def wrong_outputs(expected: dict, observed: dict) -> list[str]:
    """Names of the expected outputs the run got wrong or did not give."""
    return [
        name
        for name, want in expected.items()
        if observed.get(name, _MISSING) != want
    ]


# -- set-up and the timed calls ------------------------------------------


def set_up(name: str, seed: int) -> dict:
    """Everything a run needs before its timed region starts."""
    workload = WORKLOADS[name]
    cells = list(workload.cells)
    random.Random(seed).shuffle(cells)
    inputs = {
        "workload": workload,
        "cells": cells,
        "certificates": {},
        "certify_s": 0.0,
    }
    for cell in cells:
        if cell.reduced:
            from repro.errors import ReproError
            from repro.staticcheck.symmetry import certify

            t0 = time.perf_counter()
            cert, findings = certify(cell.config(), cell.variant())
            inputs["certify_s"] += time.perf_counter() - t0
            if cert is None:
                raise ReproError(f"certification refused: {findings}")
            inputs["certificates"][cell.id] = cert
    if workload.kind == "dist":
        from repro.jackal.requirements import build_model
        from repro.lts.distributed import distributed_explore

        (cell,) = cells
        inputs["model"] = build_model(
            cell.config(), cell.variant(), probes=False
        )
        inputs["entry"] = distributed_explore
    else:
        from repro.jackal.requirements import check_all_requirements

        inputs["entry"] = check_all_requirements
    return inputs


def run_untraced(inputs: dict) -> dict:
    """The timed region: the program's own entry point, nothing else."""
    entry = inputs["entry"]
    if inputs["workload"].kind == "dist":
        _lts, stats = entry(inputs["model"], n_workers=DIST_WORKERS)
        return {inputs["cells"][0].id: stats}
    return {
        cell.id: entry(
            cell.config(),
            cell.variant(),
            skip=cell.skip,
            certificate=inputs["certificates"].get(cell.id),
        )
        for cell in inputs["cells"]
    }


def observed_outputs(inputs: dict, results: dict) -> dict:
    observe = (
        observed_dist_outputs
        if inputs["workload"].kind == "dist"
        else observed_check_outputs
    )
    out: dict = {}
    for cell in inputs["cells"]:
        out.update(observe(cell, results[cell.id]))
    return out
