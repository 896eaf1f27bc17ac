"""Regenerate the ``counts`` section of expected.json from the reference.

    python benchmarks/pipeline/make_expected.py

Run once when a workload is added; ``run.py`` only ever reads the file.
The ``verdicts`` section is written by hand and is never touched here —
the script refuses to write counts if the reference disagrees with it.

Every LTS comes from the reference explorer ``repro.lts.explore.explore``
over ``JackalModel.successors`` (through the reference side of the
reduction wrapper for the certified cell) — never from ``explore_fast``
or ``successors_fast``, the paths the benchmark times.
"""

from __future__ import annotations

import json
import sys

import workloads as wl

sys.path.insert(0, str(wl.ROOT / "src"))


def reference_counts(cell: wl.Cell, verdicts: dict) -> dict:
    from repro.jackal import requirements as rq
    from repro.jackal.model import VIOLATION
    from repro.lts.explore import explore

    cfg, var = cell.config(), cell.variant()
    cert = None
    if cell.reduced:
        from repro.staticcheck.symmetry import certify

        cert, _findings = certify(cfg, var)

    def reference_lts(probes: bool, keep_states: bool):
        model = rq.build_model(cfg, var, probes=probes)
        system = model
        if cert is not None:
            from repro.lts.certreduce import ReducedSystem
            from repro.staticcheck.formulasym import licenses_full_quotient

            system = ReducedSystem(
                model, cert,
                canonical=probes or licenses_full_quotient(cert),
            )
        return model, explore(system, keep_states=keep_states)

    model, plain = reference_lts(probes=False, keep_states=True)
    src, _lbl, _dst = plain.transition_arrays()
    terminal = set(range(plain.n_states)) - set(src)
    deadlocks = [
        s for s in terminal
        if plain.state_meta[s] != VIOLATION
        and not model.is_done_state(plain.state_meta[s])
    ]
    counts = {
        "plain_states": plain.n_states,
        "plain_transitions": plain.n_transitions,
        "terminal_states": len(terminal),
        "deadlocks": len(deadlocks),
    }
    reports = {
        "1": rq.check_requirement_1(cfg, var, lts=plain, model=model),
        "2": rq.check_requirement_2(cfg, var, lts=plain),
    }
    if "3.1" in cell.reqs:
        _m, probe = reference_lts(probes=True, keep_states=False)
        counts["probe_states"] = probe.n_states
        counts["probe_transitions"] = probe.n_transitions
        reports["3.1"] = rq.check_requirement_3_1(cfg, var, lts=probe)
        reports["3.2"] = rq.check_requirement_3_2(cfg, var, lts=probe)
    if "4" in cell.reqs:
        reports["4"] = rq.check_requirement_4(
            cfg, var, lts=plain, certificate=cert
        )
    got = {req: rep.holds for req, rep in reports.items()}
    if got != {req: verdicts[req] for req in cell.reqs}:
        sys.exit(
            f"{cell.id}: the reference decides {got}, the hand-written "
            f"verdicts say {verdicts} — resolve that by hand first"
        )
    counts["trace_steps"] = {
        req: None if rep.trace is None else len(rep.trace.labels)
        for req, rep in reports.items()
        if not rep.holds
    }
    return counts


def main() -> int:
    expected = wl.load_expected(wl.DEFAULT_EXPECTED)
    cells = {
        cell.id: cell
        for workload in wl.WORKLOADS.values()
        for cell in workload.cells
    }
    # one cell id may serve two workloads with different requirement sets
    # (c3r2-sweep / c3r2-dist share theirs); the table keeps them equal
    expected["counts"] = {}
    for cell_id, cell in cells.items():
        print(cell_id, flush=True)
        expected["counts"][cell_id] = reference_counts(
            cell, expected["verdicts"][cell_id]
        )
    # textual splice: the hand-written sections stay byte for byte as written
    marker = ' "counts": '
    text = wl.DEFAULT_EXPECTED.read_text(encoding="utf-8")
    head, found, _old = text.partition(marker)
    if not found:
        sys.exit(f"{wl.DEFAULT_EXPECTED}: no top-level {marker!r} key (last)")
    counts = json.dumps(expected["counts"], indent=1)
    wl.DEFAULT_EXPECTED.write_text(
        f"{head}{marker}{counts}\n}}\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
