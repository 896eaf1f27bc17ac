"""The traced pass: the same pipeline step by step, one span per layer call.

Nothing inside ``repro`` is instrumented. The harness performs what
``check_all_requirements`` performs, one public call at a time, and
records a span around each call; those calls are the *traced wall* and
their sum must account for it. Afterwards a set of micro-passes times
single layers over the states and LTSs the pipeline produced
(successor generation, the codec, each Requirement-4 formula, trace
extraction, the reduction's own steps). Micro-passes sit outside the
traced wall.

Span names are ``<module>.<step>``; spans named ``bench.*`` only group.
"""

from __future__ import annotations

import os
import random
import resource
import statistics
import time
from contextlib import contextmanager

from workloads import DIST_WORKERS, Cell

TRACED_WALL = "bench.traced_wall"


class Spans:
    """In-memory span recorder; rows are dumped when the child exits."""

    def __init__(self, workload: str):
        self.workload = workload
        self.rows: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        row = {
            "id": len(self.rows),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
        }
        self.rows.append(row)
        self._open.append(row["id"])
        try:
            yield row
        finally:
            row["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [r["end"] - r["start"] for r in self.rows if r["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))


def unattributed_share(rows: list[dict]) -> float:
    """(traced wall - its top-level layer spans) / traced wall.

    A layer span is top-level when only ``bench.*`` grouping spans lie
    between it and the traced wall.
    """
    by_id = {r["id"]: r for r in rows}
    wall = attributed = 0.0
    for row in rows:
        if row["name"] == TRACED_WALL:
            wall += row["end"] - row["start"]
        if row["name"].startswith("bench."):
            continue
        parent = by_id.get(row["parent"])
        while parent is not None and parent["name"] != TRACED_WALL:
            if not parent["name"].startswith("bench."):
                break  # nested in another layer span
            parent = by_id.get(parent["parent"])
        else:
            if parent is not None:
                attributed += row["end"] - row["start"]
    return (wall - attributed) / wall


_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_bytes() -> int:
    """Resident set right now (``ru_maxrss`` only ever grows)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * _PAGE
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


# -- the pipeline, step by step -------------------------------------------


def _traced_check(spans: Spans, cell: Cell, cert, acc: dict):
    """``check_all_requirements`` as separate calls, ``lts=`` passed on."""
    from repro.jackal import requirements as rq

    cfg, var = cell.config(), cell.variant()
    reports: dict = {}
    probe = None
    rss0 = _rss_bytes()
    with spans.span(TRACED_WALL):
        with spans.span("lts.engine.plain_sweep"):
            model, plain = rq.build_lts(
                cfg, var, probes=False, keep_states=True, certificate=cert
            )
        acc["sweep_rss_growth"] += max(0, _rss_bytes() - rss0)
        with spans.span("lts.deadlock.req1"):
            reports["1"] = rq.check_requirement_1(
                cfg, var, lts=plain, model=model
            )
        with spans.span("jackal.requirements.req2"):
            reports["2"] = rq.check_requirement_2(cfg, var, lts=plain)
        if "3.1" in cell.reqs:
            with spans.span("lts.engine.probe_sweep"):
                _m, probe = rq.build_lts(
                    cfg, var, probes=True, certificate=cert
                )
            with spans.span("jackal.requirements.req3_1"):
                reports["3.1"] = rq.check_requirement_3_1(cfg, var, lts=probe)
            with spans.span("jackal.requirements.req3_2"):
                reports["3.2"] = rq.check_requirement_3_2(cfg, var, lts=probe)
        if "4" in cell.reqs:
            with spans.span("jackal.requirements.req4"):
                reports["4"] = rq.check_requirement_4(
                    cfg, var, lts=plain, certificate=cert
                )
    acc["states"] += plain.n_states
    acc["transitions"] += plain.n_transitions
    if probe is not None:
        acc["probe_transitions"] += probe.n_transitions
    for rep in reports.values():
        if rep.trace is not None:
            acc["counterexamples"] += 1
            acc["counterexample_steps"] += len(rep.trace.labels)
    return model, plain, probe, reports


# -- micro-passes over what the pipeline produced -------------------------


def _successor_and_codec_passes(spans, model, plain, rng, acc):
    states = list(plain.state_meta.values())
    rng.shuffle(states)
    succ = model.successors_fast
    with spans.span("jackal.model.successors"):
        for state in states:
            succ(state)
    acc["successor_calls"] += len(states)
    codec = model.codec()
    encode, decode = codec.encode, codec.decode
    with spans.span("jackal.codec.encode"):
        keys = [encode(state) for state in states]
    with spans.span("jackal.codec.decode"):
        for key in keys:
            decode(key)
    acc["key_bytes"] = max(acc["key_bytes"], codec.n_bytes)
    return states


def _req4_formula_pass(spans, lts, formulas, acc):
    from repro.mucalc.checker import holds

    for _name, formula in formulas:
        with spans.span("mucalc.checker.holds"):
            holds(lts, formula)
    acc["req4_formulas"] += len(formulas)


def _thread_formulas(cfg):
    from repro.jackal.requirements import formula_4_flush, formula_4_write

    fair = cfg.rounds is None
    out = []
    for tid in range(cfg.n_threads):
        out.append((f"write(t{tid})", formula_4_write(tid, fair=fair)))
        out.append((f"flush(t{tid})", formula_4_flush(tid, fair=fair)))
    return out


def _diagnostics_passes(spans, model, plain, probe, reports):
    """Re-extract each counterexample the pipeline reported, on its own."""
    if not reports["1"].holds:
        from repro.jackal.actions import PROBE_LABELS
        from repro.jackal.model import VIOLATION
        from repro.lts.deadlock import find_deadlocks, shortest_trace_to

        found = find_deadlocks(
            plain,
            ignore_labels=PROBE_LABELS,
            is_valid_end=lambda s: s == VIOLATION or model.is_done_state(s),
        )
        with spans.span("lts.deadlock.trace"):
            shortest_trace_to(plain, found.deadlocks)
    if "3.2" in reports and not reports["3.2"].holds:
        from repro.jackal.requirements import formula_3_2_bad_state
        from repro.mucalc.diagnostics import witness_diamond

        f = formula_3_2_bad_state()
        with spans.span("mucalc.diagnostics.witness"):
            witness_diamond(probe, f.reg, f.inner)
    if "4" in reports and not reports["4"].holds:
        from repro.lts.cycles import find_lasso_avoiding

        progress = [
            lab
            for lab in plain.labels
            if lab.startswith(("writeover", "flushover"))
        ]
        with spans.span("lts.cycles.lasso"):
            find_lasso_avoiding(plain, progress)


def _reduction_passes(spans, cell, cert, model, plain, states, acc):
    """The reduction's own steps, and the unreduced sweep it is judged by."""
    from repro.jackal.requirements import build_model
    from repro.lts.certreduce import ReducedSystem, unfold_full_quotient
    from repro.lts.engine import explore_fast
    from repro.staticcheck.certificates import validate
    from repro.staticcheck.formulasym import (
        licenses_full_quotient,
        requirement4_orbit_formulas,
    )

    cfg, var = cell.config(), cell.variant()
    with spans.span("staticcheck.validate"):
        validate(cert, cfg, var)
    # one wrapper call per swept state repeats the sweep's reduction work
    # exactly, so the wrapper's counters are the sweep's
    reduced = ReducedSystem(
        model, cert, canonical=licenses_full_quotient(cert)
    )
    with spans.span("lts.certreduce.successors"):
        for state in states:
            reduced.successors_fast(state)
    acc["canonical_hits"] += reduced.canonical_hits
    acc["ample_prunes"] += reduced.ample_prunes
    acc["slice_hits"] += reduced.slice_hits
    acc["reduced_states"] += plain.n_states
    with spans.span("lts.certreduce.unfold"):
        unfolded = unfold_full_quotient(
            build_model(cfg, var, probes=False), cert
        )
    acc["unfold_states"] += unfolded.n_states
    fair = cfg.rounds is None
    _req4_formula_pass(
        spans, unfolded, requirement4_orbit_formulas(cfg, fair=fair), acc
    )
    with spans.span("lts.engine.unreduced_sweep"):
        full = explore_fast(
            build_model(cfg, var, probes=False), keep_states=True
        )
    acc["unreduced_states"] += full.n_states


def _micro_check(spans, cell, cert, model, plain, probe, reports, rng, acc):
    with spans.span("bench.micro"):
        states = _successor_and_codec_passes(spans, model, plain, rng, acc)
        if cert is not None:
            _reduction_passes(spans, cell, cert, model, plain, states, acc)
        elif "4" in cell.reqs:
            _req4_formula_pass(
                spans, plain, _thread_formulas(cell.config()), acc
            )
        _diagnostics_passes(spans, model, plain, probe, reports)


# -- entry points ----------------------------------------------------------


def new_accumulator() -> dict:
    return dict.fromkeys(
        (
            "states", "transitions", "probe_transitions", "sweep_rss_growth",
            "successor_calls", "key_bytes", "req4_formulas",
            "counterexamples", "counterexample_steps",
            "canonical_hits", "ample_prunes", "slice_hits", "reduced_states",
            "unfold_states", "unreduced_states",
        ),
        0,
    )


def traced_check(spans: Spans, inputs: dict, seed: int, acc: dict) -> dict:
    """Traced pass of a ``check`` workload; returns the reports per cell."""
    rng = random.Random(seed)
    results = {}
    for cell in inputs["cells"]:
        cert = inputs["certificates"].get(cell.id)
        model, plain, probe, reports = _traced_check(spans, cell, cert, acc)
        _micro_check(spans, cell, cert, model, plain, probe, reports, rng, acc)
        results[cell.id] = reports
    return results


def traced_dist(spans: Spans, inputs: dict, seed: int, acc: dict) -> dict:
    """Traced pass of the distributed workload; returns its stats."""
    from repro.lts.engine import explore_fast

    model = inputs["model"]
    with spans.span(TRACED_WALL):
        with spans.span("lts.distributed.sweep"):
            _lts, stats = inputs["entry"](model, n_workers=DIST_WORKERS)
    with spans.span("bench.micro"):
        rss0 = _rss_bytes()
        with spans.span("lts.engine.plain_sweep"):
            plain = explore_fast(model, keep_states=True)
        acc["sweep_rss_growth"] += max(0, _rss_bytes() - rss0)
        acc["states"] += plain.n_states
        acc["transitions"] += plain.n_transitions
        _successor_and_codec_passes(
            spans, model, plain, random.Random(seed), acc
        )
    acc["dist_stats"] = stats
    return {inputs["cells"][0].id: stats}


def layer_metrics(spans: Spans, acc: dict, certify_s: float) -> dict:
    """Every per-layer metric by name (0 where a layer did not run)."""
    t = spans.total
    reduced = acc["reduced_states"] > 0
    plain_sweep = t("lts.engine.plain_sweep")
    successors = t("jackal.model.successors")
    # the engine's self time: the sweep minus what its system's successor
    # function (the reduction wrapper, where there is one) spends
    swept_successors = t("lts.certreduce.successors") if reduced else successors
    formula_times = spans.durations("mucalc.checker.holds")
    unreduced_sweep = t("lts.engine.unreduced_sweep")
    m = {
        "jackal.model.successors_s": successors,
        "jackal.model.successor_calls": acc["successor_calls"],
        "jackal.model.us_per_call": (
            1e6 * successors / acc["successor_calls"]
            if acc["successor_calls"] else 0
        ),
        "jackal.codec.encode_s": t("jackal.codec.encode"),
        "jackal.codec.decode_s": t("jackal.codec.decode"),
        "jackal.codec.key_bytes": acc["key_bytes"],
        "lts.engine.plain_sweep_s": plain_sweep,
        "lts.engine.probe_sweep_s": t("lts.engine.probe_sweep"),
        "lts.engine.dedup_build_s": plain_sweep - swept_successors,
        "lts.engine.states": acc["states"],
        "lts.engine.transitions": acc["transitions"],
        "lts.engine.probe_transitions": acc["probe_transitions"],
        "lts.engine.bytes_per_state": (
            acc["sweep_rss_growth"] / acc["states"] if acc["states"] else 0
        ),
        "lts.deadlock.req1_s": t("lts.deadlock.req1"),
        "lts.deadlock.trace_s": t("lts.deadlock.trace"),
        "jackal.requirements.req2_s": t("jackal.requirements.req2"),
        "jackal.requirements.req3_1_s": t("jackal.requirements.req3_1"),
        "jackal.requirements.req3_2_s": t("jackal.requirements.req3_2"),
        "jackal.requirements.req4_s": t("jackal.requirements.req4"),
        "jackal.requirements.unattributed_share": unattributed_share(
            spans.rows
        ),
        "mucalc.checker.req4_formulas": acc["req4_formulas"],
        "mucalc.checker.req4_formula_s": (
            statistics.median(formula_times) if formula_times else 0
        ),
        "mucalc.checker.req4_holds_sum_s": sum(formula_times),
        "mucalc.diagnostics.witness_s": t("mucalc.diagnostics.witness"),
        "lts.cycles.lasso_s": t("lts.cycles.lasso"),
        "mucalc.diagnostics.counterexamples": acc["counterexamples"],
        "mucalc.diagnostics.counterexample_steps": acc["counterexample_steps"],
        "staticcheck.certify_s": certify_s,
        "staticcheck.validate_s": t("staticcheck.validate"),
        "lts.certreduce.plain_sweep_s": plain_sweep if reduced else 0,
        "lts.certreduce.probe_sweep_s": (
            t("lts.engine.probe_sweep") if reduced else 0
        ),
        "lts.certreduce.unfold_s": t("lts.certreduce.unfold"),
        "lts.certreduce.unfold_states": acc["unfold_states"],
        "lts.certreduce.states": acc["reduced_states"],
        "lts.certreduce.state_factor": (
            acc["unreduced_states"] / acc["reduced_states"] if reduced else 0
        ),
        "lts.certreduce.time_ratio": (
            plain_sweep / unreduced_sweep if reduced else 0
        ),
        "lts.certreduce.canonical_hits": acc["canonical_hits"],
        "lts.certreduce.ample_prunes": acc["ample_prunes"],
        "lts.certreduce.slice_hits": acc["slice_hits"],
    }
    stats = acc.get("dist_stats")
    m.update({
        "lts.distributed.sweep_s": stats.seconds if stats else 0,
        "lts.distributed.spawn_s": stats.spawn_s if stats else 0,
        "lts.distributed.imbalance": stats.imbalance() if stats else 0,
        "lts.distributed.batches": stats.batches if stats else 0,
        "lts.distributed.worker_deaths": stats.worker_deaths if stats else 0,
        "lts.distributed.redispatched_batches": (
            stats.redispatched_batches if stats else 0
        ),
        "lts.distributed.speedup_vs_engine": (
            plain_sweep / stats.seconds if stats else 0
        ),
    })
    return m
