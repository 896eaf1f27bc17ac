"""The paper's four requirements as executable checks (Section 5.3/5.4).

1. **Deadlock freeness** — no reachable improper terminal state.
2. **Assertion checking** — no ``assertion_violation(...)`` reachable.
3. **Relaxed cache coherence** — 3.1: at most one home per region
   (``[T*.c_home] F``); 3.2: no *stable* state (no lock held, queues
   empty) in which two processors hold non-home copies.
4. **Liveness** — writes and flushes complete: the paper's exact
   inevitability formulas on bounded-round models, or the fair
   reformulation (completion stays reachable) on cyclic models.

Each check returns a :class:`RequirementReport` carrying the verdict,
the sizes of the LTS analysed, and a diagnostic trace when the
requirement fails — the reproduction of the paper's error traces.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.jackal.actions import ASSERTION_PREFIX, PROBE_LABELS, Labels
from repro.obs.core import current as _current_obs
from repro.jackal.model import VIOLATION, JackalModel
from repro.jackal.params import Config, ProtocolVariant
from repro.lts.deadlock import find_deadlocks, shortest_trace_to
from repro.lts.engine import explore_fast
from repro.lts.lts import LTS
from repro.lts.trace import Trace
from repro.mucalc.checker import check_many, holds
from repro.mucalc.diagnostics import counterexample_box, witness_diamond
from repro.mucalc.syntax import (
    ActLit,
    And,
    AnyAct,
    Box,
    Diamond,
    Ff,
    Formula,
    Mu,
    NotAct,
    RAct,
    RSeq,
    RStar,
    Tt,
    Var,
)


@dataclass
class RequirementReport:
    """Outcome of one requirement check."""

    requirement: str
    holds: bool
    detail: str
    trace: Trace | None = None
    lts_states: int = 0
    lts_transitions: int = 0

    def summary(self) -> str:
        """One-line verdict."""
        verdict = "HOLDS" if self.holds else "VIOLATED"
        extra = f" — {self.detail}" if self.detail else ""
        return f"requirement {self.requirement}: {verdict}{extra}"


def _observed(fn):
    """Record each requirement check on the ambient flight recorder.

    Emits one ``check`` event (requirement id, verdict, LTS sizes,
    wall seconds) and bumps the check counters; free when nothing is
    recording.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        obs = _current_obs()
        if not obs.enabled:
            return fn(*args, **kwargs)
        t0 = time.perf_counter()
        rep = fn(*args, **kwargs)
        obs.tracer.emit(
            "check", requirement=rep.requirement, holds=rep.holds,
            states=rep.lts_states, transitions=rep.lts_transitions,
            seconds=round(time.perf_counter() - t0, 6),
        )
        obs.metrics.counter(
            "repro_checks_total",
            verdict="holds" if rep.holds else "violated",
        ).inc()
        return rep

    return wrapper


def build_model(
    config: Config, variant: ProtocolVariant, *, probes: bool
) -> JackalModel:
    """A model with the probe self-loops forced on or off.

    Probes are needed by Requirement 3 and poisonous to Requirement 4
    (a probe self-loop is an infinite path avoiding every thread
    action), so each stand-alone check selects its own setting. The
    two models have the same states: :func:`check_all_requirements`
    explores the probe one and drops the self-loops for the rest.
    """
    cfg = replace(config, with_probes=probes)
    return JackalModel(cfg, variant)


def build_lts(
    config: Config,
    variant: ProtocolVariant,
    *,
    probes: bool,
    max_states: int | None = None,
    keep_states: bool = False,
    certificate=None,
) -> tuple[JackalModel, LTS]:
    """Explore the protocol into an explicit LTS.

    Generation goes through the fast engine; BFS numbering is identical
    to :func:`repro.lts.explore.explore`, so shortest-trace extraction
    is unaffected.

    With a reduction ``certificate`` the sweep runs on the certified
    reduced view (:mod:`repro.lts.certreduce`): ample pruning, the
    certified field slice, and — when the certificate's ``formulas``
    section licenses it — the full symmetry quotient. The probe LTS
    (Requirement 3) always quotients (its formulas are index-free);
    the plain LTS also carries the per-thread Requirement-4
    inevitability formulas, which individually are *not*
    quotient-invariant — a schema-v3 certificate with
    ``plain_quotient: "full"`` proves their families orbit-closed, so
    the driver checks their symmetrized orbit conjunctions on the full
    quotient instead of falling back to ample pruning only. Verdicts
    are preserved either way; traces extracted from a reduced LTS are
    representatives up to the certified commutations and renamings,
    not necessarily the shortest concrete run.
    """
    model = build_model(config, variant, probes=probes)
    system = model
    if certificate is not None:
        from repro.lts.certreduce import ReducedSystem
        from repro.staticcheck.formulasym import licenses_full_quotient

        system = ReducedSystem(
            model,
            certificate,
            canonical=probes or licenses_full_quotient(certificate),
        )
    lts = explore_fast(system, max_states=max_states, keep_states=keep_states)
    return model, lts


# ---------------------------------------------------------------------------
# requirement 1: deadlock freeness
# ---------------------------------------------------------------------------


@_observed
def check_requirement_1(
    config: Config,
    variant: ProtocolVariant = ProtocolVariant.fixed(),
    *,
    max_states: int | None = None,
    lts: LTS | None = None,
    model: JackalModel | None = None,
    certificate=None,
) -> RequirementReport:
    """The protocol never wedges (improper terminal states unreachable)."""
    if lts is None or model is None:
        model, lts = build_lts(
            config, variant, probes=False, max_states=max_states,
            keep_states=True, certificate=certificate,
        )
    # assertion-violation sink states belong to Requirement 2, not here
    report = find_deadlocks(
        lts,
        ignore_labels=PROBE_LABELS,
        is_valid_end=lambda s: s == VIOLATION or model.is_done_state(s),
    )
    return RequirementReport(
        requirement="1 (deadlock freeness)",
        holds=report.deadlock_free,
        detail=report.summary(),
        trace=report.shortest_trace,
        lts_states=lts.n_states,
        lts_transitions=lts.n_transitions,
    )


@_observed
def check_requirement_1_bitstate(
    config: Config,
    variant: ProtocolVariant = ProtocolVariant.fixed(),
    *,
    table_bytes: int = 1 << 24,
    max_states: int | None = None,
) -> RequirementReport:
    """Approximate deadlock search by bitstate (supertrace) hashing.

    For configurations whose exact LTS exceeds memory — the situation
    the paper faced with its third configuration and the muCRL
    toolset's "state-bit hashing" addresses. Hash collisions can only
    *omit* states, so a reported deadlock is real, while a clean sweep
    is strong (not absolute) evidence of deadlock freedom; the fill
    ratio in the detail line quantifies the omission risk.
    """
    from repro.lts.bitstate import bitstate_explore

    model = build_model(config, variant, probes=False)
    res = bitstate_explore(
        model,
        table_bytes=table_bytes,
        max_states=max_states,
        is_valid_end=lambda s: s == VIOLATION or model.is_done_state(s),
    )
    detail = (
        f"~{res.visited:,} states swept, {res.deadlocks} improper "
        f"terminal(s), fill {res.fill_ratio:.4f}"
    )
    return RequirementReport(
        requirement="1 (deadlock freeness, bitstate approximation)",
        holds=res.deadlocks == 0,
        detail=detail,
        lts_states=res.visited,
        lts_transitions=res.transitions,
    )


# ---------------------------------------------------------------------------
# requirement 2: assertions
# ---------------------------------------------------------------------------


@_observed
def check_requirement_2(
    config: Config,
    variant: ProtocolVariant = ProtocolVariant.fixed(),
    *,
    max_states: int | None = None,
    lts: LTS | None = None,
    certificate=None,
) -> RequirementReport:
    """No assertion from the protocol description is violated."""
    if lts is None:
        _model, lts = build_lts(
            config, variant, probes=False, max_states=max_states,
            certificate=certificate,
        )
    violated = [lab for lab in lts.labels if lab.startswith(ASSERTION_PREFIX)]
    trace = None
    if violated:
        # shortest trace to any state enabling an assertion violation
        src, lbl, _dst = lts.columns()
        is_violation = lts.label_mask(
            lambda lab: lab.startswith(ASSERTION_PREFIX)
        )
        trace = shortest_trace_to(lts, np.unique(src[is_violation[lbl]]))
    return RequirementReport(
        requirement="2 (assertions)",
        holds=not violated,
        detail=("violated: " + ", ".join(sorted(violated))) if violated else "",
        trace=trace,
        lts_states=lts.n_states,
        lts_transitions=lts.n_transitions,
    )


# ---------------------------------------------------------------------------
# requirement 3: relaxed cache coherence
# ---------------------------------------------------------------------------


def formula_3_1() -> Formula:
    """The paper's 3.1: ``[T*.c_home] F``."""
    return Box(RSeq(RStar(RAct(AnyAct())), RAct(ActLit("c_home"))), Ff())


def formula_3_2_bad_state() -> Formula:
    """The paper's 3.2 existence formula:
    ``<T*> (<c_copy>T /\\ <lock_empty>T /\\ <homequeue_empty>T /\\
    <remotequeue_empty>T)`` — requirement 3.2 holds iff this is FALSE."""
    probes = And(
        And(
            Diamond(RAct(ActLit("c_copy")), Tt()),
            Diamond(RAct(ActLit("lock_empty")), Tt()),
        ),
        And(
            Diamond(RAct(ActLit("homequeue_empty")), Tt()),
            Diamond(RAct(ActLit("remotequeue_empty")), Tt()),
        ),
    )
    return Diamond(RStar(RAct(AnyAct())), probes)


@_observed
def check_requirement_3_1(
    config: Config,
    variant: ProtocolVariant = ProtocolVariant.fixed(),
    *,
    max_states: int | None = None,
    lts: LTS | None = None,
    certificate=None,
) -> RequirementReport:
    """Each region has at most one home node at any time."""
    if lts is None:
        _model, lts = build_lts(
            config, variant, probes=True, max_states=max_states,
            certificate=certificate,
        )
    f = formula_3_1()
    ok = holds(lts, f)
    trace = None
    if not ok:
        trace = counterexample_box(lts, f.reg, f.inner)
    return RequirementReport(
        requirement="3.1 (at most one home)",
        holds=ok,
        detail="" if ok else "two processors simultaneously claim the home",
        trace=trace,
        lts_states=lts.n_states,
        lts_transitions=lts.n_transitions,
    )


@_observed
def check_requirement_3_2(
    config: Config,
    variant: ProtocolVariant = ProtocolVariant.fixed(),
    *,
    max_states: int | None = None,
    lts: LTS | None = None,
    certificate=None,
) -> RequirementReport:
    """In a stable state a region has at most ``n - 1`` copies.

    As in the paper, only meaningful for two-processor configurations
    (``c_copy`` there means the home was lost).
    """
    if config.n_processors != 2:
        return RequirementReport(
            requirement="3.2 (bounded copies when stable)",
            holds=True,
            detail="skipped: formulated (as in the paper) for 2 processors",
        )
    if lts is None:
        _model, lts = build_lts(
            config, variant, probes=True, max_states=max_states,
            certificate=certificate,
        )
    f = formula_3_2_bad_state()
    bad_reachable = holds(lts, f)
    trace = None
    if bad_reachable:
        trace = witness_diamond(lts, f.reg, f.inner)
    return RequirementReport(
        requirement="3.2 (bounded copies when stable)",
        holds=not bad_reachable,
        detail=(
            "stable state with no home reached" if bad_reachable else ""
        ),
        trace=trace,
        lts_states=lts.n_states,
        lts_transitions=lts.n_transitions,
    )


# ---------------------------------------------------------------------------
# requirement 4: liveness
# ---------------------------------------------------------------------------


def formula_4_write(tid: int, *, fair: bool = False) -> Formula:
    """The paper's 4.1 for thread ``tid``:
    ``[T*.write(t)] mu X. (<T>T /\\ [not writeover(t)] X)``.

    With ``fair=True``, the fair reformulation for cyclic models:
    ``[T*.write(t).(not writeover(t))*] <(not writeover(t))*.writeover(t)> T``
    (completion remains reachable while it has not happened).
    """
    return _inevitability(Labels.write(tid), Labels.writeover(tid), fair)


def formula_4_flush(tid: int, *, fair: bool = False) -> Formula:
    """The paper's 4.2 for thread ``tid`` (flush completion)."""
    return _inevitability(Labels.flush(tid), Labels.flushover(tid), fair)


def _inevitability(start: str, finish: str, fair: bool) -> Formula:
    t_star = RStar(RAct(AnyAct()))
    after_start = RSeq(t_star, RAct(ActLit(start)))
    not_finish = RAct(NotAct(ActLit(finish)))
    if fair:
        pending = RSeq(after_start, RStar(not_finish))
        can_finish = Diamond(
            RSeq(RStar(not_finish), RAct(ActLit(finish))), Tt()
        )
        return Box(pending, can_finish)
    inner = Mu(
        "X",
        And(Diamond(RAct(AnyAct()), Tt()), Box(not_finish, Var("X"))),
    )
    return Box(after_start, inner)


@_observed
def check_requirement_4(
    config: Config,
    variant: ProtocolVariant = ProtocolVariant.fixed(),
    *,
    max_states: int | None = None,
    lts: LTS | None = None,
    certificate=None,
) -> RequirementReport:
    """Writes and flushes eventually complete for every thread.

    On failure the report carries a *lasso* witness when one exists: a
    prefix plus an unproductive cycle — the "request bounced around the
    network forever" the paper's Requirement 4 forbids, rendered as a
    concrete run (the flush storm of Error 2 shows up this way).

    With a certificate whose ``formulas`` section licenses the full
    quotient, the sweep itself takes the full symmetry quotient (that
    is where the state-space win is), and the per-thread formulas are
    evaluated on its exact *group-unfolding*
    (:func:`repro.lts.certreduce.unfold_full_quotient`): quotient edges
    carry their winning permutations, so the unfolding reconstructs the
    concrete per-thread frames the quotient LTS itself merges away —
    per-thread labels like ``write(t0)`` are not decidable on the
    quotient directly, even via their group-invariant orbit
    conjunctions. Failure attribution is then per certified thread
    orbit (``write({t0,t1})``).
    """
    fair = config.rounds is None
    quotient = False
    if certificate is not None:
        from repro.staticcheck.formulasym import licenses_full_quotient

        quotient = licenses_full_quotient(certificate)
    if lts is None:
        _model, lts = build_lts(
            config, variant, probes=False, max_states=max_states,
            certificate=certificate,
        )
    if quotient:
        from repro.lts.certreduce import unfold_full_quotient
        from repro.staticcheck.formulasym import requirement4_orbit_formulas

        checks = requirement4_orbit_formulas(config, fair=fair)
        eval_lts = unfold_full_quotient(
            build_model(config, variant, probes=False), certificate
        )
    else:
        checks = []
        for tid in range(config.n_threads):
            checks.append(
                (f"write(t{tid})", formula_4_write(tid, fair=fair))
            )
            checks.append(
                (f"flush(t{tid})", formula_4_flush(tid, fair=fair))
            )
        eval_lts = lts
    # one evaluation context for the whole battery
    verdicts = check_many(eval_lts, [f for _name, f in checks])
    failures = [name for (name, _f), ok in zip(checks, verdicts) if not ok]
    trace = None
    if failures:
        from repro.lts.cycles import find_lasso_avoiding

        progress = [
            lab
            for lab in eval_lts.labels
            if lab.startswith(("writeover", "flushover"))
        ]
        lasso = find_lasso_avoiding(eval_lts, progress)
        if lasso is not None:
            trace = Trace(lasso.prefix.labels + lasso.cycle.labels)
    mode = "fair" if fair else "exact"
    if quotient:
        mode += ", full quotient"
    return RequirementReport(
        requirement=f"4 (liveness, {mode})",
        holds=not failures,
        detail=("not inevitable: " + ", ".join(failures)) if failures else "",
        trace=trace,
        lts_states=lts.n_states,
        lts_transitions=lts.n_transitions,
    )


# ---------------------------------------------------------------------------
# all together
# ---------------------------------------------------------------------------


def check_all_requirements(
    config: Config,
    variant: ProtocolVariant = ProtocolVariant.fixed(),
    *,
    max_states: int | None = None,
    skip: tuple[str, ...] = (),
    certificate=None,
) -> dict[str, RequirementReport]:
    """Run requirements 1-4 on one exploration of the model.

    ``skip`` may name requirement keys (``"1"``, ``"2"``, ``"3.1"``,
    ``"3.2"``, ``"4"``) to omit — the paper could only check 1 and 2 on
    its third configuration.

    As in the paper (one LTS per configuration, Table 8), the model is
    swept once: the probe self-loops come after the protocol moves of a
    state and lead nowhere new, so the probe sweep numbers the states of
    the plain one in the same order, and the plain LTS — Requirement 4
    cannot be decided with the self-loops in — is the probe LTS minus
    the probe rows (:meth:`~repro.lts.lts.LTS.without_labels`). Nothing
    is swept for a requirement that reads no LTS (3.2 off two
    processors), and only the plain model when Requirement 3 is skipped.

    Under a reduction ``certificate`` (see :func:`build_lts` for which
    reduction each LTS can take) the two LTSs are different graphs —
    the probe self-loops are visible to the ample-set condition and the
    plain LTS may not take the full quotient — so each is swept.
    """
    wanted = {"1", "2", "3.1", "3.2", "4"} - set(skip)
    needs_plain = bool(wanted & {"1", "2", "4"})
    needs_probe = "3.1" in wanted or (
        "3.2" in wanted and config.n_processors == 2
    )
    out: dict[str, RequirementReport] = {}
    model = plain_lts = probe_lts = None
    if certificate is None and needs_plain and needs_probe:
        model, probe_lts = build_lts(
            config, variant, probes=True, max_states=max_states,
            keep_states=True,
        )
        plain_lts = _without_probes(probe_lts)
    elif needs_plain:
        model, plain_lts = build_lts(
            config, variant, probes=False, max_states=max_states,
            keep_states=True, certificate=certificate,
        )
    if "1" in wanted:
        out["1"] = check_requirement_1(
            config, variant, lts=plain_lts, model=model
        )
    # only Requirement 1 reads the per-state tuples, the bulk of
    # resident memory; a derived plain LTS shares the probe LTS's dict
    for lts in (plain_lts, probe_lts):
        if lts is not None:
            lts.state_meta = {}
    if "2" in wanted:
        out["2"] = check_requirement_2(config, variant, lts=plain_lts)
    if needs_probe and probe_lts is None:
        _m, probe_lts = build_lts(
            config, variant, probes=True, max_states=max_states,
            certificate=certificate,
        )
    if "3.1" in wanted:
        out["3.1"] = check_requirement_3_1(config, variant, lts=probe_lts)
    if "3.2" in wanted:
        out["3.2"] = check_requirement_3_2(config, variant, lts=probe_lts)
    # nothing below reads the probe LTS: free it before Requirement 4
    del probe_lts
    if "4" in wanted:
        out["4"] = check_requirement_4(
            config, variant, lts=plain_lts, certificate=certificate
        )
    return out


def _without_probes(probe_lts: LTS) -> LTS:
    """The plain LTS of a probe sweep, with an ``lts_derive`` trace event."""
    t0 = time.perf_counter()
    plain = probe_lts.without_labels(PROBE_LABELS)
    obs = _current_obs()
    if obs.enabled:
        obs.tracer.emit(
            "lts_derive", kept=plain.n_transitions,
            dropped=probe_lts.n_transitions - plain.n_transitions,
            seconds=round(time.perf_counter() - t0, 6),
        )
    return plain
