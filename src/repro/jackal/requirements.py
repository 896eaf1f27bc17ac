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
There is one plan, :func:`check_all_requirements`: a stand-alone
``check_requirement_X(config, variant)`` is that plan with the other
four requirements skipped, and ``check_requirement_X(..., lts=L)``
decides on ``L`` alone. The formulas are the paper's text, parsed.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.jackal.actions import ASSERTION_PREFIX, PROBE_LABELS, Labels
from repro.obs.core import current as _current_tracer
from repro.jackal.model import VIOLATION, JackalModel
from repro.jackal.params import Config, ProtocolVariant
from repro.lts.deadlock import (
    DeadlockReport,
    find_deadlocks,
    shortest_trace_to,
)
from repro.lts.engine import SearchTree, explore_fast, search_tree
from repro.lts.lts import LTS
from repro.lts.trace import Trace
from repro.mucalc.checker import check_many, holds
from repro.mucalc.diagnostics import counterexample_box, witness_diamond
from repro.mucalc.parser import parse_formula

#: the requirement keys of :func:`check_all_requirements`, in report order
REQUIREMENTS = ("1", "2", "3.1", "3.2", "4")

#: the paper's formulas (§5.4.3, §5.4.4) as DESIGN.md quotes them. 3.2's
#: conjunction is parenthesised into the balanced tree the certificates'
#: ``formulas`` section fingerprints; Requirement 4 is per request
#: ``start`` and its completion ``finish``, fair on cyclic models
#: (completion stays reachable while it has not happened)
R3_1 = "[T*.c_home] F"
R3_2_BAD_STATE = (
    "<T*> ((<c_copy>T /\\ <lock_empty>T) /\\ "
    "(<homequeue_empty>T /\\ <remotequeue_empty>T))"
)
R4_EXACT = "[T*.{start}] mu X. (<T>T /\\ [not {finish}] X)"
R4_FAIR = "[T*.{start}.(not {finish})*] <(not {finish})*.{finish}> T"


@dataclass
class RequirementReport:
    """Outcome of one requirement check."""

    requirement: str
    #: ``None`` when the requirement was not checked on this
    #: configuration — neither a pass nor a failure
    holds: bool | None
    detail: str
    trace: Trace | None = None
    lts_states: int = 0
    lts_transitions: int = 0

    @property
    def verdict(self) -> str:
        """``HOLDS``, ``VIOLATED`` or ``NOT CHECKED``."""
        if self.holds is None:
            return "NOT CHECKED"
        return "HOLDS" if self.holds else "VIOLATED"

    def summary(self) -> str:
        """One-line verdict."""
        extra = f" — {self.detail}" if self.detail else ""
        return f"requirement {self.requirement}: {self.verdict}{extra}"


def _observed(fn):
    """Record each decided requirement on the ambient flight recorder.

    Emits one ``check`` event (requirement id, verdict, LTS sizes,
    wall seconds of the decision); free when nothing is recording.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = _current_tracer()
        if not tracer.enabled:
            return fn(*args, **kwargs)
        t0 = time.perf_counter()
        rep = fn(*args, **kwargs)
        tracer.emit(
            "check", requirement=rep.requirement, holds=rep.holds,
            states=rep.lts_states, transitions=rep.lts_transitions,
            seconds=round(time.perf_counter() - t0, 6),
        )
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
    _validated: bool = False,
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
    model, system = _system(
        config, variant, probes=probes, certificate=certificate,
        _validated=_validated,
    )
    if system is not model:
        return model, system.sweep(
            max_states=max_states, keep_states=keep_states
        )
    lts = explore_fast(system, max_states=max_states, keep_states=keep_states)
    return model, lts


def _system(config, variant, *, probes, certificate, _validated):
    """The model, and what :func:`build_lts` sweeps: the model itself,
    or its certified reduced view."""
    model = build_model(config, variant, probes=probes)
    if certificate is None:
        return model, model
    from repro.lts.certreduce import ReducedSystem
    from repro.staticcheck.formulasym import licenses_full_quotient

    return model, ReducedSystem(
        model,
        certificate,
        canonical=probes or licenses_full_quotient(certificate),
        _validated=_validated,
    )


# ---------------------------------------------------------------------------
# requirement 1: deadlock freeness
# ---------------------------------------------------------------------------


def check_requirement_1(
    config: Config,
    variant: ProtocolVariant = ProtocolVariant.fixed(),
    *,
    max_states: int | None = None,
    lts: LTS | None = None,
    model: JackalModel | None = None,
    certificate=None,
) -> RequirementReport:
    """The protocol never wedges (improper terminal states unreachable).

    Without ``lts`` this is :func:`check_all_requirements` for 1 alone,
    decided inside the sweep. With it, the check reads ``lts`` and
    ``model`` — built (not swept) when missing — for which terminal
    states are proper ends.
    """
    if lts is None:
        return _planned("1", config, variant, max_states, certificate)
    if model is None:
        model = build_model(config, variant, probes=False)
    return _requirement_1_on(lts, model)


@_observed
def _requirement_1_on(lts, model) -> RequirementReport:
    report = find_deadlocks(
        lts, ignore_labels=PROBE_LABELS, is_valid_end=_valid_end(model)
    )
    return _report_1(report, lts.n_states, lts.n_transitions)


def _valid_end(model: JackalModel):
    """Proper termination: every thread done. The assertion-violation
    sink is one too — it belongs to Requirement 2, not here."""
    return lambda s: s == VIOLATION or model.is_done_state(s)


def _report_1(report, n_states: int, n_transitions: int) -> RequirementReport:
    return RequirementReport(
        requirement="1 (deadlock freeness)",
        holds=report.deadlock_free,
        detail=report.summary(),
        trace=report.shortest_trace,
        lts_states=n_states,
        lts_transitions=n_transitions,
    )


# ---------------------------------------------------------------------------
# requirement 2: assertions
# ---------------------------------------------------------------------------


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
        return _planned("2", config, variant, max_states, certificate)
    return _requirement_2_on(lts)


@_observed
def _requirement_2_on(lts) -> RequirementReport:
    violated = [lab for lab in lts.labels if _is_assertion(lab)]
    trace = None
    if violated:
        # shortest trace to any state enabling an assertion violation
        src, lbl, _dst = lts.columns()
        is_violation = lts.label_mask(_is_assertion)
        trace = shortest_trace_to(lts, np.unique(src[is_violation[lbl]]))
    return _report_2(violated, trace, lts.n_states, lts.n_transitions)


def _is_assertion(label: str) -> bool:
    return label.startswith(ASSERTION_PREFIX)


def _report_2(violated, trace, n_states: int, n_transitions: int):
    return RequirementReport(
        requirement="2 (assertions)",
        holds=not violated,
        detail=("violated: " + ", ".join(sorted(violated))) if violated else "",
        trace=trace,
        lts_states=n_states,
        lts_transitions=n_transitions,
    )


# ---------------------------------------------------------------------------
# requirement 3: relaxed cache coherence
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def formula_3_1():
    """The paper's 3.1, :data:`R3_1`."""
    return parse_formula(R3_1)


@functools.lru_cache(maxsize=None)
def formula_3_2_bad_state():
    """The paper's 3.2 existence formula, :data:`R3_2_BAD_STATE` —
    requirement 3.2 holds iff this is FALSE."""
    return parse_formula(R3_2_BAD_STATE)


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
        return _planned("3.1", config, variant, max_states, certificate)
    return _requirement_3_1_on(lts)


@_observed
def _requirement_3_1_on(lts) -> RequirementReport:
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
    (``c_copy`` there means the home was lost); on any other the report
    says so with ``holds=None``.
    """
    if config.n_processors != 2:
        return _not_checked_3_2()
    if lts is None:
        return _planned("3.2", config, variant, max_states, certificate)
    return _requirement_3_2_on(lts)


@_observed
def _not_checked_3_2() -> RequirementReport:
    return RequirementReport(
        requirement="3.2 (bounded copies when stable)",
        holds=None,
        detail="skipped: formulated (as in the paper) for 2 processors",
    )


@_observed
def _requirement_3_2_on(lts) -> RequirementReport:
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


@functools.lru_cache(maxsize=None)
def formula_4_write(tid: int, *, fair: bool = False):
    """The paper's 4.1 for thread ``tid``, :data:`R4_EXACT` of
    ``write(t)`` and ``writeover(t)`` (:data:`R4_FAIR` with ``fair``)."""
    text = R4_FAIR if fair else R4_EXACT
    return parse_formula(
        text.format(start=Labels.write(tid), finish=Labels.writeover(tid))
    )


@functools.lru_cache(maxsize=None)
def formula_4_flush(tid: int, *, fair: bool = False):
    """The paper's 4.2 for thread ``tid`` (flush completion)."""
    text = R4_FAIR if fair else R4_EXACT
    return parse_formula(
        text.format(start=Labels.flush(tid), finish=Labels.flushover(tid))
    )


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
    evaluated on its *group-unfolding*
    (:func:`repro.lts.certreduce.unfold_quotient`): quotient edges
    carry their winning permutations, so the unfolding reconstructs the
    concrete per-thread frames the quotient LTS itself merges away —
    per-thread labels like ``write(t0)`` are not decidable on the
    quotient directly, even via their group-invariant orbit
    conjunctions. Failure attribution is then per certified thread
    orbit (``write({t0,t1})``).
    """
    if lts is None:
        return _planned("4", config, variant, max_states, certificate)
    return _requirement_4_on(config, variant, lts, certificate)


@_observed
def _requirement_4_on(config, variant, lts, certificate) -> RequirementReport:
    fair = config.rounds is None
    quotient = False
    if certificate is not None:
        from repro.staticcheck.formulasym import licenses_full_quotient

        quotient = licenses_full_quotient(certificate)
    if quotient:
        from repro.lts.certreduce import (
            QuotientLTS,
            unfold_full_quotient,
            unfold_quotient,
        )
        from repro.staticcheck.formulasym import requirement4_orbit_formulas

        checks = requirement4_orbit_formulas(config, fair=fair)
        if isinstance(lts, QuotientLTS):
            eval_lts = unfold_quotient(lts, certificate)
        else:
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

    When no wanted requirement reads an LTS (3.1, 4, and 3.2 on two
    processors are skipped — the paper's configuration-3 check),
    Requirements 1 and 2 are decided inside the sweep, which stores no
    transition (:func:`~repro.lts.engine.search_tree`): same reports,
    same counts, same shortest traces as from the plain LTS.

    Under a reduction ``certificate`` (see :func:`build_lts` for which
    reduction each LTS can take) the two LTSs are different graphs —
    the probe self-loops are visible to the ample-set condition and the
    plain LTS may not take the full quotient — so each is swept.
    """
    wanted = set(REQUIREMENTS) - set(skip)
    needs_plain = bool(wanted & {"1", "2", "4"})
    needs_probe = "3.1" in wanted or (
        "3.2" in wanted and config.n_processors == 2
    )
    out: dict[str, RequirementReport] = {}
    model = plain_lts = probe_lts = None
    if certificate is not None:
        from repro.lts.certreduce import require_valid

        require_valid(certificate, config, variant)
    if not needs_probe and "4" not in wanted:
        if needs_plain:
            out = _decided_in_sweep(
                config, variant, wanted, max_states, certificate
            )
        if "3.2" in wanted:
            out["3.2"] = check_requirement_3_2(config, variant)
        return _name_reduction(out, certificate)
    if certificate is None and needs_plain and needs_probe:
        model, probe_lts = build_lts(
            config, variant, probes=True, max_states=max_states,
            keep_states=True,
        )
        plain_lts = _without_probes(probe_lts)
    elif needs_plain:
        model, plain_lts = build_lts(
            config, variant, probes=False, max_states=max_states,
            keep_states=True, certificate=certificate, _validated=True,
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
            certificate=certificate, _validated=True,
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
    return _name_reduction(out, certificate)


def _name_reduction(out, certificate):
    """Suffix the label of each certified report that read a sweep with
    the reduction that sweep ran under, so quotient counts never pass
    for concrete ones. Requirement 4 names its own."""
    if certificate is None:
        return out
    from repro.staticcheck.formulasym import licenses_full_quotient

    plain = "full quotient" if licenses_full_quotient(certificate) else "ample"
    for key, rep in out.items():
        if key != "4" and rep.holds is not None:
            # the probe sweep (Requirement 3) always quotients
            reduction = "full quotient" if key.startswith("3") else plain
            rep.requirement = f"{rep.requirement[:-1]}, {reduction})"
    return out


def _planned(key, config, variant, max_states, certificate):
    """A stand-alone check: :func:`check_all_requirements` with every
    requirement but ``key`` skipped."""
    skip = tuple(k for k in REQUIREMENTS if k != key)
    return check_all_requirements(
        config, variant, skip=skip, max_states=max_states,
        certificate=certificate,
    )[key]


def _decided_in_sweep(config, variant, wanted, max_states, certificate):
    """Requirements 1 and 2 from one sweep that keeps a search tree
    instead of the plain LTS."""
    model, system = _system(
        config, variant, probes=False, certificate=certificate,
        _validated=True,
    )
    tree = search_tree(
        system, ignore_labels=PROBE_LABELS, mark=_is_assertion,
        is_valid_end=_valid_end(model), max_states=max_states,
    )
    out = {}
    if "1" in wanted:
        out["1"] = _requirement_1_of(tree)
    if "2" in wanted:
        out["2"] = _requirement_2_of(tree)
    return out


@_observed
def _requirement_1_of(tree: SearchTree) -> RequirementReport:
    report = DeadlockReport(
        deadlock_free=not tree.deadlocks,
        deadlocks=tree.deadlocks,
        terminal_ok=tree.terminal_ok,
        shortest_trace=tree.trace_to(tree.deadlocks),
    )
    return _report_1(report, tree.n_states, tree.n_transitions)


@_observed
def _requirement_2_of(tree: SearchTree) -> RequirementReport:
    return _report_2(
        tree.marked_labels, tree.trace_to(tree.marked), tree.n_states,
        tree.n_transitions,
    )


def _without_probes(probe_lts: LTS) -> LTS:
    """The plain LTS of a probe sweep, with an ``lts_derive`` trace event."""
    t0 = time.perf_counter()
    plain = probe_lts.without_labels(PROBE_LABELS)
    tracer = _current_tracer()
    if tracer.enabled:
        tracer.emit(
            "lts_derive", kept=plain.n_transitions,
            dropped=probe_lts.n_transitions - plain.n_transitions,
            seconds=round(time.perf_counter() - t0, 6),
        )
    return plain
