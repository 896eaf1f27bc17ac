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
from dataclasses import dataclass, replace

from repro.jackal.actions import ASSERTION_PREFIX, C_HOME, PROBE_LABELS, Labels
from repro.obs.core import current as _current_tracer
from repro.jackal.model import VIOLATION, JackalModel
from repro.jackal.params import Config, ProtocolVariant
from repro.lts.deadlock import DeadlockReport, find_deadlocks, shortest_trace_to
from repro.lts.engine import Observations, SearchTree, explore_fast
from repro.lts.engine import search_tree
from repro.lts.frontier import distinct
from repro.lts.lts import LTS
from repro.lts.trace import Trace
from repro.mucalc.checker import check_many
from repro.mucalc.parser import parse_formula

#: the requirement keys of :func:`check_all_requirements`, in report order
REQUIREMENTS = ("1", "2", "3.1", "3.2", "4")
#: the requirements the probes decide
PROBED = frozenset(("3.1", "3.2"))

#: the paper's formulas (§5.4.3, §5.4.4) as DESIGN.md quotes them. 3.2's
#: conjunction is parenthesised into a balanced tree; Requirement 4 is
#: per request ``start`` and its completion ``finish``, fair on cyclic
#: models (completion stays reachable while it has not happened)
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

    Each decision is one ``check`` span (requirement id, verdict, LTS
    sizes, seconds); a sweep it runs is a span inside it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with _current_tracer().span("check") as span:
            rep = fn(*args, **kwargs)
            span.fields.update(
                requirement=rep.requirement, holds=rep.holds,
                states=rep.lts_states, transitions=rep.lts_transitions,
            )
        return rep

    return wrapper


def build_model(
    config: Config, variant: ProtocolVariant, *, probes: bool
) -> JackalModel:
    """A model with the probe self-loops forced on or off.

    Probes are needed by Requirement 3 and poisonous to Requirement 4
    (a probe self-loop is an infinite path avoiding every thread
    action). The two models have the same states:
    :func:`check_all_requirements` sweeps the probe one and observes
    the self-loops instead of storing them.
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
    certified field slice and the full symmetry quotient. The plain
    LTS also carries the per-thread Requirement-4 inevitability
    formulas, which individually are *not* quotient-invariant; the
    certifier proved their families orbit-closed (it refuses
    otherwise, JKL401), so the driver checks their symmetrized orbit
    conjunctions on the full quotient. Traces extracted from a reduced
    LTS are representatives up to the certified commutations and
    renamings, not necessarily the shortest concrete run.
    """
    model, system = _system(
        config, variant, probes=probes, certificate=certificate
    )
    if system is not model:
        return model, system.sweep(
            max_states=max_states, keep_states=keep_states
        )
    lts = explore_fast(system, max_states=max_states, keep_states=keep_states)
    return model, lts


def _system(config, variant, *, probes, certificate):
    """The model, and what :func:`build_lts` sweeps: the model itself,
    or its certified reduced view."""
    model = build_model(config, variant, probes=probes)
    if certificate is None:
        return model, model
    from repro.lts.certreduce import ReducedSystem

    return model, ReducedSystem(model, certificate)


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
        trace = shortest_trace_to(lts, distinct(src[is_violation[lbl]]))
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
    return _requirement_3("3.1", lts)


#: per Requirement 3 key: its report name, the probes whose common
#: state violates it, and what that state means
_R3 = {
    "3.1": ("3.1 (at most one home)", PROBE_LABELS[:1],
            "two processors simultaneously claim the home"),
    "3.2": ("3.2 (bounded copies when stable)", PROBE_LABELS[1:],
            "stable state with no home reached"),
}


@_observed
def _requirement_3(key: str, swept) -> RequirementReport:
    """3.1 or 3.2 from the probe bits of an LTS or a search tree that
    observed them, or of an LTS that stores them (``lts=``): violated
    iff a state has every probe :data:`_R3` names. The trace is the
    shortest to the lowest-id such state, for 3.1 with its ``c_home``
    step; the sizes are the probe LTS's."""
    name, probes, violation = _R3[key]
    seen, n_transitions = swept.observed, swept.n_transitions
    if seen is None:  # read the stored self-loops as bits
        seen = Observations(swept.labels, PROBE_LABELS)
        seen.wave(swept.n_states, *swept.columns()[:2])
    else:
        n_transitions += seen.count
    bad = seen.states(*probes)[:1]
    if isinstance(swept, SearchTree):
        trace = swept.trace_to(bad)
    else:
        trace = shortest_trace_to(swept, bad)
    if trace is not None and key == "3.1":
        trace = Trace(trace.labels + (C_HOME,))
    return RequirementReport(
        requirement=name,
        holds=not bad.size,
        detail=violation if bad.size else "",
        trace=trace,
        lts_states=swept.n_states,
        lts_transitions=n_transitions,
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
    return _requirement_3("3.2", lts)


@_observed
def _not_checked_3_2() -> RequirementReport:
    return RequirementReport(
        requirement="3.2 (bounded copies when stable)",
        holds=None,
        detail="skipped: formulated (as in the paper) for 2 processors",
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

    With a certificate the sweep takes the full symmetry quotient
    (that is where the state-space win is), and the per-thread formulas are
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
    if certificate is not None:
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
    if certificate is not None:
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
    swept once. Requirement 3 is a predicate on states, shown as probe
    self-loops; the probe model's sweep keeps them as one bit per probe
    per state (:class:`~repro.lts.engine.Observations`). A self-loop
    discovers no state, so state ids and shortest traces are the probe
    LTS's, and what the sweep stores is the plain LTS. The 3.1/3.2
    reports count the probe LTS: stored transitions plus self-loops.
    Without Requirement 4, which alone reads an LTS, the sweep keeps a
    search tree (:func:`~repro.lts.engine.search_tree`) and stores no
    transition. 3.2 off two processors sweeps nothing.

    Under a reduction ``certificate`` (see :func:`build_lts`) the probes
    are visible to the ample-set condition, so the probe and the plain
    view are different graphs: 3.1 and 3.2 are decided on a search tree
    of the probe view, the rest on a sweep of the plain one.
    """
    wanted = set(REQUIREMENTS) - set(skip)
    if not_checked := "3.2" in wanted and config.n_processors != 2:
        wanted.remove("3.2")
    sweeps = [wanted]
    if certificate is not None:
        sweeps = [wanted - PROBED, wanted & PROBED]
    out: dict[str, RequirementReport] = {}
    for keys in filter(None, sweeps):
        out.update(
            _decided_in_sweep(config, variant, keys, max_states, certificate)
        )
    if not_checked:
        out["3.2"] = check_requirement_3_2(config, variant)
    return _name_reduction(
        {key: out[key] for key in REQUIREMENTS if key in out}, certificate
    )


def _name_reduction(out, certificate):
    """Suffix the label of each certified report that read a sweep with
    the full quotient that sweep ran on, so quotient counts never pass
    for concrete ones. Requirement 4 names its own."""
    if certificate is None:
        return out
    for key, rep in out.items():
        if key != "4" and rep.holds is not None:
            rep.requirement = f"{rep.requirement[:-1]}, full quotient)"
    return out


def _planned(key, config, variant, max_states, certificate):
    """A stand-alone check: :func:`check_all_requirements` with every
    requirement but ``key`` skipped."""
    skip = tuple(k for k in REQUIREMENTS if k != key)
    return check_all_requirements(
        config, variant, skip=skip, max_states=max_states,
        certificate=certificate,
    )[key]


def _decided_in_sweep(config, variant, keys, max_states, certificate):
    """The reports of ``keys`` from one sweep: of the probe model,
    observing the probes, when 3.1 or 3.2 is wanted; an LTS when
    Requirement 4 is, else a search tree."""
    probes = bool(keys & PROBED)
    model, system = _system(
        config, variant, probes=probes, certificate=certificate
    )
    observe = PROBE_LABELS if probes else ()
    out = {}
    if "4" not in keys:
        swept = search_tree(
            system, observe=observe, mark=_is_assertion,
            is_valid_end=_valid_end(model), max_states=max_states,
        )
        if "1" in keys:
            out["1"] = _requirement_1_of(swept)
        if "2" in keys:
            out["2"] = _requirement_2_of(swept)
    else:
        # a certified view sweeps into the QuotientLTS Requirement 4 reads
        sweep = explore_fast if system is model else type(system).sweep
        swept = sweep(
            system, observe=observe, max_states=max_states,
            keep_states="1" in keys,
        )
        if "1" in keys:
            out["1"] = _requirement_1_on(swept, model)
        # only Requirement 1 reads the per-state tuples, the bulk of
        # resident memory
        swept.state_meta = {}
        if "2" in keys:
            out["2"] = _requirement_2_on(swept)
    for key in sorted(keys & PROBED):
        out[key] = _requirement_3(key, swept)
    if "4" in keys:
        out["4"] = _requirement_4_on(config, variant, swept, certificate)
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
