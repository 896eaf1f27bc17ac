"""One differential harness: every protocol cell, every checking path.

The paper's evidence is a verdict per requirement, and a trace per
violation, on which two tool sets agree. Here every path that decides a
cell must agree with :data:`VERDICTS`, written by hand from the paper's
narrative, and with every path it is comparable to:

``scalar``
    the reference explorer and the oracles of :mod:`tests.oracles`;
    on :data:`SMALL` cells :mod:`tests.bes` decides 3.1-3.2 again
``explore_fast``
    :func:`check_all_requirements`: one engine sweep of the probe model
    that stores the plain LTS and observes the probes as per-state bits
``stand_alone``
    the five ``check_requirement_*`` calls
``search_tree``
    Requirements 1-2 decided in the sweep, and a tree marking flushes
    and observing the probes
``certified``
    the certified check (a plain quotient LTS and a search tree of the
    probe quotient), Requirements 1-2 in the certified sweep, the
    unfolded quotient
``reduced_kernel``
    the engine's sweep of :class:`~repro.lts.certreduce.ReducedKernel`
    against the reference explorer's of ``ReducedSystem.successors``

Counts and traces are compared wherever two paths are comparable, on
the LTSs the checks decided on (:func:`_recorded`), and every unreduced
counterexample replays through :func:`~repro.lts.trace.replay`.
:func:`check_cell` computes and compares every path of one cell; the
session fixture ``_harness`` (``tests/conftest.py``) runs it once per
cell in worker processes.

To add a **cell**: add its configuration to :data:`CONFIGS` and its row
to :data:`VERDICTS`, from the paper's narrative and not from a run; a
path it is too large for leaves it out of its cell list in
:data:`PATHS`. To add a **path**: write ``_compute_<path>(cell, got)``
(``got`` holds the paths computed before it) and
``_compare_<path>(cell, got)``, add both to :data:`PATHS` with its cells
and the paths its comparison reads, and give CI's "Differential harness
coverage" step its cell count.
"""

from __future__ import annotations

import itertools
import traceback
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace
from typing import NamedTuple
from unittest import mock

import numpy as np

from repro.errors import ExplorationLimitError
from repro.jackal import requirements
from repro.jackal.actions import ASSERTION_PREFIX, PROBE_LABELS
from repro.jackal.model import VIOLATION, JackalModel
from repro.jackal.params import (
    CONFIG_1,
    CONFIG_2,
    CONFIG_3,
    Config,
    ProtocolVariant,
)
from repro.jackal.requirements import (
    REQUIREMENTS,
    build_model,
    check_all_requirements,
    check_requirement_1,
    check_requirement_2,
    check_requirement_3_1,
    check_requirement_3_2,
    check_requirement_4,
    formula_3_1,
    formula_3_2_bad_state,
    formula_4_flush,
    formula_4_write,
)
from repro.lts.certreduce import (
    ReducedSystem,
    unfold_full_quotient,
    unfold_quotient,
)
from repro.lts.deadlock import shortest_trace_to
from repro.lts.engine import SearchTree, explore_fast, search_tree
from repro.lts.explore import ExplorationStats, explore
from repro.lts.trace import replay
from repro.staticcheck.symmetry import certify
from tests import oracles
from tests.bes import bes_holds

CONFIGS = {
    "c1r1": CONFIG_1,
    "c1r2": replace(CONFIG_1, rounds=2),
    "c2r1": CONFIG_2,
    "c1cyc": replace(CONFIG_1, rounds=None),
    "c3r1": CONFIG_3,
    # 201,575 states: past the visited set's first segment (2^16 rows)
    "c2r2": replace(CONFIG_2, rounds=2),
}
VARIANTS = ("fixed", "error1", "error2", "buggy", "no_migration", "alf")

#: Per configuration, the verdicts of each variant in :data:`VARIANTS`
#: order, one character per requirement 1, 2, 3.1, 3.2, 4: ``+`` holds,
#: ``-`` violated, ``.`` not checked. The rules are
#: ``benchmarks/pipeline/expected.json``'s ``verdict_rules``:
#:
#: - fixed and no-migration hold every requirement (paper 5.4: the
#:   repaired protocol passes; without home migration neither error is
#:   reachable)
#: - error1 is the deadlock of 5.4.1: Requirement 1 violated, and a
#:   wedged thread never completes its write, so Requirement 4 is
#:   violated too; 3.1 and 3.2 hold - it wedges, it does not corrupt the
#:   home administration
#: - error2 is the lost home of 5.4.3: Requirement 3.2 violated, and
#:   liveness collapses with it (Requirement 4); 3.1 holds; on the
#:   cyclic model the homeless region eventually wedges every thread, so
#:   Requirement 1 is violated there as well
#: - buggy (the original implementation) trips both detectors: 1, 3.2
#:   and 4 violated
#: - Requirements 2 and 3.1 hold everywhere
#:
#: and three for cells the benchmark has no row for. Error 1's wedge
#: needs the home to migrate onto the waiting thread's processor, on a
#: request from that processor: an earlier write there, of a second
#: thread (c2r1) or round (c1r2, c1cyc). With one thread per processor
#: and one round (c1r1, c3r1) nothing wedges, and buggy keeps error2's
#: violations only. 3.2 is formulated for two processors, as in the
#: paper: on configuration 3 it is not checked. alf (paper 4.5) is the
#: fixed protocol with fewer lock round trips: it holds everything.
VERDICTS = {
    #          fixed    error1   error2   buggy    no_mig   alf
    "c1r1": ("+++++", "+++++", "+++--", "+++--", "+++++", "+++++"),
    "c1r2": ("+++++", "-+++-", "+++--", "-++--", "+++++", "+++++"),
    "c2r1": ("+++++", "-+++-", "+++--", "-++--", "+++++", "+++++"),
    "c1cyc": ("+++++", "-+++-", "-++--", "-++--", "+++++", "+++++"),
    "c3r1": ("+++.+", "+++.+", "+++.-", "+++.-", "+++.+", "+++.+"),
    "c2r2": ("+++++",),
}


@dataclass(frozen=True)
class Cell:
    """One configuration under one protocol variant."""

    config: str
    variant: str

    def __str__(self) -> str:
        return f"{self.config}-{self.variant}"

    @property
    def cfg(self) -> Config:
        return CONFIGS[self.config]

    @property
    def var(self) -> ProtocolVariant:
        return getattr(ProtocolVariant, self.variant)()

    def model(self, *, probes: bool) -> JackalModel:
        return build_model(self.cfg, self.var, probes=probes)

    def verdicts(self) -> dict[str, bool | None]:
        row = VERDICTS[self.config][VARIANTS.index(self.variant)]
        sign = {"+": True, "-": False, ".": None}
        return {key: sign[c] for key, c in zip(REQUIREMENTS, row)}


CELLS = [
    Cell(config, variant)
    for config, row in VERDICTS.items()
    for variant in VARIANTS[: len(row)]
]
PAPER = ("fixed", "error1", "error2")
#: all but c2r2, which the reference explorer takes 7.6 s to sweep
SCALAR = [c for c in CELLS if c.config != "c2r2"]
#: at most ~6 k states: the BES and the scalar reduced sweep
SMALL = [
    c for c in SCALAR
    if c.config in ("c1r1", "c1r2", "c2r1") or c.variant == "no_migration"
]
#: the scalar reduction of the plain model, also on configuration 3,
#: where |G| = 6 makes the tie-breaks between group elements non-trivial
REDUCED = SMALL + [Cell("c3r1", v) for v in PAPER]
#: ... and of the probe model
PROBE_REDUCED = [c for c in REDUCED if c.config == "c1r1"] + [
    Cell(config, v) for config in ("c2r1", "c3r1") for v in PAPER
]
#: the reductions without symmetry and without the slice, on c1r1
ABLATIONS = {"canonical-off": {"canonical": False},
             "slice-off": {"slice_fields": ()}}
#: the unfolded quotient's (states, transitions), as the scalar
#: unfolding built them through ``successors`` before it was columnar
UNFOLDED = {
    "c1r1-fixed": (258, 451), "c1r1-error1": (258, 451),
    "c1r1-error2": (302, 517), "c2r1-fixed": (3_235, 7_006),
    "c2r1-error1": (3_259, 7_032), "c2r1-error2": (4_261, 8_842),
    "c3r1-fixed": (8_080, 18_183), "c3r1-error1": (8_080, 18_183),
    "c3r1-error2": (11_008, 23_977),
}
#: the requirements that read an LTS (3.2 does on two processors)
LTS_READERS = ("3.1", "3.2", "4")
STAND_ALONE = dict(zip(REQUIREMENTS, (
    check_requirement_1, check_requirement_2, check_requirement_3_1,
    check_requirement_3_2, check_requirement_4,
)))


def fields(rep) -> tuple:
    """Everything a report says, its trace as labels."""
    return (rep.requirement, rep.holds, rep.detail, rep.lts_states,
            rep.lts_transitions, _labels(rep.trace))


def _labels(trace):
    return None if trace is None else trace.labels


def _is_flush(label: str) -> bool:
    return label.startswith("flush(")


@contextmanager
def _recorded():
    """Record what the checks swept: ``(probes, LTS or SearchTree)`` of
    each sweep the plan runs, in call order — ``search_tree`` and
    ``explore_fast`` in ``repro.jackal.requirements`` and a certified
    view's ``ReducedSystem.sweep``."""
    seen: list = []

    def recording(fn):
        def call(system, *args, **kwargs):
            model = getattr(system, "system", system)  # a ReducedSystem's
            seen.append((model.config.with_probes,
                         fn(system, *args, **kwargs)))
            return seen[-1][1]
        return call

    with ExitStack() as stack:
        for owner, name in ((requirements, "search_tree"),
                            (requirements, "explore_fast"),
                            (ReducedSystem, "sweep")):
            fn = getattr(owner, name)
            stack.enter_context(
                mock.patch.object(owner, name, recording(fn))
            )
        yield seen


# -- the paths ---------------------------------------------------------------


def _compute_scalar(cell: Cell, got) -> dict:
    model = cell.model(probes=False)
    probe = explore(cell.model(probes=True), keep_states=True)
    # the probe self-loops lead nowhere new: without them, the probe
    # LTS is the plain one
    plain = oracles.without_labels(probe, PROBE_LABELS)
    out = {"plain": plain, "probe": probe, "bes": {}}
    deadlocks = [
        s for s in oracles.deadlock_states(plain, PROBE_LABELS)
        if not (plain.state_meta[s] == VIOLATION
                or model.is_done_state(plain.state_meta[s]))
    ]
    bad = {t.src for t in plain.transitions()
           if t.label.startswith(ASSERTION_PREFIX)}
    out["1"] = (not deadlocks,
                _labels(oracles.shortest_trace_to(plain, deadlocks)))
    out["2"] = (not bad, _labels(oracles.shortest_trace_to(plain, bad)))
    probe.state_meta = plain.state_meta = {}
    f = formula_3_1()
    ok = bool(oracles.check(probe, f)[probe.initial])
    out["3.1"] = (ok, None if ok else _labels(oracles.product_search(
        probe, f.reg, ~oracles.check(probe, f.inner)
    )))
    out["3.2"] = (None, None)
    if cell.cfg.n_processors == 2:
        f = formula_3_2_bad_state()
        reached = oracles.check(probe, f)[probe.initial]
        out["3.2"] = (not reached, _labels(oracles.product_search(
            probe, f.reg, oracles.check(probe, f.inner)
        )) if reached else None)
    if cell in SMALL:
        out["bes"] = {"3.1": bes_holds(probe, formula_3_1())}
        if cell.cfg.n_processors == 2:
            out["bes"]["3.2"] = not bes_holds(probe, formula_3_2_bad_state())
    fair = cell.cfg.rounds is None
    ok = all(
        oracles.check(plain, make(tid, fair=fair))[plain.initial]
        for tid in range(cell.cfg.n_threads)
        for make in (formula_4_write, formula_4_flush)
    )
    out["lasso"] = None if ok else oracles.find_lasso_avoiding(
        plain, lambda lab: lab.startswith(("writeover", "flushover"))
    )
    lasso = out["lasso"]
    out["4"] = (ok, None if lasso is None
                else lasso.prefix.labels + lasso.cycle.labels)
    return out


def _compute_explore_fast(cell: Cell, got) -> dict:
    with _recorded() as seen:
        reports = check_all_requirements(cell.cfg, cell.var)
    return {"reports": reports, "swept": seen}


def _compute_stand_alone(cell: Cell, got) -> dict:
    with _recorded() as seen:
        reports = {key: fields(check(cell.cfg, cell.var))
                   for key, check in STAND_ALONE.items()}
    return {"reports": reports, "swept": seen}


def _compute_search_tree(cell: Cell, got) -> dict:
    with _recorded() as swept:
        reports = check_all_requirements(cell.cfg, cell.var, skip=LTS_READERS)
    tree = swept[0][1]
    out = {"reports": {k: fields(r) for k, r in reports.items()},
           "swept": swept, "tree": tree,
           "ends_trace": tree.trace_to(tree.terminal_ok)}
    if cell in SMALL:
        # no variant fires an assertion: a tree that marks a common move
        flush = search_tree(cell.model(probes=True),
                            observe=PROBE_LABELS, mark=_is_flush)
        out.update(flush=flush, flush_trace=flush.trace_to(flush.marked))
    return out


def _compute_certified(cell: Cell, got) -> dict:
    cert, findings = certify(cell.cfg, cell.var)
    assert cert is not None, findings
    with _recorded() as seen:
        reports = check_all_requirements(cell.cfg, cell.var, certificate=cert)
    out = {"cert": cert, "reports": reports, "swept": seen}
    if cell.config in ("c1r1", "c1cyc"):
        # Requirements 1-2 in the certified sweep, the path that decides
        # Table 8's cyclic configuration 3
        out["in_sweep"] = check_all_requirements(
            cell.cfg, cell.var, skip=LTS_READERS, certificate=cert
        )
    if str(cell) in UNFOLDED:
        out["unfolded"] = unfold_full_quotient(cell.model(probes=False), cert)
        # Requirement 4 unfolds the plain quotient the check swept
        out["unfolded_sweep"] = unfold_quotient(out["swept"][0][1], cert)
    if cell == Cell("c1r1", "fixed"):
        out["stand_alone"] = {
            key: fields(check(cell.cfg, cell.var, certificate=cert))
            for key, check in STAND_ALONE.items()
        }
    return out


def _compute_reduced_kernel(cell: Cell, got) -> dict:
    runs = {"plain": {}}
    if cell in PROBE_REDUCED:
        runs["probe"] = {}
    if cell.config == "c1r1":
        runs.update(ABLATIONS)
    out = {}
    for name, kwargs in runs.items():
        model = cell.model(probes=name == "probe")
        by_kernel, by_state = (
            ReducedSystem(model, got["certified"]["cert"], **kwargs)
            for _ in range(2)
        )
        out[name] = (explore_fast(by_kernel), _counters(by_kernel),
                     explore(by_state), _counters(by_state))
    return out


def _counters(red) -> tuple[int, int, int]:
    return red.canonical_hits, red.ample_prunes, red.slice_hits


# -- the comparisons ---------------------------------------------------------


def assert_same_lts(mine, theirs) -> None:
    """Not merely bisimilar: same numbering, same rows in the same order."""
    assert mine.labels == theirs.labels
    assert mine.n_states == theirs.n_states
    for a, b in zip(mine.columns(), theirs.columns()):
        assert np.array_equal(a, b)


def _probe_size(swept) -> tuple[int, int]:
    """The probe LTS's ``(states, transitions)`` of an LTS or a search
    tree: the observed probe self-loops count as transitions."""
    seen = swept.observed
    return swept.n_states, swept.n_transitions + (seen.count if seen else 0)


def assert_same_observations(seen, probe) -> None:
    """``seen`` is what the probe LTS ``probe`` stores of the probes:
    per state id, one bit for each label of its probe self-loops."""
    src, lbl, dst = probe.columns()
    bits = np.zeros(probe.n_states, dtype=np.uint8)
    count = 0
    for i, label in enumerate(PROBE_LABELS):
        if label in probe.labels:
            rows = lbl == probe.labels.index(label)
            assert np.array_equal(src[rows], dst[rows]), label
            assert not (bits[src[rows]] & (1 << i)).any(), label
            bits[src[rows]] |= 1 << i
            count += int(rows.sum())
    assert seen.labels == PROBE_LABELS
    assert np.array_equal(seen.bits, bits)
    assert seen.count == count


def _assert_verdicts(cell: Cell, holds: dict) -> None:
    want = cell.verdicts()
    assert holds == {key: want[key] for key in holds}, cell


def _replay(cell: Cell, traces: dict) -> None:
    """Each trace replays on the model step by step. A deadlock trace
    ends stuck, a Requirement 3.2 witness in the stable homeless state,
    a trace to a proper end with every thread done."""
    for key, labels in traces.items():
        if labels is None:
            continue
        model = cell.model(probes=key.startswith("3"))
        state = replay(model, labels).states[-1]
        enabled = {label for label, _ in model.successors(state)}
        if key == "1":
            assert not enabled - set(PROBE_LABELS), (cell, labels)
            assert state != VIOLATION and not model.is_done_state(state)
        if key == "3.2":
            assert enabled >= {"c_copy", "lock_empty", "homequeue_empty",
                               "remotequeue_empty"}, (cell, labels)
        if key == "end":
            assert model.is_done_state(state), (cell, labels)


def _assert_first_discoverers(tree, lts) -> None:
    """``tree`` is the BFS tree of ``lts``: each state's parent and label
    are those of the first transition into it. The probes a tree
    observed count as transitions where ``lts`` stores them."""
    src, lbl, dst = lts.columns()
    if tree.observed is not None and lts.observed is None:
        assert _probe_size(tree) == _probe_size(lts)
    else:
        assert (tree.n_states, tree.n_transitions) == (
            lts.n_states, lts.n_transitions
        )
    states, first = np.unique(dst, return_index=True)
    first = first[states > 0]
    assert tree.parent[0] == -1 and len(first) == lts.n_states - 1
    assert np.array_equal(tree.parent[1:], src[first])
    assert [tree.labels[i] for i in tree.via[1:]] == [
        lts.labels[i] for i in lbl[first]
    ]


def _compare_scalar(cell: Cell, got: dict) -> None:
    s = got["scalar"]
    _assert_verdicts(cell, {k: s[k][0] for k in REQUIREMENTS})
    for key, holds in s["bes"].items():
        assert holds == s[key][0], key
    _replay(cell, {k: s[k][1] for k in REQUIREMENTS})
    if s["lasso"] is not None:
        # the cycle returns to the state the prefix reaches
        prefix, cycle = s["lasso"].prefix.labels, s["lasso"].cycle.labels
        states = replay(cell.model(probes=False), prefix + cycle).states
        assert states[-1] == states[len(prefix)]


def _compare_explore_fast(cell: Cell, got: dict) -> None:
    reports = got["explore_fast"]["reports"]
    assert list(reports) == list(REQUIREMENTS)
    _assert_verdicts(cell, {k: r.holds for k, r in reports.items()})
    # one sweep, of the probe model: it stores the plain LTS, no probe
    # self-loop, and observes the probes
    [(probes, plain)] = got["explore_fast"]["swept"]
    assert probes and plain.observed is not None
    assert not set(PROBE_LABELS) & set(plain.labels)
    for key, rep in reports.items():
        if rep.holds is not None:
            assert (rep.lts_states, rep.lts_transitions) == (
                _probe_size(plain) if key.startswith("3")
                else (plain.n_states, plain.n_transitions)
            ), key
    if "scalar" in got:
        s = got["scalar"]
        assert_same_lts(plain, s["plain"])
        assert_same_observations(plain.observed, s["probe"])
        assert _probe_size(plain) == (s["probe"].n_states,
                                      s["probe"].n_transitions)
        assert {k: (r.holds, _labels(r.trace)) for k, r in reports.items()} \
            == {k: s[k] for k in REQUIREMENTS}
    _replay(cell, {k: _labels(r.trace) for k, r in reports.items()})


def _compare_stand_alone(cell: Cell, got: dict) -> None:
    mine, plan = got["stand_alone"], got["explore_fast"]
    _assert_verdicts(cell, {k: r[1] for k, r in mine["reports"].items()})
    assert mine["reports"] == {
        key: fields(plan["reports"][key]) for key in STAND_ALONE
    }
    # 1 and 2 keep a search tree of the plain model, 3.1 (and 3.2 on two
    # processors) one of the probe model, 4 the plain LTS: each is the
    # plan's one sweep
    [(_probes, plan_lts)] = plan["swept"]
    assert [(probes, isinstance(swept, SearchTree))
            for probes, swept in mine["swept"]] == (
        [(False, True)] * 2
        + [(True, True)] * (1 + (cell.cfg.n_processors == 2))
        + [(False, False)]
    )
    for probes, swept in mine["swept"]:
        if isinstance(swept, SearchTree):
            _assert_first_discoverers(swept, plan_lts)
        else:
            assert_same_lts(swept, plan_lts)
        if probes:
            seen, theirs = swept.observed, plan_lts.observed
            assert np.array_equal(seen.bits, theirs.bits)
            assert seen.count == theirs.count


def _compare_search_tree(cell: Cell, got: dict) -> None:
    t, plan = got["search_tree"], got["explore_fast"]
    _assert_verdicts(cell, {k: r[1] for k, r in t["reports"].items()})
    assert t["reports"] == {k: fields(plan["reports"][k]) for k in ("1", "2")}
    # decided in the sweep: no LTS built, and the tree is the plain LTS's
    [(probes, tree)] = t["swept"]
    assert not probes and isinstance(tree, SearchTree)
    assert tree.observed is None
    [(_probes, plain)] = plan["swept"]
    _assert_first_discoverers(tree, plain)
    assert sorted(tree.deadlocks + tree.terminal_ok) == plain.deadlock_states()
    assert t["ends_trace"] == shortest_trace_to(plain, tree.terminal_ok)
    _replay(cell, {"end": _labels(t["ends_trace"])})
    if "flush" not in t:
        return
    # the tree of the probe model, its probes observed, is the plain
    # LTS's, with the plan's observations
    tree = t["flush"]
    _assert_first_discoverers(tree, plain)
    assert np.array_equal(tree.observed.bits, plain.observed.bits)
    src, lbl, _dst = plain.columns()
    assert np.array_equal(
        tree.marked, np.unique(src[plain.label_mask(_is_flush)[lbl]])
    )
    assert sorted(tree.marked_labels) == sorted(filter(_is_flush, plain.labels))
    assert t["flush_trace"] == shortest_trace_to(plain, tree.marked)
    _replay(cell, {"flush": _labels(t["flush_trace"])})
    # without is_valid_end every state without a move but its observed
    # probes is a deadlock, and every such state has a probe
    assert tree.deadlocks == plain.deadlock_states()
    assert not tree.terminal_ok
    assert tree.observed.bits[tree.deadlocks].all()
    # a bounded run ends; a cyclic one only where it wedges
    assert bool(tree.deadlocks) == (
        cell.cfg.rounds is not None or not cell.verdicts()["1"]
    )


def _compare_certified(cell: Cell, got: dict) -> None:
    c, unreduced = got["certified"], got["explore_fast"]["reports"]
    reports = c["reports"]
    _assert_verdicts(cell, {k: r.holds for k, r in reports.items()})
    # a deadlock found on one side is found, with a trace, on the other
    assert (reports["1"].trace is None) == (unreduced["1"].trace is None)
    # each report names the full quotient it ran under, smaller than the
    # concrete system; the plain and the probe LTS are swept apart
    for key, rep in reports.items():
        if rep.holds is not None:
            assert rep.requirement.endswith(", full quotient)"), key
            assert rep.lts_states < unreduced[key].lts_states, key
    assert [probes for probes, _lts in c["swept"]] == [False, True]
    # the probe quotient is a search tree: no probe self-loop is stored
    [_plain, (_probes, tree)] = c["swept"]
    assert isinstance(tree, SearchTree) and tree.observed.count > 0
    for key in ("3.1", "3.2"):
        if reports[key].holds is not None:
            assert (reports[key].lts_states, reports[key].lts_transitions) \
                == _probe_size(tree), key
    # Requirements 1-2 in the certified sweep, and stand-alone: the
    # reports of the check
    if "in_sweep" in c:
        assert list(c["in_sweep"]) == ["1", "2"]
    for key, rep in c.get("in_sweep", {}).items():
        assert fields(rep) == fields(reports[key]), key
    for key, mine in c.get("stand_alone", {}).items():
        assert mine == fields(reports[key]), key
    if str(cell) in UNFOLDED:
        assert_same_lts(c["unfolded_sweep"], c["unfolded"])
        assert (c["unfolded"].n_states, c["unfolded"].n_transitions) == (
            UNFOLDED[str(cell)]
        )


def _compare_reduced_kernel(cell: Cell, got: dict) -> None:
    runs = got["reduced_kernel"]
    for name, (kernel_lts, kernel_counters, lts, counters) in runs.items():
        assert_same_lts(kernel_lts, lts)
        assert kernel_counters == counters, name
    # and they are the quotients the certified check swept: the plain
    # LTS, and the search tree of the probe quotient with its probes
    for probes, swept in got["certified"]["swept"]:
        if (name := "probe" if probes else "plain") not in runs:
            continue
        if probes:
            _assert_first_discoverers(swept, runs[name][0])
            assert_same_observations(swept.observed, runs[name][0])
        else:
            assert_same_lts(runs[name][0], swept)


class Path(NamedTuple):
    compute: object
    compare: object
    cells: list
    #: the paths the comparison reads besides this one
    reads: tuple = ("explore_fast",)


PATHS = {
    "scalar": Path(_compute_scalar, _compare_scalar, SCALAR, ()),
    "explore_fast": Path(_compute_explore_fast, _compare_explore_fast,
                         CELLS, ("scalar",)),
    "stand_alone": Path(_compute_stand_alone, _compare_stand_alone, CELLS),
    "search_tree": Path(_compute_search_tree, _compare_search_tree, CELLS),
    "certified": Path(_compute_certified, _compare_certified, CELLS),
    "reduced_kernel": Path(_compute_reduced_kernel, _compare_reduced_kernel,
                           REDUCED, ("certified",)),
}
#: every ``(path, cell)`` the matrix compares
MATRIX = [(path, cell) for path, p in PATHS.items() for cell in p.cells]


def compute(path: str, cell: Cell, got: dict) -> dict:
    """What ``path`` produces on ``cell``, given the paths before it."""
    return PATHS[path].compute(cell, got)


def compare(path: str, cell: Cell, got: dict) -> None:
    """Raise :class:`AssertionError` unless ``got[path]`` agrees with
    :data:`VERDICTS` and with the paths it reads that ran on ``cell``."""
    PATHS[path].compare(cell, {
        p: got[p] for p in (path, *PATHS[path].reads) if cell in PATHS[p].cells
    })


def check_cell(cell: Cell) -> dict[str, str | None]:
    """Compute and compare every path on ``cell``: by path, ``None``
    where it agrees, else the traceback of its failure."""
    got: dict = {}
    out: dict[str, str | None] = {}
    for path in (p for p in PATHS if cell in PATHS[p].cells):
        try:
            got[path] = compute(path, cell, got)
            compare(path, cell, got)
            out[path] = None
        except Exception:
            out[path] = traceback.format_exc()
    return out


# -- the explorer-only axis --------------------------------------------------

#: hand-picked ``(variant, topology, n_regions, rounds, writes_per_round,
#: probes)``: every variant on four topologies, the 24 combinations of
#: the rest dealt round-robin over them twice with different offsets
_PARAMETERS = tuple(itertools.product(
    (1, 2), (1, 2, None), (1, 2), (True, False)
))
EXPLORER_CELLS = [
    (variant, topology, *_PARAMETERS[(i + shift) % len(_PARAMETERS)])
    for shift in (0, 7)
    for i, (variant, topology) in enumerate(
        itertools.product(VARIANTS, ((1, 1), (2, 1), (1, 1, 1), (2, 2)))
    )
]
#: bounds the big configurations; both explorers stop at the same
#: transition
CAP = 4000


def explorer_config(topology, n_regions, rounds, writes, probes) -> Config:
    return Config(threads_per_processor=topology, n_regions=n_regions,
                  rounds=rounds, writes_per_round=writes, with_probes=probes)


def explorer_agrees(config: Config, variant: str) -> None:
    """The engine's sweep of the frontier kernel is the reference
    explorer's of ``JackalModel.successors`` (up to :data:`CAP` states):
    same state ids, transition order, label table, stats, limit and
    decoded state behind every id."""
    model = JackalModel(config, getattr(ProtocolVariant, variant)())
    ref, ref_stats, ref_limit = capped_sweep(explore, model)
    fast, fast_stats, fast_limit = capped_sweep(explore_fast, model)
    assert fast_limit == ref_limit
    assert_same_lts(fast, ref)
    assert sweep_stats(fast_stats) == sweep_stats(ref_stats)
    assert len(fast.state_meta) == ref.n_states
    assert fast.state_meta == ref.state_meta
    assert fast.state_meta.values() == [
        ref.state_meta[i] for i in range(ref.n_states)
    ]
    assert fast.state_meta.get(ref.n_states) is None


def capped_sweep(explorer, model, *, max_states: int = CAP):
    """``(lts, stats, limit message or None)`` of a sweep that keeps
    states and stops past ``max_states``."""
    stats = ExplorationStats()
    try:
        lts = explorer(model, stats=stats, keep_states=True,
                       max_states=max_states)
        return lts, stats, None
    except ExplorationLimitError as exc:
        assert exc.stats is stats
        return exc.partial, stats, str(exc)


def sweep_stats(s: ExplorationStats) -> tuple:
    return (s.states, s.transitions, s.max_frontier, s.depth, s.level_sizes)
