"""``check_all_requirements`` explores once and derives the plain LTS.

The derived LTS must *be* the separately swept one (same numbering, same
columns), the combined check must report what the five stand-alone
checks report, and the trace must show the sweeps that actually ran.
When only Requirements 1 and 2 are wanted, the one sweep keeps a search
tree instead of an LTS, and its reports must still be those of the
stand-alone checks on an explicitly built LTS.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.errors import ExplorationLimitError
from repro.jackal.actions import PROBE_LABELS
from repro.jackal.params import CONFIG_1, CONFIG_2, CONFIG_3, ProtocolVariant
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
from repro.lts.deadlock import shortest_trace_to
from repro.lts.engine import SearchTree, explore_fast, search_tree
from repro.staticcheck.symmetry import certify

FIXED = ProtocolVariant.fixed()

STAND_ALONE = {
    "1": check_requirement_1,
    "2": check_requirement_2,
    "3.1": check_requirement_3_1,
    "3.2": check_requirement_3_2,
    "4": check_requirement_4,
}

CONFIGS = {
    "c1r2": dataclasses.replace(CONFIG_1, rounds=2),
    "c2r1": dataclasses.replace(CONFIG_2, rounds=1),
    "c1cyc": dataclasses.replace(CONFIG_1, rounds=None),
}


#: the requirements that read an LTS (3.2 does on two processors)
LTS_READERS = ("3.1", "3.2", "4")

SWEEP_DECIDED = [
    (name, variant)
    for name in CONFIGS
    for variant in ("fixed", "error1", "error2", "buggy", "no_migration")
] + [("c3r2", variant) for variant in ("fixed", "error1", "error2")]


def _fields(rep):
    return (
        rep.requirement, rep.holds, rep.detail, rep.lts_states,
        rep.lts_transitions,
        None if rep.trace is None else rep.trace.labels,
    )


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS)
@pytest.mark.parametrize(
    "variant", ["fixed", "error1", "error2", "buggy", "no_migration"]
)
def test_derived_lts_and_reports_equal_separate_sweeps(variant, config):
    variant = getattr(ProtocolVariant, variant)()
    _m, swept = build_lts(config, variant, probes=False)
    _m, probe = build_lts(config, variant, probes=True, keep_states=True)
    derived = probe.without_labels(PROBE_LABELS)
    assert derived.labels == swept.labels
    assert derived.n_states == swept.n_states == probe.n_states
    for mine, theirs in zip(derived.columns(), swept.columns()):
        assert np.array_equal(mine, theirs)
    assert derived.state_meta is probe.state_meta

    reports = check_all_requirements(config, variant)
    assert list(reports) == list(STAND_ALONE)
    for key, check in STAND_ALONE.items():
        assert _fields(reports[key]) == _fields(check(config, variant)), key


def _recorded(config, **kwargs):
    with obs.Tracer(ring=100_000) as tracer, obs.activate(tracer):
        reports = check_all_requirements(config, FIXED, **kwargs)
    return reports, tracer.events()


def _count(events, ev):
    return sum(e["ev"] == ev for e in events)


def test_full_check_sweeps_once_and_derives():
    reports, events = _recorded(CONFIG_1)
    assert _count(events, "sweep_start") == _count(events, "sweep_end") == 1
    (derive,) = [e for e in events if e["ev"] == "lts_derive"]
    assert derive["kept"] == reports["4"].lts_transitions
    assert derive["kept"] + derive["dropped"] == reports["3.1"].lts_transitions
    assert derive["seconds"] >= 0
    assert _count(events, "check") == 5


def test_requirements_1_and_2_sweep_plain_only():
    reports, events = _recorded(CONFIG_1, skip=LTS_READERS)
    assert set(reports) == {"1", "2"}
    assert _count(events, "sweep_start") == _count(events, "sweep_end") == 1
    assert _count(events, "lts_derive") == 0
    (end,) = [e for e in events if e["ev"] == "sweep_end"]
    assert end["transitions"] == reports["1"].lts_transitions
    # the sweep kept a parent and a label id a state, no transition
    assert end["dest"] == "tree"
    assert end["dest_bytes"] == 8 * reports["1"].lts_states
    assert [e["requirement"] for e in events if e["ev"] == "check"] == [
        reports["1"].requirement, reports["2"].requirement,
    ]


def _config(name):
    if name == "c3r2":
        return dataclasses.replace(CONFIG_3, rounds=2)
    return CONFIGS[name]


@pytest.mark.parametrize(
    "name,variant", SWEEP_DECIDED, ids=[f"{c}-{v}" for c, v in SWEEP_DECIDED]
)
def test_sweep_decided_requirements_equal_the_lts_checks(name, variant):
    config, variant = _config(name), getattr(ProtocolVariant, variant)()
    reports = check_all_requirements(config, variant, skip=LTS_READERS)
    model, lts = build_lts(config, variant, probes=False, keep_states=True)
    assert _fields(reports["1"]) == _fields(
        check_requirement_1(config, variant, lts=lts, model=model)
    )
    assert _fields(reports["2"]) == _fields(
        check_requirement_2(config, variant, lts=lts)
    )


def test_sweep_decided_requirements_under_a_certificate():
    cert, findings = certify(CONFIG_1, FIXED)
    assert cert is not None, findings
    reports = check_all_requirements(
        CONFIG_1, FIXED, skip=LTS_READERS, certificate=cert
    )
    model, lts = build_lts(
        CONFIG_1, FIXED, probes=False, keep_states=True, certificate=cert
    )
    assert _fields(reports["1"]) == _fields(
        check_requirement_1(CONFIG_1, FIXED, lts=lts, model=model)
    )
    assert _fields(reports["2"]) == _fields(
        check_requirement_2(CONFIG_1, FIXED, lts=lts)
    )


def test_search_tree_is_the_first_discoverers_of_the_lts():
    # no protocol variant fires an assertion, so mark a common move
    model = build_model(CONFIGS["c1r2"], ProtocolVariant.error1(), probes=True)

    def mark(label):
        return label.startswith("flush(")

    tree = search_tree(model, ignore_labels=PROBE_LABELS, mark=mark)
    lts = explore_fast(model)
    src, lbl, dst = lts.columns()
    assert (tree.n_states, tree.n_transitions) == (
        lts.n_states, lts.n_transitions
    )
    # the first transition into each state discovered it
    states, first = np.unique(dst, return_index=True)
    first = first[states > 0]
    assert tree.parent[0] == -1 and len(first) == lts.n_states - 1
    assert np.array_equal(tree.parent[1:], src[first])
    assert [tree.labels[i] for i in tree.via[1:]] == [
        lts.labels[i] for i in lbl[first]
    ]
    is_marked = lts.label_mask(mark)
    assert np.array_equal(tree.marked, np.unique(src[is_marked[lbl]]))
    assert sorted(tree.marked_labels) == sorted(
        lab for lab in lts.labels if mark(lab)
    )
    assert tree.trace_to(tree.marked) == shortest_trace_to(lts, tree.marked)
    # without is_valid_end every terminal state is a deadlock; a probe
    # self-loop is no move
    stuck = lts.deadlock_states(ignore_labels=PROBE_LABELS)
    assert tree.deadlocks == stuck and not tree.terminal_ok
    assert len(stuck) > len(lts.deadlock_states()) == 0


def test_sweep_decided_limit_trips_where_the_plain_sweep_tripped():
    with pytest.raises(ExplorationLimitError) as plain:
        build_lts(CONFIG_1, FIXED, probes=False, max_states=100)
    with pytest.raises(ExplorationLimitError) as tree:
        check_all_requirements(
            CONFIG_1, FIXED, skip=LTS_READERS, max_states=100
        )
    assert str(tree.value) == str(plain.value)
    mine, theirs = tree.value.stats, plain.value.stats
    for field in ("states", "transitions", "depth", "max_frontier",
                  "level_sizes"):
        assert getattr(mine, field) == getattr(theirs, field), field
    # ``partial`` is the tree of the states numbered before the cut
    partial, lts = tree.value.partial, plain.value.partial
    assert isinstance(partial, SearchTree)
    assert partial.n_states == len(partial.parent) == lts.n_states == 101
    assert partial.n_transitions == lts.n_transitions
    assert partial.trace_to([100]) == shortest_trace_to(lts, [100])


def test_certificate_keeps_both_sweeps():
    cert, findings = certify(CONFIG_1, FIXED)
    assert cert is not None, findings
    reports, events = _recorded(CONFIG_1, certificate=cert)
    assert _count(events, "sweep_start") == 2
    assert _count(events, "lts_derive") == 0
    sizes = [
        (e["states"], e["transitions"])
        for e in events if e["ev"] == "sweep_end"
    ]
    assert sizes == [
        (reports["1"].lts_states, reports["1"].lts_transitions),
        (reports["3.1"].lts_states, reports["3.1"].lts_transitions),
    ]


def test_no_sweep_for_a_requirement_that_reads_no_lts():
    # 3.2 is formulated for two processors; on config 3 it is a constant
    reports, events = _recorded(CONFIG_3, skip=("1", "2", "3.1", "4"))
    assert set(reports) == {"3.2"}
    assert "skipped" in reports["3.2"].detail
    assert _count(events, "sweep_start") == 0


def test_state_limit_trips_where_the_plain_sweep_tripped():
    with pytest.raises(ExplorationLimitError) as plain:
        build_lts(CONFIG_1, FIXED, probes=False, max_states=100)
    with pytest.raises(ExplorationLimitError) as once:
        check_all_requirements(CONFIG_1, FIXED, max_states=100)
    assert once.value.stats.states == plain.value.stats.states == 101
    assert once.value.stats.depth == plain.value.stats.depth
    assert str(once.value) == str(plain.value)
