"""``check_all_requirements`` explores once and stores one LTS.

The trace must show the sweeps that actually ran: for a full
uncertified check one probe sweep that stores the plain LTS and
observes the probe self-loops as per-state bits, one sweep that keeps
a search tree when only Requirements 1 and 2 are wanted, none for a
requirement that reads no LTS, two under a certificate (the probe one
a search tree); a state limit trips where the plain sweep trips. That
the stored LTS *is* the plain sweep and the bits the probe
self-loops, that the stand-alone checks report what the plan reports
and that the search tree decides Requirements 1-2 as the LTS does is
the differential harness's (``tests/conformance/``); the tests here
named for those are views onto its cells.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.errors import ExplorationLimitError
from repro.jackal.actions import PROBE_LABELS
from repro.jackal.params import CONFIG_1, CONFIG_3, ProtocolVariant
from repro.jackal.requirements import (
    build_lts,
    check_all_requirements,
    check_requirement_1,
)
from repro.lts.deadlock import shortest_trace_to
from repro.lts.engine import SearchTree
from repro.lts.lts import LTS
from repro.staticcheck.symmetry import certify
from tests.conformance.harness import LTS_READERS, Cell

FIXED = ProtocolVariant.fixed()


def _recorded(config, **kwargs):
    with obs.Tracer(ring=100_000) as tracer, obs.activate(tracer):
        reports = check_all_requirements(config, FIXED, **kwargs)
    return reports, tracer.events()


def _count(events, ev):
    return sum(e["ev"] == ev for e in events)


def test_full_check_sweeps_once_and_derives():
    reports, events = _recorded(CONFIG_1)
    assert _count(events, "sweep_start") == _count(events, "sweep_end") == 1
    (end,) = [e for e in events if e["ev"] == "sweep_end"]
    # the sweep stores the plain LTS and observes the probe self-loops
    assert end["transitions"] == reports["4"].lts_transitions
    assert (reports["4"].lts_transitions + end["observed"]
            == reports["3.1"].lts_transitions)
    assert end["observed"] > 0
    assert end["dest"] == "columns"
    assert end["dest_bytes"] == 12 * reports["4"].lts_transitions
    assert _count(events, "check") == 5


@pytest.fixture
def built(monkeypatch):
    """Every LTS built through ``LTS.from_columns`` while the test runs."""
    out = []
    from_columns = LTS.from_columns.__func__

    def recording(cls, **kwargs):
        out.append(from_columns(cls, **kwargs))
        return out[-1]

    monkeypatch.setattr(LTS, "from_columns", classmethod(recording))
    return out


@pytest.mark.parametrize("variant", ["fixed", "error2"])
def test_full_check_builds_one_lts_and_no_probe_row(built, variant):
    reports = check_all_requirements(
        CONFIG_1, getattr(ProtocolVariant, variant)()
    )
    lts, *residues = built
    assert not set(PROBE_LABELS) & set(lts.labels)
    assert (lts.n_states, lts.n_transitions) == (
        reports["4"].lts_states, reports["4"].lts_transitions
    )
    assert (lts.n_transitions + lts.observed.count
            == reports["3.1"].lts_transitions)
    # besides it, a violated Requirement 4 builds only the non-progress
    # subgraph its lasso search runs on
    assert len(residues) == (reports["4"].holds is False)
    assert all(sub.n_transitions < lts.n_transitions for sub in residues)


def test_certified_check_stores_no_probe_transition(built):
    cert, findings = certify(CONFIG_1, FIXED)
    assert cert is not None, findings
    check_all_requirements(CONFIG_1, FIXED, certificate=cert)
    assert built  # the plain quotient and its unfolding
    for lts in built:
        assert not set(PROBE_LABELS) & set(lts.labels)


def test_stand_alone_requirement_1_is_decided_in_the_sweep():
    with obs.Tracer(ring=100_000) as tracer, obs.activate(tracer):
        report = check_requirement_1(CONFIG_3, FIXED)
    events = tracer.events()
    (end,) = [e for e in events if e["ev"] == "sweep_end"]
    assert end["dest"] == "tree"
    (check,) = [e for e in events if e["ev"] == "check"]
    assert check["requirement"] == report.requirement
    assert check["states"] == end["states"] == report.lts_states


def test_requirement_1_on_a_partial_lts_sweeps_nothing():
    with pytest.raises(ExplorationLimitError) as exc:
        build_lts(CONFIG_1, FIXED, probes=False, max_states=100)
    partial = exc.value.partial
    with obs.Tracer(ring=100_000) as tracer, obs.activate(tracer):
        report = check_requirement_1(CONFIG_1, FIXED, lts=partial)
    assert report.lts_states == partial.n_states == 101
    assert _count(tracer.events(), "sweep_end") == 0
    assert _count(tracer.events(), "check") == 1


def test_requirements_1_and_2_sweep_plain_only():
    reports, events = _recorded(CONFIG_1, skip=LTS_READERS)
    assert set(reports) == {"1", "2"}
    assert _count(events, "sweep_start") == _count(events, "sweep_end") == 1
    (end,) = [e for e in events if e["ev"] == "sweep_end"]
    assert end["transitions"] == reports["1"].lts_transitions
    assert end["observed"] == 0
    # the sweep kept a parent and a label id a state, no transition
    assert end["dest"] == "tree"
    assert end["dest_bytes"] == 8 * reports["1"].lts_states
    assert [e["requirement"] for e in events if e["ev"] == "check"] == [
        reports["1"].requirement, reports["2"].requirement,
    ]


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
    ends = [e for e in events if e["ev"] == "sweep_end"]
    sizes = [(e["states"], e["transitions"] + e["observed"]) for e in ends]
    assert sizes == [
        (reports["1"].lts_states, reports["1"].lts_transitions),
        (reports["3.1"].lts_states, reports["3.1"].lts_transitions),
    ]
    # the probe quotient keeps a search tree and observes its probes
    assert [e["dest"] for e in ends] == ["columns", "tree"]
    assert ends[0]["observed"] == 0 < ends[1]["observed"]


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


# -- views onto the differential harness (tests/conformance/) -------------

CELLS = [
    Cell(config, variant)
    for config in ("c1r2", "c2r1", "c1cyc")
    for variant in ("fixed", "error1", "error2", "buggy", "no_migration")
]


@pytest.mark.parametrize(
    "cell", CELLS, ids=lambda cell: f"{cell.variant}-{cell.config}"
)
def test_derived_lts_and_reports_equal_separate_sweeps(agree, cell):
    agree(cell, "explore_fast", "stand_alone")


@pytest.mark.parametrize(
    "cell", [Cell("c1r1", "fixed")], ids=["c1-certified"]
)
def test_stand_alone_checks_are_the_plan(agree, cell):
    agree(cell, "certified")


@pytest.mark.parametrize("cell", CELLS, ids=str)
def test_sweep_decided_requirements_equal_the_lts_checks(agree, cell):
    agree(cell, "search_tree")


def test_sweep_decided_requirements_under_a_certificate(agree):
    agree(Cell("c1r1", "fixed"), "certified")


def test_search_tree_is_the_first_discoverers_of_the_lts(agree):
    agree(Cell("c1r2", "error1"), "search_tree")
