"""``check_all_requirements`` explores once and derives the plain LTS.

The derived LTS must *be* the separately swept one (same numbering, same
columns), the combined check must report what the five stand-alone
checks report, and the trace must show the sweeps that actually ran.
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
    check_all_requirements,
    check_requirement_1,
    check_requirement_2,
    check_requirement_3_1,
    check_requirement_3_2,
    check_requirement_4,
)
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
    reports, events = _recorded(CONFIG_1, skip=("3.1", "3.2", "4"))
    assert set(reports) == {"1", "2"}
    assert _count(events, "sweep_start") == 1
    assert _count(events, "lts_derive") == 0
    (end,) = [e for e in events if e["ev"] == "sweep_end"]
    assert end["transitions"] == reports["1"].lts_transitions


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
