"""Tests for lasso/livelock detection."""

import dataclasses

import pytest

from repro.jackal import CONFIG_2, JackalModel, ProtocolVariant
from repro.lts.cycles import find_lasso_avoiding
from repro.lts.explore import explore
from repro.lts.lts import LTS
from tests.oracles import lts_of


def looped() -> LTS:
    return lts_of([(0, "a", 1), (1, "spin", 2), (2, "spin", 1), (1, "done", 3)])


def test_finds_simple_lasso():
    lasso = find_lasso_avoiding(looped(), ["done"])
    assert lasso is not None
    assert lasso.prefix.labels == ("a",)
    assert set(lasso.cycle.labels) == {"spin"}
    assert len(lasso) == 3


def test_progress_on_cycle_means_no_lasso():
    lasso = find_lasso_avoiding(looped(), ["spin"])
    assert lasso is None


def test_predicate_form():
    lasso = find_lasso_avoiding(looped(), lambda l: l.startswith("done"))
    assert lasso is not None


def test_self_loop_detected():
    l = lts_of([(0, "a", 1), (1, "idle", 1)])
    lasso = find_lasso_avoiding(l, ["a"])
    assert lasso.cycle.labels == ("idle",)


def test_ignored_self_loops():
    l = lts_of([(0, "probe", 0), (0, "a", 1)])
    assert find_lasso_avoiding(l, ["a"], ignore_self_loops_of=["probe"]) is None


def test_acyclic_graph():
    l = lts_of([(0, "a", 1), (1, "b", 2)])
    assert find_lasso_avoiding(l, []) is None


def test_error2_flush_storm_is_a_lasso():
    """The lost home makes flushes bounce forever: a concrete lasso."""
    cfg = dataclasses.replace(CONFIG_2, rounds=1, with_probes=False)
    lts = explore(JackalModel(cfg, ProtocolVariant.error2()))
    progress = [
        l for l in lts.labels
        if l.startswith(("writeover", "flushover"))
    ]
    lasso = find_lasso_avoiding(lts, progress)
    assert lasso is not None
    # the cycle is message forwarding between the two processors
    assert all(
        lab.startswith(("forward_", "lock_homequeue")) for lab in lasso.cycle.labels
    ), lasso.cycle.labels


def test_fixed_protocol_has_no_unproductive_cycle():
    cfg = dataclasses.replace(CONFIG_2, rounds=1, with_probes=False)
    lts = explore(JackalModel(cfg, ProtocolVariant.fixed()))
    progress = [
        l for l in lts.labels
        if l.startswith(("writeover", "flushover"))
    ]
    assert find_lasso_avoiding(lts, progress) is None
