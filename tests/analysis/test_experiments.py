"""Tests for the Table 8 runner, and for Error 1's dependence on migration."""

import dataclasses

import pytest

from repro.analysis.experiments import run_table8
from repro.jackal.params import CONFIG_1, Config, ProtocolVariant
from repro.jackal.requirements import check_all_requirements, check_requirement_1


def test_run_table8_small():
    rows = run_table8(rounds=1, configs={"1": CONFIG_1})
    assert len(rows) == 1
    row = rows[0]
    assert row.all_hold
    assert set(row.requirements) == {"1", "2", "3.1", "3.2", "4"}
    assert row.states > 100
    d = row.as_dict()
    assert d["config"] == "1" and d["all_hold"] is True


@pytest.mark.parametrize(
    "cfg3,label",
    [
        (Config(threads_per_processor=(1, 1, 1), rounds=1), "3"),
        # cyclic: decided on the certified symmetry quotient
        (Config(threads_per_processor=(1, 1, 0), rounds=None),
         "3 (certified quotient)"),
    ],
    ids=["rounds1", "cyclic"],
)
def test_run_table8_skips_mu_calc_on_three_processors(cfg3, label):
    [row] = run_table8(rounds=cfg3.rounds, configs={"3": cfg3})
    assert set(row.requirements) == {"1", "2"}
    assert row.all_hold
    assert row.config == label
    if cfg3.rounds is None:
        # quotient counts, never shown as concrete ones
        unreduced = check_all_requirements(cfg3, skip=("3.1", "3.2", "4"))
        assert unreduced["1"].lts_states == 27_555
        assert row.states == 20_488


def test_error1_not_reproduced_without_migration():
    # Error 1 needs home migration: with it off, even the buggy fault-lock
    # path cannot deadlock, and neither can the fixed protocol
    cfg = dataclasses.replace(CONFIG_1, rounds=None)
    buggy = check_requirement_1(cfg, ProtocolVariant(False, True, False))
    fixed = check_requirement_1(cfg, ProtocolVariant.no_migration())
    assert buggy.holds and fixed.holds
    assert buggy.trace is None
