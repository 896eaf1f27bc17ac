"""The paper's four requirements on the fixed protocol (Section 5.4)."""

import dataclasses
from pathlib import Path

import pytest

from repro.errors import ExplorationLimitError, ReproError
from repro.jackal.params import CONFIG_1, CONFIG_2, CONFIG_3, ProtocolVariant
from repro.jackal.requirements import (
    _valid_end,
    build_lts,
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
from repro.lts.engine import search_tree

FIXED = ProtocolVariant.fixed()
ROOT = Path(__file__).resolve().parents[2]


class TestConfig1:
    def test_all_requirements_hold(self):
        res = check_all_requirements(CONFIG_1, FIXED)
        for key, rep in res.items():
            assert rep.holds, rep.summary()
        assert set(res) == {"1", "2", "3.1", "3.2", "4"}

    def test_two_rounds(self):
        cfg = dataclasses.replace(CONFIG_1, rounds=2)
        res = check_all_requirements(cfg, FIXED)
        assert all(r.holds for r in res.values())

    def test_cyclic_model_uses_fair_liveness(self):
        cfg = dataclasses.replace(CONFIG_1, rounds=None)
        rep = check_requirement_4(cfg, FIXED)
        assert "fair" in rep.requirement
        assert rep.holds, rep.detail

    def test_cyclic_model_deadlock_free(self):
        cfg = dataclasses.replace(CONFIG_1, rounds=None)
        rep = check_requirement_1(cfg, FIXED)
        assert rep.holds

    def test_requirement_1_refuses_an_lts_without_states(self):
        # a bounded model ends properly in a state with every thread
        # done; an LTS that kept no states cannot tell that end from a
        # deadlock, so the check refuses it instead of a false violation
        _model, lts = build_lts(CONFIG_1, FIXED, probes=False)
        with pytest.raises(ReproError, match="keep_states=True"):
            check_requirement_1(CONFIG_1, FIXED, lts=lts)
        _model, kept = build_lts(CONFIG_1, FIXED, probes=False, keep_states=True)
        assert check_requirement_1(CONFIG_1, FIXED, lts=kept).holds


class TestConfig2:
    def test_requirements_1_to_3(self):
        rep1 = check_requirement_1(CONFIG_2, FIXED)
        assert rep1.holds, rep1.summary()
        rep2 = check_requirement_2(CONFIG_2, FIXED)
        assert rep2.holds
        rep31 = check_requirement_3_1(CONFIG_2, FIXED)
        assert rep31.holds
        rep32 = check_requirement_3_2(CONFIG_2, FIXED)
        assert rep32.holds

    def test_requirement_4(self):
        rep = check_requirement_4(CONFIG_2, FIXED)
        assert rep.holds, rep.detail


class TestConfig3:
    """The paper could only check requirements 1 and 2 on its third
    configuration; ours is tractable enough for those too."""

    def test_requirements_1_and_2(self):
        rep1 = check_requirement_1(CONFIG_3, FIXED)
        assert rep1.holds, rep1.summary()
        rep2 = check_requirement_2(CONFIG_3, FIXED)
        assert rep2.holds

    def test_requirement_3_2_skipped_for_three_processors(self):
        rep = check_requirement_3_2(CONFIG_3, FIXED)
        # never ran: neither a pass nor a failure
        assert rep.holds is None
        assert rep.verdict == "NOT CHECKED"
        assert "skipped" in rep.detail
        assert rep.summary().startswith("requirement 3.2 (bounded copies "
                                        "when stable): NOT CHECKED")


class TestReportPlumbing:
    def test_reports_carry_lts_sizes(self):
        rep = check_requirement_1(CONFIG_1, FIXED)
        assert rep.lts_states > 100
        assert rep.lts_transitions > rep.lts_states

    def test_summary_wording(self):
        rep = check_requirement_1(CONFIG_1, FIXED)
        assert "HOLDS" in rep.summary()

    def test_skip_selection(self):
        res = check_all_requirements(CONFIG_1, FIXED, skip=("3.1", "3.2", "4"))
        assert set(res) == {"1", "2"}

    def test_formula_builders_parse_equivalent(self):
        from repro.mucalc.parser import parse_formula

        assert formula_3_1() == parse_formula("[T*.c_home] F")
        f = formula_4_write(0)
        g = parse_formula(
            "[T*.write(t0)] mu X. (<T>T /\\ [not writeover(t0)] X)"
        )
        assert f == g
        assert formula_4_write(1, fair=True) == parse_formula(
            "[T*.write(t1).(not writeover(t1))*] "
            "<(not writeover(t1))*.writeover(t1)> T"
        )
        assert formula_4_flush(0) == parse_formula(
            "[T*.flush(t0)] mu X. (<T>T /\\ [not flushover(t0)] X)"
        )
        assert formula_4_flush(0, fair=True) == parse_formula(
            "[T*.flush(t0).(not flushover(t0))*] "
            "<(not flushover(t0))*.flushover(t0)> T"
        )
        # parenthesised on purpose: the flat conjunction of the paper's
        # text parses left-associated, the builder's tree is balanced
        assert formula_3_2_bad_state() == parse_formula(
            "<T*> ((<c_copy>T /\\ <lock_empty>T) /\\ "
            "(<homequeue_empty>T /\\ <remotequeue_empty>T))"
        )

    def test_formula_texts_are_the_design_rows(self):
        # the builders parse these strings; DESIGN.md quotes them
        from repro.jackal import requirements as rq

        rows: dict = {}  # the artefact table, before the experiment index
        for line in (ROOT / "DESIGN.md").read_text().splitlines():
            if line.startswith("| R"):
                cells = line.split("|")
                rows.setdefault(cells[1].strip(), cells[3])
        assert f"`{rq.R3_1}`" in rows["R3.1"]
        assert f"`{rq.R3_2_BAD_STATE}` is false" in rows["R3.2"]
        for text in (rq.R4_EXACT, rq.R4_FAIR):
            row = text.format(start="write(t)", finish="writeover(t)")
            assert f"`{row}`" in rows["R4"]


class TestNoMigrationAblation:
    """With migration disabled both bugs are impossible by construction
    and all requirements hold — the ablation baseline."""

    def test_all_requirements_hold_without_migration(self):
        res = check_all_requirements(CONFIG_1, ProtocolVariant.no_migration())
        assert all(r.holds for r in res.values())

    def test_no_migration_smaller_state_space(self):
        full = check_requirement_1(CONFIG_1, FIXED)
        ablated = check_requirement_1(CONFIG_1, ProtocolVariant.no_migration())
        assert ablated.lts_states < full.lts_states


class TestStoreAndForwardRegression:
    """The cyclic 3-processor instance, swept exactly up to a cap."""

    def test_config3_cyclic_prefix_deadlock_free(self):
        # regression for the store-and-forward wedge that existed before
        # migrations moved to their control slot: a 300k-state prefix of
        # the cyclic 3-processor instance used to contain deadlocks
        cfg = dataclasses.replace(CONFIG_3, rounds=None)
        model = build_model(cfg, ProtocolVariant.fixed(), probes=False)
        with pytest.raises(ExplorationLimitError) as info:
            search_tree(
                model, is_valid_end=_valid_end(model), max_states=300_000
            )
        tree = info.value.partial
        assert tree.n_states >= 300_000
        assert not tree.deadlocks
