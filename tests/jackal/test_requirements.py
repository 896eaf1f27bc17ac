"""The paper's four requirements on the fixed protocol (Section 5.4)."""

import dataclasses

import pytest

from repro.jackal.params import CONFIG_1, CONFIG_2, CONFIG_3, ProtocolVariant
from repro.jackal.requirements import (
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

FIXED = ProtocolVariant.fixed()


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


class TestBitstateApproximation:
    """Supertrace-hashed requirement 1 for oversized configurations."""

    def test_finds_error1_deadlock(self):
        cfg = dataclasses.replace(CONFIG_1, rounds=None)
        from repro.jackal.requirements import check_requirement_1_bitstate

        rep = check_requirement_1_bitstate(
            cfg, ProtocolVariant.error1(), table_bytes=1 << 20
        )
        assert not rep.holds
        assert "improper terminal" in rep.detail

    def test_clean_on_fixed(self):
        cfg = dataclasses.replace(CONFIG_1, rounds=None)
        from repro.jackal.requirements import check_requirement_1_bitstate

        rep = check_requirement_1_bitstate(
            cfg, ProtocolVariant.fixed(), table_bytes=1 << 20
        )
        assert rep.holds
        assert "fill" in rep.detail

    def test_sweeps_config3(self):
        from repro.jackal.requirements import check_requirement_1_bitstate

        rep = check_requirement_1_bitstate(
            CONFIG_3, ProtocolVariant.fixed(), table_bytes=1 << 22
        )
        assert rep.holds
        assert rep.lts_states > 5000

    @pytest.mark.slow
    def test_config3_cyclic_prefix_deadlock_free(self):
        # regression for the store-and-forward wedge that existed before
        # migrations moved to their control slot: a 300k-state prefix of
        # the cyclic 3-processor instance used to contain deadlocks
        cfg = dataclasses.replace(CONFIG_3, rounds=None)
        from repro.jackal.requirements import check_requirement_1_bitstate

        rep = check_requirement_1_bitstate(
            cfg, ProtocolVariant.fixed(),
            table_bytes=1 << 23, max_states=300_000,
        )
        assert rep.holds, rep.detail
