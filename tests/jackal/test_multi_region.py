"""Multi-region and multi-write configurations.

The paper's analysed configurations hold one region ("to avoid state
explosion, we only analysed configurations containing one region"), but
the protocol — and this model — is parametric in the region count and
in how many writes a thread performs per synchronisation round. These
tests cover the parametric behaviour the paper abstracted away.
"""

import dataclasses

import pytest

from repro.jackal import Config, JackalModel, ProtocolVariant
from repro.jackal.requirements import (
    check_all_requirements,
    check_requirement_1,
    check_requirement_3_1,
    check_requirement_3_2,
)
from repro.lts.explore import explore

TWO_REGIONS = Config(threads_per_processor=(1, 1), n_regions=2, rounds=1)


class TestTwoRegions:
    def test_all_requirements_hold(self):
        res = check_all_requirements(TWO_REGIONS, ProtocolVariant.fixed())
        for rep in res.values():
            assert rep.holds, rep.summary()

    def test_regions_migrate_independently(self):
        cfg = dataclasses.replace(TWO_REGIONS, with_probes=False)
        lts = explore(
            JackalModel(cfg, ProtocolVariant.fixed()), keep_states=True
        )
        # both regions can be fetched remotely (region ids appear in
        # message labels only indirectly; check via model walk)
        seen_regions = set()
        for state in lts.state_meta.values():
            threads = state[0]
            for th in threads:
                if th[0] != 0:  # any active phase records its region
                    seen_regions.add(th[1])
        assert seen_regions == {0, 1}
        assert lts.n_states > 300

    def test_error1_still_found_with_two_regions(self):
        cfg = dataclasses.replace(TWO_REGIONS, rounds=2)
        rep = check_requirement_1(cfg, ProtocolVariant.error1())
        assert not rep.holds

    def test_error2_still_found_with_two_regions(self):
        rep = check_requirement_3_2(TWO_REGIONS, ProtocolVariant.error2())
        assert not rep.holds

    def test_one_home_per_region_independently(self):
        rep = check_requirement_3_1(TWO_REGIONS, ProtocolVariant.fixed())
        assert rep.holds


class TestWritesPerRound:
    def test_requirements_hold_with_two_writes(self):
        cfg = Config(threads_per_processor=(1, 1), writes_per_round=2)
        res = check_all_requirements(cfg, ProtocolVariant.fixed())
        assert all(r.holds for r in res.values())

    def test_second_write_to_same_region_is_local(self):
        from repro.jackal.model import Phase

        cfg = Config(
            threads_per_processor=(1,), writes_per_round=2, with_probes=False
        )
        model = JackalModel(cfg, ProtocolVariant.fixed())
        # the second write to a dirty region takes the protocol-free
        # LOCAL path (access check passes on the cached copy)
        assert any(
            state[0][0][0] == Phase.LOCAL
            for state in explore(
                model, max_states=10_000, keep_states=True
            ).state_meta.values()
        )

    def test_two_writes_across_two_regions(self):
        cfg = Config(
            threads_per_processor=(1, 1),
            n_regions=2,
            writes_per_round=2,
            with_probes=False,
        )
        model = JackalModel(cfg, ProtocolVariant.fixed())
        lts = explore(model)
        from repro.lts.deadlock import find_deadlocks
        from repro.jackal.actions import PROBE_LABELS
        from repro.jackal.model import VIOLATION

        lts2 = explore(model, keep_states=True)
        rep = find_deadlocks(
            lts2,
            ignore_labels=PROBE_LABELS,
            is_valid_end=lambda s: s == VIOLATION or model.is_done_state(s),
        )
        assert rep.deadlock_free, rep.summary()
        assert lts.n_states > 1000

    def test_flush_handles_multiple_dirty_regions(self):
        cfg = Config(
            threads_per_processor=(1, 1),
            n_regions=2,
            writes_per_round=2,
            with_probes=False,
        )
        lts = explore(JackalModel(cfg, ProtocolVariant.fixed()))
        # a single flush round can carry two per-region flush steps
        flush_labels = {l for l in lts.labels if l.startswith(
            ("flush_home(", "send_flush(")
        )}
        assert flush_labels


class TestInitialHomePlacement:
    @pytest.mark.parametrize("home", [0, 1])
    def test_requirements_insensitive_to_initial_home(self, home):
        cfg = Config(threads_per_processor=(2, 1), initial_home=home)
        res = check_all_requirements(cfg, ProtocolVariant.fixed())
        assert all(r.holds for r in res.values())

    def test_error2_found_from_either_home(self):
        for home in (0, 1):
            cfg = Config(threads_per_processor=(2, 1), initial_home=home)
            rep = check_requirement_3_2(cfg, ProtocolVariant.error2())
            assert not rep.holds, f"initial home {home}"
