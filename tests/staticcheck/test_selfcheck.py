"""The analyzer's self-check: the shipped artefacts lint clean, the
seeded Error-1 mutation is caught, and no LTS is ever built."""

import importlib
import time

import pytest

from repro.jackal.params import CONFIG_1, CONFIG_2, CONFIG_3, ProtocolVariant
from repro.staticcheck.analyzer import run_lint


@pytest.fixture(autouse=True)
def _no_exploration(monkeypatch):
    """``repro lint`` must never explore the state space."""

    def boom(*_args, **_kwargs):  # pragma: no cover - failure path
        raise AssertionError("static analysis must not build an LTS")

    # the submodule is shadowed by the function `repro.lts.explore`
    # re-exported on the package, so resolve it through importlib
    monkeypatch.setattr(
        importlib.import_module("repro.lts.engine"), "explore_fast", boom
    )
    monkeypatch.setattr(
        importlib.import_module("repro.lts.explore"), "explore", boom
    )
    # also the already-imported binding the requirement checks use
    monkeypatch.setattr(
        importlib.import_module("repro.jackal.requirements"),
        "explore_fast",
        boom,
    )


@pytest.mark.parametrize("config", [CONFIG_1, CONFIG_2, CONFIG_3])
def test_shipped_artefacts_lint_clean(config):
    report = run_lint(config, ProtocolVariant.fixed())
    assert report.findings == []
    assert report.exit_code == 0


@pytest.mark.parametrize(
    "variant",
    [
        ProtocolVariant.fixed(),
        ProtocolVariant.error2(),
        ProtocolVariant.no_migration(),
        ProtocolVariant.alf(),
    ],
)
def test_variants_without_error1_are_clean(variant):
    assert run_lint(CONFIG_1, variant).findings == []


@pytest.mark.parametrize(
    "variant", [ProtocolVariant.error1(), ProtocolVariant.buggy()]
)
def test_error1_mutation_fires_jkl005(variant):
    """Reintroducing the Error-1 bug (no post-fault-lock re-check) must
    produce the fault-lock/home-path finding and a nonzero exit."""
    report = run_lint(CONFIG_1, variant)
    rules = [f.rule for f in report.errors()]
    assert rules == ["JKL005"]
    (finding,) = report.errors()
    assert "stale_remote_wait" in finding.location
    assert "fault lock" in finding.message
    assert report.exit_code == 1


def test_suppression_turns_the_gate_off():
    report = run_lint(
        CONFIG_1, ProtocolVariant.error1(), suppress=("JKL005",)
    )
    assert report.findings == []
    assert report.exit_code == 0
    assert report.suppressed == ("JKL005",)


def test_full_run_is_fast():
    start = time.perf_counter()
    for config in (CONFIG_1, CONFIG_2, CONFIG_3):
        run_lint(config, ProtocolVariant.fixed())
        run_lint(config, ProtocolVariant.buggy())
    assert time.perf_counter() - start < 5.0
