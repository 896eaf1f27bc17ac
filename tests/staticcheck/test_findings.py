"""The lint report contract: schema version, ordering, determinism."""

import json

from repro.jackal.params import CONFIG_1, ProtocolVariant
from repro.staticcheck.analyzer import run_lint
from repro.staticcheck.findings import (
    LINT_SCHEMA_VERSION,
    Finding,
    LintReport,
    Severity,
)


def test_json_report_carries_schema_version():
    report = run_lint(CONFIG_1, ProtocolVariant.fixed())
    data = json.loads(report.render_json())
    assert data["schema_version"] == LINT_SCHEMA_VERSION
    # 4: no certificate is keyed to a file, so no spec fingerprint
    assert LINT_SCHEMA_VERSION >= 4
    assert "fingerprint" not in data


def test_finding_order_is_deterministic():
    """Findings serialize sorted by (rule, location, message), no
    matter the order the analysis passes emitted them in."""
    a = Finding("JKL202", Severity.WARNING, "b-loc", "m")
    b = Finding("JKL005", Severity.ERROR, "z-loc", "m")
    c = Finding("JKL005", Severity.ERROR, "a-loc", "m")
    for order in ([a, b, c], [c, a, b], [b, c, a]):
        report = LintReport(findings=list(order))
        rules = [
            (f["rule"], f["location"])
            for f in report.as_dict()["findings"]
        ]
        assert rules == [
            ("JKL005", "a-loc"),
            ("JKL005", "z-loc"),
            ("JKL202", "b-loc"),
        ]


def test_same_spec_same_report_across_runs():
    r1 = run_lint(CONFIG_1, ProtocolVariant.fixed())
    r2 = run_lint(CONFIG_1, ProtocolVariant.fixed())
    assert r1.render_json() == r2.render_json()
