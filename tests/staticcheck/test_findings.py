"""The lint report contract: schema version, ordering, fingerprint."""

import json

from repro.jackal.params import CONFIG_1, ProtocolVariant
from repro.staticcheck import run_lint
from repro.staticcheck.findings import (
    LINT_SCHEMA_VERSION,
    Finding,
    LintReport,
    Severity,
)


def test_json_report_carries_schema_version_and_fingerprint():
    report = run_lint(CONFIG_1, ProtocolVariant.fixed())
    data = json.loads(report.render_json())
    assert data["schema_version"] == LINT_SCHEMA_VERSION
    assert LINT_SCHEMA_VERSION >= 2
    # 64 hex chars: the key reduction certificates are issued under
    assert isinstance(data["fingerprint"], str)
    assert len(data["fingerprint"]) == 64


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


def test_same_spec_same_fingerprint_across_runs():
    r1 = run_lint(CONFIG_1, ProtocolVariant.fixed())
    r2 = run_lint(CONFIG_1, ProtocolVariant.fixed())
    assert r1.fingerprint == r2.fingerprint
    r3 = run_lint(CONFIG_1, ProtocolVariant.error1())
    assert r3.fingerprint != r1.fingerprint
