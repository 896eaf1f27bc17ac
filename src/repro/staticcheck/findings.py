"""Findings, severities and reports of the static protocol analyzer.

Every lint rule has a stable identifier (``JKL001``, ...) so findings
can be suppressed individually and CI gates stay meaningful as rules
are added. The numbering is grouped by analysis:

* ``JKL0xx`` — lockset dataflow over the protocol phase graph;
* ``JKL2xx`` — label cross-checks between the model and formulas;
* ``JKL3xx`` — reduction certification (symmetry/independence);
* ``JKL4xx`` — formula-directed reduction (symmetrization/slicing).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable

#: version of the JSON report layout (``repro lint --json``). Bump on
#: any structural change so CI artifact consumers can gate on it.
#: 2: added ``schema_version``/``fingerprint``, deterministic finding
#: order (rule, then location).
#: 3: findings carry an optional machine-readable ``data`` object
#: (expected-vs-found values, permutation maps, digests).
LINT_SCHEMA_VERSION = 3


class Severity(IntEnum):
    """How seriously a finding gates CI.

    Only :data:`Severity.ERROR` findings make ``repro lint`` exit
    nonzero; warnings and notes are informational.
    """

    NOTE = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name.lower()


#: rule id -> one-line description (the catalogue rendered by ``--rules``
#: and documented in docs/static-analysis.md)
RULES: dict[str, str] = {
    "JKL001": "a rule acquires a lock slot its thread already holds",
    "JKL002": "a rule releases a lock slot that may be free",
    "JKL003": "a thread can return to IDLE still holding a lock slot",
    "JKL004": "a rule waits for a lock while holding one that blocks its grant",
    "JKL005": "home-side operation reachable under the fault lock "
    "(the static signature of the paper's Error 1)",
    "JKL006": "a thread phase is unreachable from IDLE in the phase graph",
    "JKL201": "a formula references a label the model can never emit",
    "JKL202": "a label prefix in a formula matches nothing the model emits",
    "JKL301": "the model is not index-generic: no nontrivial "
    "processor/thread permutation applies, or its label vocabulary is not "
    "closed under one",
    "JKL302": "the bounded equivariance self-test found a state where "
    "permuting and stepping do not commute",
    "JKL303": "a reduction certificate's fingerprint does not match the "
    "current specification (stale certificate)",
    "JKL304": "a reduction certificate's signature is invalid "
    "(tampered or corrupt)",
    "JKL305": "a reduction certificate is malformed or its schema/group "
    "is unsupported for this configuration",
    "JKL401": "a requirement formula is asymmetric under the certified "
    "permutation group (no symmetrized orbit conjunction exists)",
    "JKL402": "permuting a formula literal leaves the model's label "
    "vocabulary (the symmetrized property would be vacuous)",
    "JKL403": "a field slice is inconsistent: a guard observes a dropped "
    "field, a dropped field flows into a kept one, or the congruence "
    "self-test found a counterexample",
    "JKL404": "a certificate's formulas/slices section is stale: "
    "re-deriving the analysis disagrees with what was signed",
}


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by the analyzer.

    Attributes
    ----------
    rule:
        Stable rule id (key of :data:`RULES`).
    severity:
        Gate level; see :class:`Severity`.
    location:
        Where the problem lives — a phase-graph edge, a process
        definition, or a formula, rendered as text (the analyzer works
        on in-memory objects, not files).
    message:
        Human-readable description of this concrete instance.
    data:
        Optional machine-readable payload (expected-vs-found values,
        digests, permutation maps) for CI consumers of the JSON
        report; ``None`` keeps the finding hashable-by-identity
        semantics unchanged for rules that carry none.
    """

    rule: str
    severity: Severity
    location: str
    message: str
    data: dict | None = None

    def render(self) -> str:
        """``JKL005 error  <location>: <message>``."""
        return f"{self.rule} {self.severity!s:<7} {self.location}: {self.message}"

    def as_dict(self) -> dict:
        out = {
            "rule": self.rule,
            "severity": str(self.severity),
            "location": self.location,
            "message": self.message,
        }
        if self.data is not None:
            out["data"] = self.data
        return out


@dataclass
class LintReport:
    """All findings of one ``repro lint`` run."""

    findings: list[Finding] = field(default_factory=list)
    #: rule ids dropped before reporting (from ``--suppress``)
    suppressed: tuple[str, ...] = ()
    #: fingerprint of the specification the findings are about (see
    #: :func:`repro.staticcheck.certificates.spec_fingerprint`); the key
    #: reduction certificates are issued under
    fingerprint: str | None = None

    def extend(self, more: Iterable[Finding]) -> None:
        self.findings.extend(
            f for f in more if f.rule not in self.suppressed
        )

    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == Severity.ERROR]

    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == Severity.WARNING]

    @property
    def exit_code(self) -> int:
        """0 when clean at error severity, 1 otherwise (the CI gate)."""
        return 1 if self.errors() else 0

    def render_text(self) -> str:
        lines = [f.render() for f in sorted(
            self.findings, key=lambda f: (-int(f.severity), f.rule, f.location)
        )]
        n_err, n_warn = len(self.errors()), len(self.warnings())
        lines.append(
            f"{len(self.findings)} finding(s): {n_err} error(s), "
            f"{n_warn} warning(s)"
        )
        if self.suppressed:
            lines.append(f"suppressed rules: {', '.join(self.suppressed)}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        # deterministic finding order (rule, then location) so CI
        # artifact diffs are stable across runs and pass ordering
        ordered = sorted(
            self.findings, key=lambda f: (f.rule, f.location, f.message)
        )
        return {
            "schema_version": LINT_SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "findings": [f.as_dict() for f in ordered],
            "errors": len(self.errors()),
            "warnings": len(self.warnings()),
            "suppressed": list(self.suppressed),
            "exit_code": self.exit_code,
        }

    def render_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)
