"""The ``repro lint`` driver: run every static analysis, one report.

Two exploration-free passes over the protocol model:

1. lockset dataflow over the phase graph of the selected
   :class:`~repro.jackal.params.ProtocolVariant` (JKL0xx);
2. label cross-check between the model's vocabulary and the
   requirement formulas (JKL2xx).

None of them builds an LTS — the analyzer only constructs the model
object (for its precomputed label tables) and walks syntax, so a full
run finishes in well under a second where exploration takes minutes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Sequence

from repro.jackal.model import JackalModel
from repro.jackal.params import Config, ProtocolVariant
from repro.jackal.requirements import (
    formula_3_1,
    formula_3_2_bad_state,
    formula_4_flush,
    formula_4_write,
)
from repro.mucalc.syntax import Formula
from repro.staticcheck.findings import LintReport
from repro.staticcheck.labelcheck import lint_labels
from repro.staticcheck.lockset import lint_locksets
from repro.staticcheck.phasegraph import phase_graph


def default_formulas(config: Config) -> list[tuple[str, Formula]]:
    """The requirement formulas a ``check`` run would evaluate on
    ``config``, with the names used in finding locations."""
    out: list[tuple[str, Formula]] = [("formula_3_1", formula_3_1())]
    if config.n_processors == 2:
        out.append(("formula_3_2_bad_state", formula_3_2_bad_state()))
    for tid in range(config.n_threads):
        out.append((f"formula_4_write(t{tid})", formula_4_write(tid)))
        out.append((f"formula_4_flush(t{tid})", formula_4_flush(tid)))
    return out


def run_lint(
    config: Config,
    variant: ProtocolVariant,
    *,
    formulas: Iterable[tuple[str, Formula]] | None = None,
    suppress: Sequence[str] = (),
) -> LintReport:
    """Run all static analyses and collect one :class:`LintReport`.

    ``formulas`` defaults to the requirement formulas of ``config``
    (pass extra ``(name, formula)`` pairs to vet your own properties).
    The label cross-check always runs against the probe-enabled model,
    mirroring how Requirement 3 builds its LTS.
    """
    report = LintReport(suppressed=tuple(suppress))

    # 1. lockset dataflow over the phase graph
    report.extend(lint_locksets(phase_graph(variant)))

    # 2. label cross-check (probe labels are part of the vocabulary,
    #    as in the Requirement-3 LTS builds)
    model = JackalModel(replace(config, with_probes=True), variant)
    named = default_formulas(config) if formulas is None else list(formulas)
    report.extend(lint_labels(model, named))

    # the key any reduction certificate for this spec is issued under;
    # computed on every run so consumers can match report to CERT.json
    from repro.staticcheck.certificates import spec_fingerprint

    report.fingerprint = spec_fingerprint(config, variant)

    return report
