"""Cross-check formula labels against the model's label vocabulary.

A mu-calculus requirement that quotes a label the model can never emit
is *vacuously* satisfied (a box over an empty match set holds
everywhere), which is exactly how a misspelt label silently turns a
liveness check off. This pass enumerates every label the model can emit
— statically, from the ``lbl_*`` tables that
``JackalModel._precompute_labels`` builds for the configured thread and
processor counts — and diffs that vocabulary against the action
literals appearing in requirement formulas:

* **JKL201** — an exact label literal matches no emittable label;
* **JKL202** — a prefix literal (``ActLit(..., prefix=True)``) matches
  no emittable label.

Both are errors: a formula over a phantom label checks nothing.

The enumeration is an over-approximation of *reachably* emitted labels
(a rule's label is listed even if its guard never fires in the explored
configuration) with two variant-aware refinements: ``fault_to_server``
only exists when the variant has the Error-1 fix, ``stale_remote_wait``
only when it does not, and probe labels only when the configuration
enables probes.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.jackal.actions import PROBE_LABELS
from repro.mucalc.syntax import (
    ActionPredicate,
    ActLit,
    Box,
    Diamond,
    Formula,
    NotAct,
    OrAct,
    RAct,
    RAlt,
    Regular,
    RSeq,
    RStar,
    subformulas,
)
from repro.staticcheck.findings import Finding, Severity


def _flatten(value: Any, out: set[str]) -> None:
    if isinstance(value, str):
        out.add(value)
    elif isinstance(value, (list, tuple)):
        for v in value:
            _flatten(v, out)


def model_labels(model: Any) -> frozenset[str]:
    """Every label ``model`` can emit, from its precomputed tables."""
    out: set[str] = set()
    for attr, value in vars(model).items():
        if attr.startswith("lbl_"):
            _flatten(value, out)
    # variant refinement: exactly one of the two Error-1 rules exists
    if model.variant.fault_lock_recheck:
        out.difference_update(model.lbl_stale)
    else:
        out.difference_update(model.lbl_f2s)
    if model.config.with_probes:
        out.update(PROBE_LABELS)
    return frozenset(out)


def _lits_in_pred(pred: ActionPredicate) -> Iterator[ActLit]:
    if isinstance(pred, ActLit):
        yield pred
    elif isinstance(pred, NotAct):
        yield from _lits_in_pred(pred.inner)
    elif isinstance(pred, OrAct):
        yield from _lits_in_pred(pred.left)
        yield from _lits_in_pred(pred.right)
    # AnyAct quotes no label


def _lits_in_regular(reg: Regular) -> Iterator[ActLit]:
    if isinstance(reg, RAct):
        yield from _lits_in_pred(reg.pred)
    elif isinstance(reg, (RSeq, RAlt)):
        yield from _lits_in_regular(reg.left)
        yield from _lits_in_regular(reg.right)
    elif isinstance(reg, RStar):
        yield from _lits_in_regular(reg.inner)


def formula_literals(formula: Formula) -> list[ActLit]:
    """All :class:`ActLit` occurrences in ``formula``, modalities
    included, in deterministic order."""
    out: list[ActLit] = []
    for sub in subformulas(formula):
        if isinstance(sub, (Box, Diamond)):
            out.extend(_lits_in_regular(sub.reg))
    seen: set[ActLit] = set()
    unique: list[ActLit] = []
    for lit in out:
        if lit not in seen:
            seen.add(lit)
            unique.append(lit)
    return unique


def lint_labels(
    model: Any, formulas: Iterable[tuple[str, Formula]]
) -> list[Finding]:
    """Diff the labels quoted by ``formulas`` against ``model``'s
    vocabulary."""
    labels = model_labels(model)
    findings: list[Finding] = []
    for name, formula in formulas:
        for lit in formula_literals(formula):
            if lit.prefix:
                if not any(label.startswith(lit.label) for label in labels):
                    findings.append(
                        Finding(
                            "JKL202",
                            Severity.ERROR,
                            name,
                            f"label prefix {lit.label!r}* matches none of "
                            f"the {len(labels)} labels this model can "
                            "emit: the modality is vacuous",
                        )
                    )
            elif lit.label not in labels:
                findings.append(
                    Finding(
                        "JKL201",
                        Severity.ERROR,
                        name,
                        f"label {lit.label!r} is never emitted by this "
                        "model (misspelt, or out of range for "
                        f"{model.config.n_threads} threads / "
                        f"{model.config.n_processors} processors): the "
                        "formula is vacuous",
                    )
                )
    return findings
