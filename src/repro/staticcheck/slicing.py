"""Cone-of-influence slicing, read off the kernel's rule table.

The frontier kernel (:mod:`repro.jackal.kernel`) holds the protocol as
a table of guarded :class:`~repro.jackal.kernel.Rule` instances over
the leaf fields of its packed :class:`~repro.jackal.kernel.Layout`.
:func:`_cone` reads a field-level dependency graph off that table:

* every leaf a guard term tests (either side of the comparison) is
  observed — it decides which transitions are enabled, and so which
  labels are emitted — and so is the ``violation`` flag, the sink the
  requirements observe;
* a :class:`~repro.jackal.kernel.From` update copies its source into
  its target leaf by leaf, and ``INC``/``DEC``/``Raise``/``Drop``
  compute a field from itself; every other update writes a constant.

The backward closure of the observed leaves over those flows is the
*cone of influence*: every leaf that can ever influence an emitted
label or a leaf in the cone. A family of leaves (``copy.rstate`` for
``copy0_1.rstate`` and its siblings at every index) with no leaf in
the cone is sliceable — projecting it to zero commutes with stepping,
since no guard reads it and no kept leaf is computed from it. That
makes the projection a congruence, hence a strong bisimulation:
verdicts of *all* µ-calculus requirements, liveness included, are
preserved on the projected system. Every requirement formula closes
over ``T*`` (any-action paths) and Requirements 1 and 2 observe the
whole transition relation, so every label is observable for every
requirement: one cone over the whole table is every requirement's
slice, and the certificate's ``slice_fields`` are what the backends
project by.

For the Jackal spec the cone leaves out exactly the ``rstate`` family
(``copy.rstate``, ``rq.rstate``, ``rqa.rstate``, ``mig.rstate``):
read-state bookkeeping the protocol threads through messages and copy
rows but that no guard ever reads.

Trust chain (all refusals are **JKL403**):

* :func:`_slices_section` refuses a dropped family the projector
  cannot zero (outside :data:`~repro.jackal.codec.PROJECTABLE_FIELDS`);
* :func:`selftest_findings` replays the congruence on a bounded
  breadth-first sample: ``successors(project(s))`` must equal
  ``project(successors(s))`` label-for-label (static analysis never
  builds an LTS — this samples exactly like the equivariance
  self-test), so the scalar relation is held to what the table said.
"""

from __future__ import annotations

from typing import Iterable, cast

from repro.jackal.codec import PROJECTABLE_FIELDS
from repro.jackal.kernel import SINK, Bits, Fail, Field, From, FrontierKernel
from repro.staticcheck.findings import Finding, Severity


def _cone(kernel: FrontierKernel) -> set[Field]:
    """The leaves of ``kernel``'s layout in the cone of influence: the
    leaves its guards test and the violation flag, closed over the
    leaves a kept leaf is copied from. A field that updates itself
    (``INC``/``DEC``/``Raise``/``Drop``) flows only into itself, which
    adds nothing to the closure."""
    parts = kernel.layout.parts

    def leaves(field: Field) -> list[Field]:
        return parts.get(field, [field])

    kept = {kernel.f_violation}
    sources: dict[Field, set[Field]] = {}
    for rule in kernel.table.rules:
        for lhs, _op, rhs in rule.guard:
            kept.update(leaves(lhs.field if isinstance(lhs, Bits) else lhs))
            if not isinstance(rhs, int):
                kept.update(leaves(rhs))
        if isinstance(rule.updates, Fail) or rule.updates is SINK:
            continue
        for field, value in cast(tuple, rule.updates):
            if isinstance(value, From):
                for dst, src in zip(leaves(field), leaves(value.field)):
                    sources.setdefault(dst, set()).add(src)
    work = list(kept)
    while work:
        for src in sources.get(work.pop(), ()):
            if src not in kept:
                kept.add(src)
                work.append(src)
    return kept


def _slices_section(
    kernel: FrontierKernel,
) -> tuple[frozenset[str], list[Finding]]:
    """``(dropped, findings)``: the leaf families of ``kernel`` with no
    leaf in the cone of influence, and a JKL403 refusal if the projector
    cannot zero one of them (none on the shipped spec)."""
    family = kernel.layout.family
    kept = {family[f] for f in _cone(kernel)}
    dropped = frozenset(family[f] for f in kernel.layout.leaves) - kept
    unprojectable = sorted(dropped - PROJECTABLE_FIELDS)
    if not unprojectable:
        return dropped, []
    return dropped, [
        Finding(
            "JKL403",
            Severity.ERROR,
            "slice/fields",
            f"fields {unprojectable} are outside the cone of influence "
            "but cannot be projected: only "
            f"{sorted(PROJECTABLE_FIELDS)} are sliceable",
            data={
                "expected": sorted(PROJECTABLE_FIELDS),
                "found": unprojectable,
            },
        )
    ]


def selftest_findings(
    model: object,
    dropped: Iterable[str],
    *,
    max_states: int = 200,
    max_findings: int = 3,
) -> list[Finding]:
    """JKL403 congruence counterexamples on a bounded state sample.

    For sampled ``s``, stepping then projecting must equal projecting
    then stepping, label-for-label — the dynamic witness that the
    cone read off the rule table holds for the scalar relation too.
    Samples via the model's
    successor function only (never the exploration machinery).
    """
    from repro.staticcheck.symmetry import _sample_states

    dropped = frozenset(dropped)
    if not dropped:
        return []
    codec = model.codec()  # type: ignore[attr-defined]
    project = codec.projector(dropped)
    findings: list[Finding] = []
    for state in _sample_states(model, max_states):
        if len(state) != 8:
            continue
        projected = project(state)
        expected = sorted(
            (lbl, codec.encode(project(ns)))
            for lbl, ns in model.successors(state)  # type: ignore[attr-defined]
        )
        actual = sorted(
            (lbl, codec.encode(project(ns)))
            for lbl, ns in model.successors(projected)  # type: ignore[attr-defined]
        )
        if expected != actual:
            exp_labels = [lbl for lbl, _ in expected]
            act_labels = [lbl for lbl, _ in actual]
            diff = sorted(
                set(exp_labels).symmetric_difference(act_labels)
            ) or ["<same labels, different targets>"]
            findings.append(
                Finding(
                    "JKL403",
                    Severity.ERROR,
                    "slice/congruence",
                    "slice projection is not a congruence: stepping a "
                    "projected state and projecting the successors "
                    f"disagree at a sampled state (dropped="
                    f"{sorted(dropped)}, mismatched labels: {diff[:4]})",
                    data={
                        "dropped": sorted(dropped),
                        "mismatched_labels": diff[:4],
                    },
                )
            )
            if len(findings) >= max_findings:
                return findings
    return findings
