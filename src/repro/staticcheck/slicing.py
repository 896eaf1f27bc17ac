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

Trust chain (all refusals are **JKL403**), one pass over the rule
instances in :func:`_slices_section`:

* a guard term reading a dropped leaf, or a kept leaf copied from a
  dropped one, refuses the slice: the cone excludes both by
  construction, and this rechecks the table it was read from;
* so does a dropped family the projector cannot zero (outside
  :data:`~repro.jackal.codec.PROJECTABLE_FIELDS`).
"""

from __future__ import annotations

from typing import cast

from repro.jackal.codec import PROJECTABLE_FIELDS
from repro.jackal.kernel import SINK, Fail, Field, From, FrontierKernel, Layout, _operand
from repro.staticcheck.findings import Finding, Severity


def _leaves(layout: Layout, field: Field) -> list[Field]:
    return layout.parts.get(field, [field])


def _read(layout: Layout, rule) -> list[Field]:
    """The leaves ``rule``'s guard terms test, either side."""
    return [
        leaf
        for lhs, _op, rhs in rule.guard
        for field in (_operand(lhs)[0], rhs) if isinstance(field, Field)
        for leaf in _leaves(layout, field)
    ]


def _copies(layout: Layout, rule) -> list[tuple[Field, Field]]:
    """``(target, source)`` of every leaf a :class:`From` update of
    ``rule`` copies."""
    if isinstance(rule.updates, Fail) or rule.updates is SINK:
        return []
    return [
        pair
        for field, value in cast(tuple, rule.updates) if isinstance(value, From)
        for pair in zip(_leaves(layout, field), _leaves(layout, value.field))
    ]


def _cone(kernel: FrontierKernel) -> set[Field]:
    """The leaves of ``kernel``'s layout in the cone of influence: the
    leaves its guards test and the violation flag, closed over the
    leaves a kept leaf is copied from. A field that updates itself
    (``INC``/``DEC``/``Raise``/``Drop``) flows only into itself, which
    adds nothing to the closure."""
    layout = kernel.layout
    kept = {kernel.f_violation}
    sources: dict[Field, set[Field]] = {}
    for rule in kernel.table.rules:
        kept.update(_read(layout, rule))
        for dst, src in _copies(layout, rule):
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
    leaf in the cone of influence, and a JKL403 refusal if a rule
    instance reads a dropped leaf or copies one into a kept leaf, or if
    the projector cannot zero a dropped family (none on the shipped
    spec)."""
    layout = kernel.layout
    family = layout.family
    kept = {family[f] for f in _cone(kernel)}
    dropped = frozenset(family[f] for f in layout.leaves) - kept
    for rule in kernel.table.rules:
        bad = [f for f in _read(layout, rule) if family[f] in dropped]
        bad += [src for dst, src in _copies(layout, rule)
                if family[src] in dropped and family[dst] not in dropped]
        if bad:
            return dropped, [Finding(
                "JKL403",
                Severity.ERROR,
                "slice/congruence",
                f"rule {rule.name!r} ({rule.label!r}) reads {bad[0].name}, "
                "which the slice drops: projecting and stepping would not "
                "commute",
                data={"dropped": sorted(dropped), "rule": rule.name, "field": bad[0].name},
            )]
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
