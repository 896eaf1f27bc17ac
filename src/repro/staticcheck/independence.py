"""Static independence analysis, read off the kernel's rule table.

The frontier kernel (:mod:`repro.jackal.kernel`) holds the protocol as
guarded summands: a table of :class:`~repro.jackal.kernel.Rule`
instances, each a guard and an update list over the fields of the
packed :class:`~repro.jackal.kernel.Layout`. A label's read/write
footprint is the union over the instances that emit it
(:func:`footprints`); nothing is declared beside the rules. Two
transitions *may commute* when neither writes an atom the other reads
or writes; that relation is what the ample-set pruner in
:mod:`repro.lts.certreduce` consults.

Atoms are layout elements (``thread1``, ``copy0_1``, ``hq0``, ...): an
instance reads the element of every field a guard term tests (either
side of the comparison), a :class:`~repro.jackal.kernel.From` copies or
an ``INC``/``DEC``/``Raise``/``Drop`` update steps in place, and writes
the element of every field it updates. One more atom per processor is
a *predicate atom*:

``migpend<p>``
    "a migration is pending at ``p``": the disjunction of the bits the
    kernel names in :attr:`~repro.jackal.kernel.FrontierKernel.migpend`
    (a migration reply in ``rq[p]`` or ``rqa[p]``, a loaded migration
    slot of ``p``). A guard that finds every one of them clear — the
    home-queue take's — reads the atom instead of their elements, and
    an instance that can flip the predicate writes it. So
    ``lock_remotequeue(p)``, which moves a message from ``rq[p]`` to
    ``rqa[p]`` *preserving the predicate*, is independent of the
    home-queue take that waits on it.

Assertion sinks get the ``TOP`` footprint (conflicts with everything);
instances that raise (:class:`~repro.jackal.kernel.Fail`) are no
transitions and are skipped.

Safe classes (candidates for singleton ample sets) are the two queue
takes. ``lock_remotequeue(p)`` is *persistent*: nothing can disable
``rqa[p] == 0 ∧ rq[p] ≠ 0`` (a Data Return only enters an *empty*
``rq``, and only ``signal`` — which requires ``rqa ≠ 0`` — consumes
one). ``lock_homequeue(p)`` additionally guards on ``¬migpend[p]``,
which a remote ``send_dataret_mig`` can flip, so its soundness as an
ample candidate is gated empirically: the test suite checks verdict
equality between reduced and unreduced sweeps on fixed *and* error
variants, and the class must be dropped here if any verdict drifts.
"""

from __future__ import annotations

from typing import cast

from repro.jackal.kernel import (
    DEC,
    INC,
    SINK,
    Bits,
    Drop,
    Fail,
    Field,
    From,
    FrontierKernel,
    Raise,
)

#: the conflicts-with-everything atom (assertion sinks)
STAR = "*"
TOP = frozenset((STAR,))

#: classes eligible as singleton ample sets, in priority order
SAFE_CLASSES = ("lock_remotequeue", "lock_homequeue")

#: ``(reads, writes)`` atom sets of one transition label
Footprint = tuple[frozenset[str], frozenset[str]]

#: per field holding a bit of ``migpend[p]`` (the bit, or its slot
#: whole): ``p``, and the slot's ``full`` bit
Pending = dict[Field, tuple[int, Field]]

#: an update list: ``(field, value)`` pairs
Updates = tuple[tuple[Field, object], ...]


def footprints(kernel: FrontierKernel) -> dict[str, Footprint]:
    """``{label: (reads, writes)}`` of every label a rule instance of
    ``kernel``'s table emits: the union over its instances."""
    pending: Pending = {}
    for p, slots in enumerate(kernel.migpend):
        for slot, bit in slots:
            pending[bit] = pending[slot.all] = (p, slot.full)
    out: dict[str, Footprint] = {}
    for rule in kernel.table.rules:
        if isinstance(rule.updates, Fail):
            continue
        if rule.updates is SINK:
            reads, writes = TOP, TOP
        else:
            updates = cast(Updates, rule.updates)
            reads, writes = _footprint(kernel, pending, rule.guard, updates)
        if rule.label in out:
            had_reads, had_writes = out[rule.label]
            reads, writes = had_reads | reads, had_writes | writes
        out[rule.label] = (reads, writes)
    return out


def _footprint(
    kernel: FrontierKernel, pending: Pending, guard: tuple, updates: Updates
) -> Footprint:
    """``(reads, writes)`` atoms of one transition instance."""
    element = kernel.layout.element

    def atom(field: Field) -> str:
        return element.get(field, field).name

    reads: set[str] = set()
    writes: set[str] = set()
    # a guard that finds every bit of migpend[p] clear reads the
    # predicate, not the bits' elements
    predicate: set[tuple] = set()
    for p, slots in enumerate(kernel.migpend):
        tests = {(bit, "==", 0) for _slot, bit in slots}
        if tests <= set(guard):
            reads.add(f"migpend{p}")
            predicate |= tests
    for term in guard:
        lhs, _op, rhs = term
        if term not in predicate:
            reads.add(atom(lhs.field if isinstance(lhs, Bits) else lhs))
        if not isinstance(rhs, int):
            reads.add(atom(rhs))
    for field, value in updates:
        writes.add(atom(field))
        if isinstance(value, From):
            reads.add(atom(value.field))
        elif value is INC or value is DEC or isinstance(value, (Raise, Drop)):
            reads.add(atom(field))
    writes.update(f"migpend{p}" for p in _flipped(pending, guard, updates))
    return frozenset(reads), frozenset(writes)


def _flipped(pending: Pending, guard: tuple, updates: Updates) -> set[int]:
    """The processors ``p`` where an instance can change ``migpend[p]``.

    Any write to a bit of the predicate (or its slot whole) can, but
    two: moving a slot of ``p`` into another slot of ``p`` and clearing
    it keeps the predicate, and so does clearing a slot the guard finds
    empty (an empty slot is all-zero)."""
    empty = {lhs for lhs, op, rhs in guard if op == "==" and rhs == 0}
    cleared = {field for field, value in updates if value == 0}
    moved = {
        value.field for field, value in updates
        if isinstance(value, From) and value.field in cleared
        and field in pending and value.field in pending
        and pending[field][0] == pending[value.field][0]
    }
    out: set[int] = set()
    for field, value in updates:
        if field not in pending or field in moved:
            continue
        if isinstance(value, From) and value.field in moved:
            continue
        p, full = pending[field]
        if not (value == 0 and full in empty):
            out.add(p)
    return out


def may_commute(fp_a: Footprint, fp_b: Footprint) -> bool:
    """Whether two footprints prove their transitions independent:
    neither writes an atom the other reads or writes."""
    reads_a, writes_a = fp_a
    reads_b, writes_b = fp_b
    if STAR in writes_a or STAR in writes_b:
        return False
    return not (
        writes_a & (reads_b | writes_b) or writes_b & reads_a
    )
