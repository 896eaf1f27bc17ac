"""The kernel's rule table against the hand-kept label footprints.

Every rule instance of the frontier kernel names the fields it reads
(its guard, the sources of its computed writes, the fields it updates
in place) and the fields it writes. Mapped to the atoms of
:mod:`repro.staticcheck.independence`, they must lie within
:func:`~repro.staticcheck.independence.label_footprint` of its label: a
footprint narrower than the rule would let the ample-set pruner treat
dependent transitions as independent.

The predicate atom ``migpend[p]`` (a migration reply in ``rq[p]`` or
``rqa[p]``, or a loaded migration slot of ``p``) stands for the bits it
is made of: a read of one of them is covered by ``migpend[p]`` or by the
slot's own atom, and a rule that can flip the predicate must write
``migpend[p]``. Moving a slot into another slot of ``p`` and clearing it
keeps the predicate, and so does clearing a slot its guard finds empty.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.jackal import params
from repro.jackal.kernel import DEC, INC, SINK, Bits, Drop, Fail, From, Raise
from repro.jackal.model import JackalModel
from repro.jackal.params import ProtocolVariant
from repro.staticcheck.independence import STAR, label_footprint

_FAMILY = {"thread": "thr", "copy": "copy", "hq": "hq", "hqa": "hqa",
           "rq": "rq", "rqa": "rqa", "locks": "lock", "mig": "mig"}
VARIANTS = ("fixed", "error1", "error2", "buggy", "no_migration", "alf")


def _atom(kernel, field):
    """The atom of the element ``field`` belongs to."""
    element = kernel.layout.element.get(field, field).name
    family = element.rstrip("0123456789_")
    index = int(element[len(family):].split("_")[0])
    return _FAMILY[family], index


def _migpend(kernel, field):
    """``p`` where ``field`` holds a bit of ``migpend[p]``: a queue
    slot's ``mig`` bit (or the whole slot), a migration slot's ``full``
    bit (or the whole slot)."""
    element = kernel.layout.element.get(field, field).name
    kind = element.rstrip("0123456789_")
    bit = {"rq": ".mig", "rqa": ".mig", "mig": ".full"}.get(kind)
    if bit and (field.name == element or field.name.endswith(bit)):
        return _atom(kernel, field)[1]
    return None


def _footprint(kernel, rule):
    """``(reads, writes)`` fields of one rule instance."""
    reads, writes = [], []
    for lhs, _op, rhs in rule.guard:
        reads.append(lhs.field if isinstance(lhs, Bits) else lhs)
        if not isinstance(rhs, int):
            reads.append(rhs)
    for field, value in rule.updates:
        writes.append(field)
        if isinstance(value, From):
            reads.append(value.field)
        elif value is INC or value is DEC or isinstance(value, (Raise, Drop)):
            reads.append(field)
    return reads, writes


def _flips_migpend(kernel, rule, p) -> bool:
    """Whether ``rule`` can change ``migpend[p]``."""
    empty = {lhs for lhs, op, rhs in rule.guard if op == "==" and rhs == 0}
    cleared = {f for f, value in rule.updates if value == 0}
    # a slot of p moved into another slot of p and cleared
    moved = {
        value.field for f, value in rule.updates
        if isinstance(value, From) and _migpend(kernel, f) == p
        and _migpend(kernel, value.field) == p and value.field in cleared
    }
    for field, value in rule.updates:
        if _migpend(kernel, field) != p or field in moved:
            continue
        if isinstance(value, From) and value.field in moved:
            continue
        if value == 0:
            slot = kernel.layout.element.get(field, field)
            if kernel.layout[slot.name + ".full"] in empty:
                continue  # clearing a slot the guard finds empty
        return True
    return False


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("config_no", [1, 2, 3])
def test_every_rule_lies_within_its_label_footprint(config_no, variant):
    config = dataclasses.replace(
        getattr(params, f"CONFIG_{config_no}"), rounds=1
    )
    kernel = JackalModel(config, getattr(ProtocolVariant, variant)()).kernel()
    checked = 0
    for rule in kernel.table.rules:
        if isinstance(rule.updates, Fail):
            continue  # raises: not a transition
        fp_reads, fp_writes = label_footprint(rule.label, config)
        if STAR in fp_writes:
            assert rule.updates is SINK or rule.label.startswith("assertion")
            continue
        assert rule.updates is not SINK, rule
        reads, writes = _footprint(kernel, rule)
        for field in reads:
            atom, pend = _atom(kernel, field), _migpend(kernel, field)
            assert atom in fp_reads or (
                pend is not None and ("migpend", pend) in fp_reads
            ), (rule.name, rule.label, field.name)
        for field in writes:
            assert _atom(kernel, field) in fp_writes, (
                rule.name, rule.label, field.name)
        for p in range(config.n_processors):
            if _flips_migpend(kernel, rule, p):
                assert ("migpend", p) in fp_writes, (rule.name, rule.label)
        checked += 1
    assert checked > 50
