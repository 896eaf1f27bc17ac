"""The static independence analysis: footprints read off the rule table,
held to the kernel's real transitions, and the commutation they prove."""

from dataclasses import replace

import numpy as np
import pytest

from repro.jackal.kernel import SINK
from repro.jackal.model import JackalModel
from repro.jackal.params import CONFIG_1, CONFIG_2, ProtocolVariant
from repro.lts.certreduce import _commute_table
from repro.staticcheck.independence import STAR, TOP, footprints, may_commute

FIXED = ProtocolVariant.fixed()


def _kernel(config, variant=FIXED):
    return JackalModel(replace(config, with_probes=True), variant).kernel()


_C1 = footprints(_kernel(CONFIG_1))


def _sweep(kernel):
    """``(sources, targets, label ids)`` of every transition the kernel
    fires from its initial row, a breadth-first level at a time."""
    rows = kernel.pack([kernel.model.initial_state()])
    seen = {rows[0].tobytes()}
    while len(rows):
        succ, src, lids = kernel.expand(rows)
        yield rows[src], succ, lids
        fresh = {}
        for row in succ:
            key = row.tobytes()
            if key not in seen:
                fresh.setdefault(key, row)
        seen.update(fresh)
        rows = np.array(list(fresh.values()), dtype=np.uint64).reshape(-1, kernel.n_words)


def _bits(rows, field):
    return (rows[:, field.word] >> np.uint64(field.shift)) & np.uint64(field.mask)


@pytest.mark.parametrize("variant", ["fixed", "error2"])
@pytest.mark.parametrize("config,rounds", [(CONFIG_1, 2), (CONFIG_2, 1)], ids=["c1r2", "c2r1"])
def test_every_transition_writes_within_its_label_footprint(config, rounds, variant):
    # the write set of a transition's label holds every element whose
    # bits differ between source and target, and migpend<p> wherever
    # "a migration is pending at p" flips
    kernel = _kernel(replace(config, rounds=rounds), getattr(ProtocolVariant, variant)())
    fps = footprints(kernel)
    writes = [fps.get(label, (TOP, TOP))[1] for label in kernel.labels]
    top = np.array([STAR in w for w in writes])

    def allowed(atom):
        return top | np.array([atom in w for w in writes])

    checks = [
        (element.name, allowed(element.name),
         lambda src, dst, e=element: _bits(src, e) != _bits(dst, e))
        for element in kernel.layout.parts
    ]
    for p, slots in enumerate(kernel.migpend):
        def pending(rows, slots=slots):
            return np.logical_or.reduce([_bits(rows, bit) != 0 for _slot, bit in slots])

        checks.append((f"migpend{p}", allowed(f"migpend{p}"),
                       lambda src, dst, pending=pending: pending(src) != pending(dst)))
    transitions = flips = 0
    for src, dst, lids in _sweep(kernel):
        transitions += len(lids)
        for atom, ok, changed in checks:
            hit = changed(src, dst)
            if atom.startswith("migpend"):
                flips += int(hit.sum())
            stray = hit & ~ok[lids]
            assert not stray.any(), (atom, kernel.labels[lids[np.argmax(stray)]])
    assert transitions > 1000
    assert flips > 0  # the predicate atom is exercised


def test_every_vocabulary_label_has_a_footprint():
    # every label of the vocabulary a sweep emits has a footprint read
    # off the table, and only the assertion sinks conflict with
    # everything
    for variant in (FIXED, ProtocolVariant.error1()):
        kernel = _kernel(CONFIG_2, variant)
        fps = footprints(kernel)
        for _src, _dst, lids in _sweep(kernel):
            for label in {kernel.labels[i] for i in lids.tolist()}:
                reads, writes = fps[label]
                if not label.startswith("assertion_violation"):
                    assert STAR not in reads | writes, label


def test_sinks_conflict_with_everything():
    kernel = _kernel(CONFIG_1)
    fps = footprints(kernel)
    sinks = {rule.label for rule in kernel.table.rules if rule.updates is SINK}
    assert sinks
    for label in sinks:
        assert fps[label] == (TOP, TOP)
        assert not may_commute(fps[label], fps["c_home"])


def test_queue_takes_on_distinct_processors_commute():
    a = _C1["lock_remotequeue(p0)"]
    b = _C1["lock_homequeue(p1)"]
    assert may_commute(a, b)
    assert may_commute(_C1["lock_homequeue(p0)"], b)
    assert may_commute(a, _C1["lock_remotequeue(p1)"])
    # ... but on the same processor the remote take and signal conflict
    # (both touch rqa[p0])
    c = _C1["signal(t0,p0)"]
    assert not may_commute(a, c)


def test_remote_take_is_independent_of_home_take_same_processor():
    # the migpend predicate atom makes this pair commute: the remote
    # take moves rq -> rqa preserving "a migration is pending", which
    # is all the home take reads of the remote side
    a = _C1["lock_remotequeue(p0)"]
    b = _C1["lock_homequeue(p0)"]
    assert "migpend0" in b[0] and "migpend0" not in a[1]
    assert may_commute(a, b)


def test_migration_senders_conflict_with_home_take():
    # send_dataret_mig flips migpend[d], which lock_homequeue(d) reads
    a = _C1["send_dataret_mig(p0,p1)"]
    b = _C1["lock_homequeue(p1)"]
    assert "migpend1" in a[1]
    assert not may_commute(a, b)


def test_writes_on_different_threads_commute_across_processors():
    a = _C1["write(t0)"]
    b = _C1["write(t1)"]
    # t0 lives on p0, t1 on p1 in CONFIG_1: disjoint atoms
    assert may_commute(a, b)


def test_probes_are_read_only_and_visible():
    kernel = _kernel(CONFIG_1)
    safe, _commute = _commute_table(kernel)
    for probe in ("c_home", "c_copy", "lock_empty"):
        reads, writes = _C1[probe]
        assert writes == frozenset()
        assert reads
        assert not safe[kernel.label_ids[probe]]


def test_safe_classes_are_the_queue_takes():
    kernel = _kernel(CONFIG_1)
    safe, commute = _commute_table(kernel)
    assert {kernel.labels[i] for i in np.flatnonzero(safe)} == {
        "lock_remotequeue(p0)", "lock_remotequeue(p1)",
        "lock_homequeue(p0)", "lock_homequeue(p1)",
    }
    # only the safe rows are filled in: nothing else is asked
    assert not commute[~safe].any()
