"""The static independence analysis: footprints, commutation, tables."""

from dataclasses import replace

from repro.jackal.model import JackalModel
from repro.jackal.params import CONFIG_1, CONFIG_2, ProtocolVariant
from repro.staticcheck.independence import (
    STAR,
    TOP,
    is_safe,
    label_footprint,
    may_commute,
    parse_label,
)
from repro.staticcheck.labelcheck import model_labels


def test_parse_label_extracts_indices():
    assert parse_label("send_datareq(t0,p0,p1)") == (
        "send_datareq", [0], [0, 1]
    )
    assert parse_label("c_home") == ("c_home", [], [])
    assert parse_label("assertion_violation(rc_ge_zero)") == (
        "assertion_violation", [], []
    )


def test_queue_takes_on_distinct_processors_commute():
    a = label_footprint("lock_remotequeue(p0)", CONFIG_1)
    b = label_footprint("lock_homequeue(p1)", CONFIG_1)
    assert may_commute(a, b)
    # ... but on the same processor the remote take and signal conflict
    # (both touch rqa[p0])
    c = label_footprint("signal(t0,p0)", CONFIG_1)
    assert not may_commute(a, c)


def test_remote_take_is_independent_of_home_take_same_processor():
    # the migpend predicate atom makes this pair commute: the remote
    # take moves rq -> rqa preserving "a migration is pending", which
    # is all the home take reads of the remote side
    a = label_footprint("lock_remotequeue(p0)", CONFIG_1)
    b = label_footprint("lock_homequeue(p0)", CONFIG_1)
    assert may_commute(a, b)


def test_migration_senders_conflict_with_home_take():
    # send_dataret_mig flips migpend[d], which lock_homequeue(d) reads
    a = label_footprint("send_dataret_mig(p0,p1)", CONFIG_1)
    b = label_footprint("lock_homequeue(p1)", CONFIG_1)
    assert not may_commute(a, b)


def test_writes_on_different_threads_commute_across_processors():
    a = label_footprint("write(t0)", CONFIG_1)
    b = label_footprint("write(t1)", CONFIG_1)
    # t0 lives on p0, t1 on p1 in CONFIG_1: disjoint atoms
    assert may_commute(a, b)


def test_unknown_labels_fail_safe():
    fp = label_footprint("some_new_rule(t0,p0)", CONFIG_1)
    assert fp == (TOP, TOP)
    assert not may_commute(fp, label_footprint("c_home", CONFIG_1))
    assert not may_commute(fp, fp)


def test_probes_are_read_only_and_visible():
    reads, writes = label_footprint("c_home", CONFIG_1)
    assert writes == frozenset()
    assert reads
    assert not is_safe("c_home")


def test_safe_classes_are_the_queue_takes():
    assert is_safe("lock_remotequeue(p1)")
    assert is_safe("lock_homequeue(p0)")
    assert not is_safe("recv_sponmigrate(p0)")
    assert not is_safe("flush_recv(p0)")


def test_every_vocabulary_label_has_a_footprint():
    # no label of the fixed or Error-1 vocabulary falls back to the
    # fail-safe footprint, which would silently disable pruning
    for variant in (ProtocolVariant.fixed(), ProtocolVariant.error1()):
        model = JackalModel(replace(CONFIG_2, with_probes=True), variant)
        for label in model_labels(model):
            if not label.startswith("assertion_violation"):
                reads, writes = label_footprint(label, CONFIG_2)
                assert STAR not in reads | writes, label
