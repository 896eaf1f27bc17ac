"""Unit tests for the LTS container."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lts.lts import LTS, Transition
from tests import oracles
from tests.conftest import LABELS, random_lts


def test_empty_lts():
    l = LTS(0)
    assert l.n_states == 0
    assert l.n_transitions == 0
    assert l.labels == []


def test_add_transition_grows_states():
    l = LTS(0)
    l.add_transition(0, "a", 5)
    assert l.n_states == 6
    assert l.n_transitions == 1


def test_labels_are_interned():
    l = LTS(0)
    l.add_transition(0, "a", 1)
    l.add_transition(1, "a", 0)
    l.add_transition(0, "b", 1)
    assert l.labels == ["a", "b"]
    assert l.label_id("a") == 0
    assert l.has_label("a") and not l.has_label("z")


def _predecessors(l, state):
    """Incoming ``(label, src)`` pairs of ``state``, off the reverse CSR."""
    offsets, lbl, src = l.reverse_csr()
    lo, hi = offsets[state], offsets[state + 1]
    return [(l.labels[i], int(s)) for i, s in zip(lbl[lo:hi], src[lo:hi])]


def test_successors_and_predecessors(small_lts):
    assert sorted(small_lts.successors(1)) == [("b", 2), ("d", 3)]
    assert _predecessors(small_lts, 1) == [("a", 0)]
    assert small_lts.out_degree(3) == 0
    assert small_lts.enabled_labels(0) == {"a"}


def test_transitions_iteration(small_lts):
    ts = list(small_lts.transitions())
    assert ts[0] == Transition(0, "a", 1)
    assert len(ts) == 4


def test_deadlock_states(small_lts):
    assert small_lts.deadlock_states() == [3]


def test_deadlock_states_ignore_labels():
    l = LTS(0)
    l.add_transition(0, "probe", 0)
    l.add_transition(0, "a", 1)
    l.add_transition(1, "probe", 1)
    assert l.deadlock_states() == []
    assert l.deadlock_states(ignore_labels=["probe"]) == [1]


def test_label_counts(small_lts):
    counts = small_lts.label_counts()
    assert counts == {"a": 1, "b": 1, "c": 1, "d": 1}


def test_relabelled(small_lts):
    r = small_lts.relabelled({"a": "x"})
    assert r.has_label("x") and not r.has_label("a")
    assert r.n_transitions == small_lts.n_transitions


def test_structural_equality(small_lts):
    other = LTS(0)
    for t in small_lts.transitions():
        other.add_transition(t.src, t.label, t.dst)
    assert other == small_lts
    other.add_transition(3, "e", 0)
    assert other != small_lts


def test_equality_other_type(small_lts):
    assert small_lts != 42


@given(random_lts())
def test_transition_arrays_consistent(l):
    src, lbl, dst = l.transition_arrays()
    assert len(src) == len(lbl) == len(dst) == l.n_transitions
    for s, i, d in zip(src, lbl, dst):
        assert 0 <= s < l.n_states
        assert 0 <= d < l.n_states
        assert 0 <= i < len(l.labels)


@given(random_lts())
def test_successor_predecessor_duality(l):
    fwd = {(s, lab, d) for s in range(l.n_states) for lab, d in l.successors(s)}
    bwd = {(s, lab, d) for d in range(l.n_states) for lab, s in _predecessors(l, d)}
    assert fwd == bwd


# -- column-wise transformations against one add_transition per row -----------


def _same_lts(got: LTS, want: LTS) -> None:
    assert (got.initial, got.n_states) == (want.initial, want.n_states)
    assert got.labels == want.labels  # dense ids, first-appearance order
    assert got.transition_arrays() == want.transition_arrays()
    assert got.state_meta == want.state_meta
    assert all(got.label_id(lab) == i for i, lab in enumerate(want.labels))


def _snapshot(l: LTS):
    return (
        l.n_states, list(l.labels), dict(l.state_meta),
        *(list(col) for col in l.transition_arrays()),
    )


#: none of, some of, all of the labels in use, and one no LTS carries
label_sets = st.sets(st.sampled_from(LABELS + ["absent"]))


@given(random_lts(), label_sets)
def test_without_labels_is_the_lts_that_never_had_them(l, drop):
    l.state_meta[0] = "initial"
    fwd = l.forward_csr()
    before = _snapshot(l)
    got = l.without_labels(drop)
    _same_lts(got, oracles.without_labels(l, drop))
    # isolated and unreachable states keep their numbers
    assert got.n_states == l.n_states and got.initial == l.initial
    assert not set(got.labels) & drop
    assert got.state_meta is l.state_meta
    # the source and its cached adjacency are untouched, and unshared
    assert _snapshot(l) == before and l.forward_csr() is fwd
    got.add_transition(0, "fresh", 0)
    assert _snapshot(l) == before


def test_without_labels_keeps_the_table_order_of_the_survivors():
    l = LTS(0)
    for src, label, dst in [(0, "p", 0), (0, "a", 1), (1, "q", 1), (1, "b", 0)]:
        l.add_transition(src, label, dst)
    got = l.without_labels(["p", "q"])
    assert got.labels == ["a", "b"]
    assert list(got.transitions()) == [(0, "a", 1), (1, "b", 0)]
    assert l.without_labels([]) == l
    assert l.without_labels(["a", "b", "p", "q"]).n_transitions == 0


@given(
    random_lts(),
    st.dictionaries(st.sampled_from(LABELS), st.sampled_from(LABELS + ["z"])),
)
def test_relabelled_matches_row_by_row(l, mapping):
    before = _snapshot(l)
    _same_lts(l.relabelled(mapping), oracles.relabelled(l, mapping))
    assert _snapshot(l) == before


# -- columnar adjacency -------------------------------------------------------


def test_columns_are_zero_copy_read_only_views(small_lts):
    src, lbl, dst = small_lts.columns()
    assert src.dtype == lbl.dtype == dst.dtype == np.int32
    assert src.tolist() == [0, 1, 2, 1]
    assert not src.flags.writeable and not src.flags.owndata
    assert small_lts.columns()[0] is src  # built once


def test_csr_keeps_insertion_order_within_a_state():
    l = LTS(0)
    for src, label, dst in [(2, "x", 0), (0, "b", 2), (2, "y", 1), (0, "a", 1)]:
        l.add_transition(src, label, dst)
    offsets, lbl, dst = l.forward_csr()
    assert offsets.tolist() == [0, 2, 2, 4]
    assert [l.labels[i] for i in lbl] == ["b", "a", "x", "y"]
    assert dst.tolist() == [2, 1, 0, 1]
    assert l.successors(2) == [("x", 0), ("y", 1)]
    assert _predecessors(l, 1) == [("y", 2), ("a", 0)]


def test_forward_csr_of_a_grouped_source_column_aliases_it():
    l = LTS(0)
    for s in range(3):
        l.add_transition(s, "a", s + 1)
        l.add_transition(s, "b", 0)
    _offsets, lbl, dst = l.forward_csr()
    assert lbl is l.columns()[1] and dst is l.columns()[2]


def test_analysis_then_mutation_then_analysis(small_lts):
    assert small_lts.deadlock_states() == [3]
    small_lts.ensure_states(6)
    assert small_lts.deadlock_states() == [3, 4, 5]
    small_lts.add_transition(3, "e", 4)  # views were handed out above
    assert small_lts.deadlock_states() == [4, 5]
    assert small_lts.successors(3) == [("e", 4)]
    assert small_lts.label_counts()["e"] == 1


def test_mutation_under_a_live_view_copies_on_write(small_lts):
    held = small_lts.columns()[0]
    small_lts.add_transition(3, "e", 0)  # no BufferError
    assert held.tolist() == [0, 1, 2, 1]  # the old snapshot
    assert small_lts.columns()[0].tolist() == [0, 1, 2, 1, 3]
    assert small_lts.n_transitions == 5


def test_from_columns_takes_numpy_columns(small_lts):
    src, lbl, dst = small_lts.columns()
    keep = src != 1
    sub = LTS.from_columns(
        initial=0, n_states=4, src=src[keep], lbl=lbl[keep], dst=dst[keep],
        labels=small_lts.labels,
    )
    assert list(sub.transitions()) == [Transition(0, "a", 1), Transition(2, "c", 0)]
