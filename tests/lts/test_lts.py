"""Unit tests for the LTS container."""

from array import array

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lts.lts import LTS, Transition
from tests import oracles
from tests.conftest import LABELS, random_lts
from tests.oracles import lts_of


def test_empty_lts():
    l = lts_of([])
    assert l.n_states == 0
    assert l.n_transitions == 0
    assert l.labels == []


def test_labels_are_interned():
    l = lts_of([(0, "a", 1), (1, "a", 0), (0, "b", 1)])
    assert l.labels == ["a", "b"]
    assert l.columns()[1].tolist() == [0, 0, 1]


def _successors(l, state):
    """Outgoing ``(label, dst)`` pairs of ``state``, off the forward CSR."""
    offsets, lbl, dst = l.forward_csr()
    lo, hi = offsets[state], offsets[state + 1]
    return [(l.labels[i], int(d)) for i, d in zip(lbl[lo:hi], dst[lo:hi])]


def _predecessors(l, state):
    """Incoming ``(label, src)`` pairs of ``state``, off the reverse CSR."""
    offsets, lbl, src = l.reverse_csr()
    lo, hi = offsets[state], offsets[state + 1]
    return [(l.labels[i], int(s)) for i, s in zip(lbl[lo:hi], src[lo:hi])]


def test_successors_and_predecessors(small_lts):
    assert sorted(_successors(small_lts, 1)) == [("b", 2), ("d", 3)]
    assert _predecessors(small_lts, 1) == [("a", 0)]
    offsets = small_lts.forward_csr()[0]
    assert offsets[4] - offsets[3] == 0
    assert _successors(small_lts, 0) == [("a", 1)]


def test_transitions_iteration(small_lts):
    ts = list(small_lts.transitions())
    assert ts[0] == Transition(0, "a", 1)
    assert len(ts) == 4


def test_deadlock_states(small_lts):
    assert small_lts.deadlock_states() == [3]


def test_deadlock_states_ignore_labels():
    l = lts_of([(0, "probe", 0), (0, "a", 1), (1, "probe", 1)])
    assert l.deadlock_states() == []
    assert l.deadlock_states(ignore_labels=["probe"]) == [1]


def test_label_counts(small_lts):
    counts = small_lts.label_counts()
    assert counts == {"a": 1, "b": 1, "c": 1, "d": 1}


def test_relabelled(small_lts):
    r = small_lts.relabelled({"a": "x"})
    assert "x" in r.labels and "a" not in r.labels
    assert r.n_transitions == small_lts.n_transitions


def test_structural_equality(small_lts):
    rows = list(small_lts.transitions())
    assert lts_of(rows) == small_lts
    assert lts_of(rows[::-1]) == small_lts  # a transition multiset
    assert lts_of([*rows, (3, "e", 0)]) != small_lts


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
    fwd = {(s, lab, d) for s in range(l.n_states) for lab, d in _successors(l, s)}
    bwd = {(s, lab, d) for d in range(l.n_states) for lab, s in _predecessors(l, d)}
    assert fwd == bwd


# -- column-wise transformations against the row-by-row oracle ----------------


def _same_lts(got: LTS, want: LTS) -> None:
    assert (got.initial, got.n_states) == (want.initial, want.n_states)
    assert got.labels == want.labels  # dense ids, first-appearance order
    assert got.transition_arrays() == want.transition_arrays()
    assert got.state_meta == want.state_meta


def _snapshot(l: LTS):
    return (
        l.n_states, list(l.labels), dict(l.state_meta),
        *(list(col) for col in l.transition_arrays()),
    )


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
    l = lts_of([(2, "x", 0), (0, "b", 2), (2, "y", 1), (0, "a", 1)])
    offsets, lbl, dst = l.forward_csr()
    assert offsets.tolist() == [0, 2, 2, 4]
    assert [l.labels[i] for i in lbl] == ["b", "a", "x", "y"]
    assert dst.tolist() == [2, 1, 0, 1]
    assert _successors(l, 2) == [("x", 0), ("y", 1)]
    assert _predecessors(l, 1) == [("y", 2), ("a", 0)]


def test_forward_csr_of_a_grouped_source_column_aliases_it():
    l = lts_of([(s, lab, d) for s in range(3) for lab, d in (("a", s + 1), ("b", 0))])
    _offsets, lbl, dst = l.forward_csr()
    assert lbl is l.columns()[1] and dst is l.columns()[2]


@pytest.mark.parametrize("column", [
    np.array([3, 0, 2, 2**31 - 1, -1], dtype=np.int64),
    np.array([3, 0, 2, 2**31 - 1, -1], dtype=np.int32),
    np.arange(10, dtype=np.int32)[::2],
    np.arange(10, dtype=np.int64)[::-3],
    np.zeros(0, dtype=np.int64),
], ids=["int64", "int32", "strided-int32", "reversed-int64", "empty"])
def test_numpy_columns_are_adopted_as_the_array_path_would(column):
    view = column.copy()
    view.flags.writeable = False  # as LTS.columns() hands them out
    for values in (view, column):
        got = LTS.from_columns(
            initial=0, n_states=1, src=values, lbl=values, dst=values,
            labels=[],
        )
        want = array("i", column.tolist())
        for col in got.transition_arrays():
            assert col == want and col.typecode == "i"
    # a copy: the LTS does not share the caller's buffer
    column[...] = 7
    assert got.transition_arrays()[0] == array("i", view.tolist())


def test_from_columns_takes_numpy_columns(small_lts):
    src, lbl, dst = small_lts.columns()
    keep = src != 1
    sub = LTS.from_columns(
        initial=0, n_states=4, src=src[keep], lbl=lbl[keep], dst=dst[keep],
        labels=small_lts.labels,
    )
    assert list(sub.transitions()) == [Transition(0, "a", 1), Transition(2, "c", 0)]
