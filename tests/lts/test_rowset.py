"""The row set against a ``dict``.

``RowSet`` replaces the engine's ``dict[bytes, int]`` visited index, so
a dict numbering the same rows in the same order is the oracle: same
ids, same ``n``, same rows behind the ids, same cut on a breach — and
the same again with the hash degraded until every row collides, because
exactness must rest on comparing rows and never on the hash.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ExplorationLimitError
from repro.jackal.model import JackalModel
from repro.jackal.params import Config, ProtocolVariant
from repro.lts import rowset
from repro.lts.engine import explore_fast
from repro.lts.explore import explore
from repro.lts.rowset import RowSet
from repro.lts.statehash import mix64


def _constant_hash(rows):
    return np.full(len(rows), 0x5EED, dtype=np.uint64)


_real_hash = rowset._hash_rows


def _low_bits_hash(rows):
    return _real_hash(rows) & np.uint64(7)


HASHES = {"real": _real_hash, "constant": _constant_hash,
          "low3bits": _low_bits_hash}


@pytest.fixture(params=list(HASHES))
def any_hash(request, monkeypatch):
    monkeypatch.setattr(rowset, "_hash_rows", HASHES[request.param])
    return request.param


class DictOracle:
    """What the engine's visited block did before the row set."""

    def __init__(self):
        self.index: dict[bytes, int] = {}

    def add(self, batch, room=None):
        keys = [row.tobytes() for row in batch]
        new = [k for k in dict.fromkeys(keys) if k not in self.index]
        cut = None
        if room is not None and len(new) >= room:
            del new[room:]
            cut = keys.index(new[-1]) + 1
            del keys[cut:]
        n = len(self.index)
        self.index.update(zip(new, range(n, n + len(new))))
        return [self.index[k] for k in keys], cut


def _assert_agree(visited, oracle):
    assert len(visited) == len(oracle.index)
    assert len(visited.rows()) == len(visited)
    # row i is state i: the rows are the numbering
    assert [row.tobytes() for row in visited.rows()] == list(oracle.index)
    # segment k >= 1 holds ids [B * 2**(k-1), B * 2**k)
    bounds = visited._starts + [visited._capacity]
    assert bounds[:2] == [0, len(visited._segments[0])]
    if len(bounds) > 2:
        assert bounds[1:] == [rowset._SEGMENT << k for k in range(len(bounds) - 1)]


# ``any_hash`` patches the same function for every example of a test
_settings = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def batch_sequences(draw, max_rows=150):
    """``(words, [batch, ...])``: rows over a small alphabet, so batches
    repeat rows inside themselves and across each other, the alphabet
    spread over all 64 bits of every word."""
    words = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    sizes = draw(st.lists(st.integers(0, max_rows), min_size=1, max_size=6))
    pool = draw(st.integers(1, 400))
    rng = np.random.default_rng(seed)
    alphabet = rng.integers(0, 2**64, size=(pool, words), dtype=np.uint64)
    # low-entropy rows too: neighbours differing in one low bit of one word
    alphabet[::2] = alphabet[0] ^ (
        np.arange(len(alphabet[::2]), dtype=np.uint64)[:, None]
        * (np.arange(words, dtype=np.uint64) == words - 1)
    )
    return words, [alphabet[rng.integers(0, pool, size=k)] for k in sizes]


@_settings
@given(batch_sequences())
def test_numbers_rows_like_a_dict(any_hash, case):
    words, batches = case
    visited, oracle = RowSet(words), DictOracle()
    for batch in batches:
        ids, cut = visited.add(batch)
        want, _ = oracle.add(batch)
        assert cut is None
        assert ids.dtype == np.int32
        assert ids.tolist() == want
        _assert_agree(visited, oracle)


@_settings
@given(batch_sequences(), st.data())
def test_room_cuts_where_the_dict_cuts(any_hash, case, data):
    words, batches = case
    visited, oracle = RowSet(words), DictOracle()
    for batch in batches:
        room = data.draw(st.integers(1, max(1, len(batch))))
        ids, cut = visited.add(batch, room)
        want, want_cut = oracle.add(batch, room)
        assert cut == want_cut
        assert ids.tolist() == want
        _assert_agree(visited, oracle)


def _distinct(k, words=2, start=0):
    rows = np.zeros((k, words), dtype=np.uint64)
    rows[:, -1] = np.arange(start, start + k, dtype=np.uint64)
    return rows


def test_room_of_one_stops_at_the_first_new_row(any_hash):
    visited = RowSet(2)
    visited.add(_distinct(3))
    batch = np.concatenate([_distinct(2), _distinct(4, start=10)])
    ids, cut = visited.add(batch, 1)
    assert (ids.tolist(), cut, len(visited)) == ([0, 1, 3], 3, 4)


def test_room_mid_batch_keeps_repeats_before_the_cut(any_hash):
    visited = RowSet(2)
    new = _distinct(5, start=10)
    batch = new[[0, 0, 1, 0, 2, 1, 3, 4]]
    ids, cut = visited.add(batch, 3)
    assert (ids.tolist(), cut, len(visited)) == ([0, 0, 1, 0, 2], 5, 3)
    assert np.array_equal(visited.rows(), new[:3])


def test_room_exactly_fits(any_hash):
    batch = _distinct(4)[[0, 1, 1, 2, 3, 0]]
    # five would fit: no cut
    visited = RowSet(2)
    ids, cut = visited.add(batch, 5)
    assert (ids.tolist(), cut) == ([0, 1, 1, 2, 3, 0], None)
    # the fourth new row is the last allowed: cut after it, all four kept
    visited = RowSet(2)
    ids, cut = visited.add(batch, 4)
    assert (ids.tolist(), cut, len(visited)) == ([0, 1, 1, 2, 3], 5, 4)


def test_empty_batch(any_hash):
    visited = RowSet(3)
    ids, cut = visited.add(np.empty((0, 3), dtype=np.uint64), 1)
    assert (ids.tolist(), cut, len(visited)) == ([], None, 0)
    visited.add(_distinct(2, words=3))
    ids, cut = visited.add(np.empty((0, 3), dtype=np.uint64))
    assert (ids.tolist(), cut, len(visited)) == ([], None, 2)


def test_batch_larger_than_the_table_and_several_doublings():
    visited, oracle = RowSet(4), DictOracle()
    slots = len(visited._table)
    rng = np.random.default_rng(7)
    for k in (3 * slots, 1, 40 * slots, 7, 300 * slots):
        batch = _distinct(k, words=4, start=int(rng.integers(0, 2 * k)))
        batch = batch[rng.integers(0, k, size=k)]
        ids, _ = visited.add(batch)
        assert ids.tolist() == oracle.add(batch)[0]
        assert 4 * len(visited) <= len(visited._table)
    assert len(visited._table) >= 256 * slots
    _assert_agree(visited, oracle)
    assert visited.nbytes == (
        sum(seg.nbytes for seg in visited.segments()) + visited._table.nbytes
    )


def test_colliding_rows_take_the_lexsort_branch(monkeypatch):
    calls = []
    lexsort = np.lexsort

    def spy(keys):
        calls.append(len(keys))
        return lexsort(keys)

    monkeypatch.setattr(np, "lexsort", spy)
    visited = RowSet(3)
    batch = _distinct(6, words=3)[[4, 2, 4, 0, 2, 5]]
    visited.add(batch)
    assert calls == []  # a working hash never needs it
    monkeypatch.setattr(rowset, "_hash_rows", _constant_hash)
    ids, _ = RowSet(3).add(batch)
    assert calls == [3]
    assert ids.tolist() == [0, 1, 0, 2, 1, 3]


def test_hash_is_the_statehash_mixer_folded_over_the_words():
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 2**64, size=(50, 3), dtype=np.uint64)
    rows[:5] = 0
    want = []
    for row in rows.tolist():
        h = 0
        for word in row:
            h = mix64(h ^ word)
        want.append(h)
    assert rowset._hash_rows(rows).tolist() == want


def _model(rounds=1):
    return JackalModel(
        Config(threads_per_processor=(1, 1), rounds=rounds),
        ProtocolVariant.fixed(),
    )


def test_state_meta_decodes_every_state_after_the_array_has_grown():
    model = _model(rounds=2)
    ref = explore(model, keep_states=True)
    fast = explore_fast(model, keep_states=True)
    # far past the set's first allocation: the rows moved several times
    assert fast.n_states == ref.n_states > 8 * rowset._MIN_SLOTS
    assert fast.state_meta.values() == [
        ref.state_meta[i] for i in range(ref.n_states)
    ]
    for i in (0, 1, rowset._MIN_SLOTS, ref.n_states // 2, ref.n_states - 1):
        assert fast.state_meta[i] == ref.state_meta[i]


@pytest.mark.parametrize("max_states", [None, 100])
def test_engine_numbering_survives_a_degenerate_hash(any_hash, max_states):
    model = _model()
    outcomes = []
    for explorer in (explore, explore_fast):
        try:
            lts, limit = explorer(
                model, keep_states=True, max_states=max_states
            ), None
        except ExplorationLimitError as exc:
            lts, limit = exc.partial, str(exc)
        outcomes.append((lts, limit))
    (ref, ref_limit), (fast, fast_limit) = outcomes
    assert fast_limit == ref_limit
    assert (fast_limit is None) == (max_states is None)
    assert fast.labels == ref.labels and fast.n_states == ref.n_states
    for mine, theirs in zip(fast.columns(), ref.columns()):
        assert np.array_equal(mine, theirs)
    assert fast.state_meta == ref.state_meta


# -- segments ------------------------------------------------------------
#
# With the first segment patched down to 8 rows, batches straddle
# several segment boundaries (8, 16, 32, 64, ...).

_SMALL = 8


@pytest.fixture
def small_segments(monkeypatch):
    monkeypatch.setattr(rowset, "_SEGMENT", _SMALL)


@_settings
@given(batch_sequences(max_rows=300), st.data())
def test_segments_number_and_cut_like_a_dict(any_hash, small_segments, case,
                                             data):
    words, batches = case
    visited, oracle = RowSet(words), DictOracle()
    for batch in batches:
        room = data.draw(st.none() | st.integers(1, max(1, len(batch))))
        ids, cut = visited.add(batch, room)
        want, want_cut = oracle.add(batch, room)
        assert (ids.tolist(), cut) == (want, want_cut)
        _assert_agree(visited, oracle)


@pytest.mark.parametrize("lands", [
    _SMALL - 1, _SMALL, _SMALL + 1, 2 * _SMALL, 2 * _SMALL + 1,
    4 * _SMALL, 4 * _SMALL + 1,
])
def test_room_cuts_on_and_past_a_segment_boundary(any_hash, small_segments,
                                                  lands):
    # 5 states first, then a batch whose cut leaves ``lands`` states
    visited, oracle = RowSet(2), DictOracle()
    head = _distinct(5)
    visited.add(head)
    oracle.add(head)
    batch = np.concatenate([_distinct(40, start=100), head])
    batch = batch[np.random.default_rng(lands).permutation(len(batch))]
    room = lands - 5
    ids, cut = visited.add(batch, room)
    want, want_cut = oracle.add(batch, room)
    assert (ids.tolist(), cut) == (want, want_cut)
    assert len(visited) == lands
    _assert_agree(visited, oracle)
    # every slice across the boundary reads the rows of the ids
    rows = visited.rows()
    for lo, hi in ((lands - 2, lands), (lands - 1, lands + 3), (3, lands)):
        assert np.array_equal(visited.rows(lo, hi), rows[lo:hi])
    # and the next batch goes on from the cut
    more = _distinct(3, start=500)
    assert visited.add(more)[0].tolist() == oracle.add(more)[0]
    _assert_agree(visited, oracle)


def test_a_growth_copies_no_segment_and_rehashes_a_chunk_at_a_time(
    small_segments, monkeypatch
):
    chunk = 5
    monkeypatch.setattr(rowset, "_CHUNK", chunk)
    rehashes = []  # per table growth: the rows held, the insert sizes
    inserts = []
    reserve, insert = RowSet._reserve, RowSet._insert

    def spy_reserve(self, n):
        held = list(self._segments)
        slots = len(self._table)
        inserts.clear()
        reserve(self, n)
        # segment 0 doubles as one array until it is full; every
        # segment that existed at full size is still the same array
        for k, seg in enumerate(held):
            if k or len(seg) == _SMALL:
                assert self._segments[k] is seg
        if len(self._table) > slots:
            rehashes.append((len(self), list(inserts)))

    def spy_insert(self, h, ids):
        inserts.append(len(ids))
        insert(self, h, ids)

    monkeypatch.setattr(RowSet, "_reserve", spy_reserve)
    monkeypatch.setattr(RowSet, "_insert", spy_insert)
    visited, oracle = RowSet(3), DictOracle()
    rng = np.random.default_rng(11)
    for _ in range(60):
        batch = _distinct(chunk, words=3, start=rng.integers(0, 400))
        assert visited.add(batch)[0].tolist() == oracle.add(batch)[0]
    _assert_agree(visited, oracle)
    assert len(visited._segments) >= 5
    # every table growth re-inserts every row, never more than a chunk
    # at a time, and the later ones take many chunks
    assert len(rehashes) >= 3
    for n, sizes in rehashes:
        assert sum(sizes) == n and max(sizes, default=0) <= chunk
    assert len(rehashes[-1][1]) > 10


def test_growth_events_count_what_a_growth_allocates(small_segments):
    from repro import obs

    tracer = obs.Tracer()
    visited = RowSet(2)
    with obs.activate(tracer):
        for k in range(12):
            visited.add(_distinct(7, start=7 * k))
    events = [e for e in tracer.events() if e["ev"] == "rowset_grow"]
    assert events
    for e in events:
        assert e["row_bytes"] == 16
        table_bytes = (
            4 * e["slots_after"] if e["slots_after"] > e["slots_before"] else 0
        )
        # segment 0 regrows as one array; later growths add a segment
        new_rows = e["ids_after"] - (
            0 if e["ids_before"] < _SMALL else e["ids_before"]
        )
        assert e["bytes"] == table_bytes + 16 * new_rows
        assert e["traced_peak_bytes"] is None  # tracemalloc is off
        assert e["seconds"] >= 0
    assert events[-1]["ids_after"] == visited._capacity
    assert events[-1]["slots_after"] == len(visited._table)
