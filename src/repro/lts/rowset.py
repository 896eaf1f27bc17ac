"""Array-native visited set over packed state rows.

The frontier kernel (:mod:`repro.jackal.kernel`) hands the engine a BFS
level as one ``(m, words)`` ``uint64`` array. :class:`RowSet` numbers
those rows without ever turning one into a Python object: every visited
row lives in one growable array *in state-id order* (so the array is at
once the visited set, the next frontier and the kept states), beside an
open-addressing table of state ids — power-of-two size, load at most
one quarter, linear probing — hashed by the splitmix64 finaliser of
:mod:`repro.lts.statehash` folded over the words.

:meth:`RowSet.add` is three batched passes: *look up* the batch in the
table, *number* the rows it did not find in first-appearance order, and
*insert* those. A hit is only ever declared by comparing the full row,
and rows the hash cannot tell apart are told apart by sorting the rows
themselves, so the numbering is exact whatever the hash does — a bad
one costs probes, never a state.
"""

from __future__ import annotations

import numpy as np

_MIN_SLOTS = 64

_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def _hash_rows(rows: np.ndarray) -> np.ndarray:
    """One 64-bit hash per row: ``h = mix64(h ^ word)`` over the words.

    Every word goes through the mixer — the rows are packed bit fields,
    and most of a level differs in a few low-entropy bits of one word.
    """
    h = np.zeros(len(rows), dtype=np.uint64)
    tmp = np.empty_like(h)
    for w in range(rows.shape[1]):
        h ^= rows[:, w]
        for shift, factor in ((30, _MIX_1), (27, _MIX_2), (31, None)):
            np.right_shift(h, shift, out=tmp)
            h ^= tmp
            if factor is not None:
                h *= factor
    return h


def _rows_equal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a word at a time: ``(a == b).all(axis=1)`` reduces over an axis
    # of 1-5 elements, which costs three times these strided passes
    eq = a[:, 0] == b[:, 0]
    for w in range(1, a.shape[1]):
        eq &= a[:, w] == b[:, w]
    return eq


def _number_distinct(
    rows: np.ndarray, h: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Number ``rows`` (hashes ``h``) by first appearance.

    Returns ``(firsts, number)``: the position of each distinct row's
    first occurrence, ascending, and for every row the index into
    ``firsts`` of the row it equals.
    """
    order = np.argsort(h)
    ranked = rows.take(order, axis=0)
    repeat = _rows_equal(ranked[1:], ranked[:-1])
    hs = h[order]
    if ((hs[1:] == hs[:-1]) & ~repeat).any():
        # equal hashes over unequal rows: equal rows need not be
        # neighbours, so order by the rows themselves
        order = np.lexsort(rows.T)
        ranked = rows.take(order, axis=0)
        repeat = _rows_equal(ranked[1:], ranked[:-1])
    start = np.ones(len(rows), dtype=bool)
    np.logical_not(repeat, out=start[1:])
    # a group's first appearance is its least position, taken as a
    # minimum: neither the sort's order inside a group nor the winner
    # of a scatter with repeated indices is anything to rely on
    group_first = np.minimum.reduceat(order, start.nonzero()[0])
    is_first = np.zeros(len(rows), dtype=bool)
    is_first[group_first] = True
    rank_at = np.cumsum(is_first) - 1
    number = np.empty(len(rows), dtype=np.intp)
    number[order] = rank_at[group_first][np.cumsum(start) - 1]
    return is_first.nonzero()[0], number


class RowSet:
    """The distinct rows seen so far, numbered in order of arrival."""

    def __init__(self, words: int):
        self._rows = np.empty((_MIN_SLOTS // 4, words), dtype=np.uint64)
        self._table = np.full(_MIN_SLOTS, -1, dtype=np.int32)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    @property
    def rows(self) -> np.ndarray:
        """Row ``i`` is state ``i``. A view: stale once :meth:`add` grows
        the array, so take it after the ``add`` whose rows it should show."""
        return self._rows[:self._n]

    @property
    def nbytes(self) -> int:
        """Bytes held: the row array and the slot table, as allocated."""
        return self._rows.nbytes + self._table.nbytes

    def add(
        self, batch: np.ndarray, room: int | None = None
    ) -> tuple[np.ndarray, int | None]:
        """Number every row of ``batch``; unseen rows get the next ids.

        Returns ``(ids, cut)``. Ids are handed out in order of first
        appearance in ``batch``. ``cut`` is ``None`` unless the batch
        holds at least ``room`` unseen distinct rows: then only the
        first ``room`` of them are added, ``cut`` is one past the batch
        position that introduces the last, and ``ids`` stops there.
        """
        n = self._n
        self._reserve(n + len(batch))
        h = _hash_rows(batch)
        ids = self._lookup(batch, h)
        unseen = (ids < 0).nonzero()[0]
        if not len(unseen):
            return ids, None
        firsts, number = _number_distinct(
            batch.take(unseen, axis=0), h[unseen]
        )
        ids[unseen] = n + number
        cut = None
        if room is not None and len(firsts) >= room:
            firsts = firsts[:room]
            cut = int(unseen[firsts[-1]]) + 1
            ids = ids[:cut]
        new = unseen[firsts]
        self._n = n + len(new)
        self._rows[n:self._n] = batch.take(new, axis=0)
        self._insert(h[new], np.arange(n, self._n, dtype=np.int32))
        return ids, cut

    def _reserve(self, n: int) -> None:
        """Make room for ``n`` rows at load <= 1/4 — before the lookup,
        not after it: a batch larger than the free part of the table
        would otherwise never run out of occupied slots to probe.

        A batch probes in lock-step rounds, as many as its longest
        probe sequence, and a round costs some thirty array calls
        whatever its size. At load 1/2 a level took 8-12 rounds, at 1/4
        it takes 4-6, which is most of what a small level costs; the
        price is a table of 16-32 bytes a state instead of 8-16."""
        if n > len(self._rows):
            rows = np.empty(
                (max(n, 2 * len(self._rows)), self._rows.shape[1]),
                dtype=np.uint64,
            )
            rows[:self._n] = self._rows[:self._n]
            self._rows = rows
        if 4 * n > len(self._table):
            self._table = np.full(1 << (4 * n - 1).bit_length(), -1,
                                  dtype=np.int32)
            self._insert(
                _hash_rows(self.rows), np.arange(self._n, dtype=np.int32)
            )

    def _slots(self, h: np.ndarray) -> np.ndarray:
        return (h & np.uint64(len(self._table) - 1)).astype(np.intp)

    def _lookup(self, batch: np.ndarray, h: np.ndarray) -> np.ndarray:
        """The id of each row of ``batch``, -1 where it is not in the set."""
        ids = np.full(len(batch), -1, dtype=np.int32)
        table, rows, mask = self._table, self._rows, len(self._table) - 1
        slot = self._slots(h)
        at = np.arange(len(batch))  # batch positions still probing
        while len(at):
            found = table[slot]
            occupied = (found >= 0).nonzero()[0]  # an empty slot: unseen
            found, at, slot = found[occupied], at[occupied], slot[occupied]
            # take, not rows[found]: 2-D fancy indexing is far slower
            hit = _rows_equal(
                rows.take(found, axis=0), batch.take(at, axis=0)
            )
            ids[at[hit]] = found[hit]
            miss = (~hit).nonzero()[0]
            at, slot = at[miss], (slot[miss] + 1) & mask
        return ids

    def _insert(self, h: np.ndarray, ids: np.ndarray) -> None:
        """Give distinct, absent rows (hashes ``h``) slots holding ``ids``."""
        table, mask = self._table, len(self._table) - 1
        slot = self._slots(h)
        while len(ids):
            free = (table[slot] < 0).nonzero()[0]
            table[slot[free]] = ids[free]
            # several rows may have claimed one slot; which write stuck
            # is numpy's business, so read back and move the rest on
            lost = (table[slot] != ids).nonzero()[0]
            ids, slot = ids[lost], (slot[lost] + 1) & mask
