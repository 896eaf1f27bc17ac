"""Array-native visited set over packed state rows.

The frontier kernel (:mod:`repro.jackal.kernel`) hands the engine a BFS
level as one ``(m, words)`` ``uint64`` array. :class:`RowSet` numbers
those rows without ever turning one into a Python object: every visited
row lives *in state-id order* in a few power-of-two segments (so the
rows are at once the visited set, the next frontier and the kept
states), beside an open-addressing table of state ids — power-of-two
size, load at most one quarter, linear probing — hashed by the
splitmix64 finaliser of :mod:`repro.lts.statehash` folded over the
words.

Segment 0 holds ids ``[0, B)`` and segment ``k >= 1`` ids
``[B * 2**(k-1), B * 2**k)``, ``B`` being :data:`_SEGMENT`, so ``n``
states take at most ``log2(n / B) + 1`` arrays. Segment 0 starts at 16
rows and doubles as one array until it holds ``B``: a small model lives
there alone, and those at most ``B`` rows are the only ones ever
copied. From then on each growth adds a segment as large as all before
it, and no row moves again.

:meth:`RowSet.add` is three batched passes: *look up* the batch in the
table, *number* the rows it did not find in first-appearance order, and
*insert* those. A hit is only ever declared by comparing the full row,
and rows the hash cannot tell apart are told apart by sorting the rows
themselves, so the numbering is exact whatever the hash does — a bad
one costs probes, never a state.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.obs.core import current

_MIN_SLOTS = 64
#: rows in segment 0 (a power of two); segment ``k >= 1`` holds
#: ``_SEGMENT * 2**(k-1)``
_SEGMENT = 1 << 16
#: rows rehashed per pass when the slot table grows
_CHUNK = 1 << 14

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
    """The distinct rows seen so far, numbered in order of arrival.

    Each growth of the segments or the table is a ``rowset_grow`` span
    of the ambient tracer.
    """

    def __init__(self, words: int):
        self._words = words
        self._capacity = min(_MIN_SLOTS // 4, _SEGMENT)
        self._segments = [np.empty((self._capacity, words), dtype=np.uint64)]
        self._starts = [0]  # the first id of each segment
        self._table = np.full(_MIN_SLOTS, -1, dtype=np.int32)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def rows(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """States ``start`` to ``stop - 1`` as one ``(m, words)`` array:
        a view when they lie in one segment, else a copy of the pieces.
        A row never changes once stored, so a view stays valid while the
        set grows."""
        stop = self._n if stop is None else min(stop, self._n)
        parts = [view for view, _ in self._pieces(start, stop)]
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return np.empty((0, self._words), dtype=np.uint64)
        return np.concatenate(parts)

    def segments(self) -> list[np.ndarray]:
        """Every state's row, as views of the segments in id order."""
        return [view for view, _ in self._pieces(0, self._n)]

    @property
    def nbytes(self) -> int:
        """Bytes resident: the rows stored and the slot table. The rest
        of the last segment is allocated but not yet written."""
        return 8 * self._words * self._n + self._table.nbytes

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
        for view, at in self._pieces(n, n + len(new)):
            view[:] = batch.take(new[at - n:at - n + len(view)], axis=0)
        self._n = n + len(new)
        self._insert(h[new], np.arange(n, self._n, dtype=np.int32))
        return ids, cut

    def _pieces(self, start: int, stop: int):
        """``(view, first id)`` for each segment's share of the ids
        ``[start, stop)``, in id order."""
        for first, seg in zip(self._starts, self._segments):
            lo, hi = max(start - first, 0), min(stop - first, len(seg))
            if lo < hi:
                yield seg[lo:hi], first + lo

    def _reserve(self, n: int) -> None:
        """Make room for ``n`` rows at load <= 1/4 — before the lookup,
        not after it: a batch larger than the free part of the table
        would otherwise never run out of occupied slots to probe.

        A batch probes in lock-step rounds, as many as its longest
        probe sequence, and a round costs some thirty array calls
        whatever its size. At load 1/2 a level took 8-12 rounds, at 1/4
        it takes 4-6, which is most of what a small level costs; the
        price is a table of 16-32 bytes a state instead of 8-16.

        Once segment 0 is full, a growth adds a segment as large as all
        before it and copies no row. A larger table is filled from the
        rows, which are the source of truth: the old table is released
        first, and the rows are hashed and inserted :data:`_CHUNK` at a
        time. So a growth allocates the new table, one new segment and
        one chunk's temporaries, and nothing else of the set's size.
        When ``tracemalloc`` is tracing, the event's
        ``traced_peak_bytes`` measures that: the peak of traced memory
        during the growth above what was traced before it.
        """
        ids, slots = self._capacity, len(self._table)
        if n <= ids and 4 * n <= slots:
            return
        with current().span("rowset_grow") as grow:
            tracing = tracemalloc.is_tracing()
            if tracing:
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            allocated = 0
            while n > self._capacity:
                if self._capacity < _SEGMENT:
                    # segment 0 doubles as one array up to B rows: a small
                    # model allocates as it grows, in blocks the allocator
                    # hands back, as when all rows were one array
                    seg = np.empty(
                        (min(max(n, 2 * self._capacity), _SEGMENT), self._words),
                        dtype=np.uint64,
                    )
                    seg[:self._n] = self._segments[0][:self._n]
                    self._segments[0] = seg
                    self._capacity = len(seg)
                else:
                    seg = np.empty((self._capacity, self._words), dtype=np.uint64)
                    self._segments.append(seg)
                    self._starts.append(self._capacity)
                    self._capacity += len(seg)
                allocated += seg.nbytes
            if 4 * n > slots:
                self._table = None  # type: ignore[assignment]
                self._table = np.full(1 << (4 * n - 1).bit_length(), -1,
                                      dtype=np.int32)
                allocated += self._table.nbytes
                for view, first in self._pieces(0, self._n):
                    for lo in range(0, len(view), _CHUNK):
                        chunk = view[lo:lo + _CHUNK]
                        self._insert(_hash_rows(chunk), np.arange(
                            first + lo, first + lo + len(chunk), dtype=np.int32
                        ))
            grow.fields.update(
                ids_before=ids, ids_after=self._capacity,
                slots_before=slots, slots_after=len(self._table),
                row_bytes=8 * self._words, bytes=allocated,
                traced_peak_bytes=(
                    tracemalloc.get_traced_memory()[1] - held
                    if tracing else None
                ),
            )

    def _slots(self, h: np.ndarray) -> np.ndarray:
        return (h & np.uint64(len(self._table) - 1)).astype(np.intp)

    def _lookup(self, batch: np.ndarray, h: np.ndarray) -> np.ndarray:
        """The id of each row of ``batch``, -1 where it is not in the set."""
        ids = np.full(len(batch), -1, dtype=np.int32)
        table, mask = self._table, len(self._table) - 1
        slot = self._slots(h)
        at = np.arange(len(batch))  # batch positions still probing
        while len(at):
            found = table[slot]
            occupied = (found >= 0).nonzero()[0]  # an empty slot: unseen
            found, at, slot = found[occupied], at[occupied], slot[occupied]
            rows, order = self._gather(found)
            if order is not None:
                found, at, slot = found[order], at[order], slot[order]
            hit = _rows_equal(rows, batch.take(at, axis=0))
            ids[at[hit]] = found[hit]
            miss = (~hit).nonzero()[0]
            at, slot = at[miss], (slot[miss] + 1) & mask
        return ids

    def _gather(self, found: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """The rows of the states ``found``, and the order they are in:
        ``None`` for ``found``'s own, else a permutation of ``found``
        that groups it by segment, so each segment is one ``take``."""
        # take, not rows[found]: 2-D fancy indexing is far slower
        if len(self._segments) == 1:
            return self._segments[0].take(found, axis=0), None
        # ids below B are segment 0, ids in [B * 2**(k-1), B * 2**k)
        # segment k: the binary exponent of ``id // B``
        shift = _SEGMENT.bit_length() - 1
        seg_of = np.frexp(found >> shift)[1].astype(np.uint8)
        order = seg_of.argsort(kind="stable")  # a radix sort on uint8
        found = found[order]
        rows = np.empty((len(found), self._words), dtype=np.uint64)
        ends = np.bincount(seg_of, minlength=len(self._segments)).cumsum()
        lo = 0
        for first, seg, hi in zip(self._starts, self._segments, ends):
            if lo < hi:  # "clip": the ids are in range, "raise" buffers
                seg.take(found[lo:hi] - first, axis=0, out=rows[lo:hi],
                         mode="clip")
            lo = hi
        return rows, order

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
