"""Shared-memory ring buffers for the distributed sweep's data plane.

Routing every successor bucket through the coordinator costs each hop
a pickle, an OS pipe write, an unpickle, a coordinator dispatch, and
the same again towards the owner. This module provides the data plane
that avoids it — one single-producer single-consumer
:class:`RingBuffer` per ordered worker pair, backed by
:mod:`multiprocessing.shared_memory` — so workers forward packed codec
keys **directly to their owners** as flat little-endian byte blocks and
the coordinator stays off the steady-state path entirely (it keeps only
control traffic: acknowledgements, termination counting, liveness and
the crash-recovery ledger).

Layout of one ring (``HEADER_BYTES`` header + ``capacity`` data bytes)::

    u64 wr_bytes   cumulative bytes written   (producer-owned)
    u64 rd_bytes   cumulative bytes consumed  (consumer-owned)
    u64 wr_recs    cumulative records written (producer-owned)
    u64 rd_recs    cumulative records consumed(consumer-owned)
    ... capacity data bytes ...

Counters are *cumulative*, never wrapped: ``wr_bytes - rd_bytes`` is
the number of unconsumed bytes and ``wr_bytes % capacity`` the physical
write offset. Each record is stored contiguously as ``u32 payload_len |
u32 depth | payload``; a record that would straddle the end of the data
area is preceded by a pad — a ``0xFFFFFFFF`` length marker (or, when
fewer than 8 bytes remain, nothing at all) — telling the consumer to
skip to offset 0. Every counter is written with a single aligned 8-byte
store *after* its payload, which on CPython (one bytecode holding the
GIL per store) plus any mainstream memory model is enough for the
one-producer/one-consumer discipline used here.

The exactness contract of the fault-tolerant sweep extends to rings:
a consumer advances ``rd_*`` only *after* the acknowledgement covering
those records has been handed to the coordinator, so everything a dead
worker consumed-but-never-acked is still physically in its inbound
rings and :meth:`RingBuffer.drain_unconsumed` (coordinator crash path,
producers known stopped) recovers it.

:class:`AdaptiveBatch` is the transport's pacing controller: fixed
256-state batches are far too small for fast models
(thousands of per-batch round trips) and too large for slow ones. It
tracks an exponential moving average of the measured expansion rate and
sizes the next quantum to a wall-clock target.
"""

from __future__ import annotations

import struct
from multiprocessing import shared_memory

_U32 = struct.Struct("<I")
_REC = struct.Struct("<II")  # payload_len, depth
_CTR = struct.Struct("<Q")

#: ring header size: 4 cache-line-separable u64 counters, padded
HEADER_BYTES = 32
#: length-field value marking "pad to end of data area, wrap to 0"
_PAD_MARK = 0xFFFFFFFF
#: per-record framing overhead
_REC_OVERHEAD = _REC.size

#: default data capacity of one ring (per ordered worker pair)
DEFAULT_RING_BYTES = 1 << 20


class RingBuffer:
    """One SPSC shared-memory ring (see module docstring for layout).

    The coordinator :meth:`create`\\ s every ring before forking;
    workers inherit the mapped objects through ``fork`` and use the
    producer side (:meth:`try_write`) of their outbound rings and the
    consumer side (:meth:`peek` / :meth:`commit`) of their inbound
    ones. Nothing here locks: each counter has exactly one writer.
    """

    __slots__ = ("_shm", "capacity", "_buf", "_owned")

    def __init__(self, shm: shared_memory.SharedMemory, capacity: int,
                 owned: bool = False):
        self._shm = shm
        self.capacity = capacity
        self._buf = shm.buf
        self._owned = owned

    @classmethod
    def create(cls, capacity: int = DEFAULT_RING_BYTES) -> "RingBuffer":
        """Allocate a zeroed ring of ``capacity`` data bytes."""
        if capacity < 64:
            raise ValueError("ring capacity must be >= 64 bytes")
        shm = shared_memory.SharedMemory(
            create=True, size=HEADER_BYTES + capacity
        )
        shm.buf[:HEADER_BYTES] = b"\x00" * HEADER_BYTES
        return cls(shm, capacity, owned=True)

    @property
    def name(self) -> str:
        return self._shm.name

    # -- counters (each has exactly one writing process) -------------

    def _get(self, off: int) -> int:
        return _CTR.unpack_from(self._buf, off)[0]

    def _set(self, off: int, value: int) -> None:
        _CTR.pack_into(self._buf, off, value)

    @property
    def wr_bytes(self) -> int:
        return self._get(0)

    @property
    def rd_bytes(self) -> int:
        return self._get(8)

    @property
    def wr_recs(self) -> int:
        return self._get(16)

    @property
    def rd_recs(self) -> int:
        return self._get(24)

    def counters(self) -> tuple[int, int, int, int]:
        """``(wr_bytes, rd_bytes, wr_recs, rd_recs)`` snapshot."""
        return (self._get(0), self._get(8), self._get(16), self._get(24))

    # -- producer side -----------------------------------------------

    def try_write(self, depth: int, payload) -> bool:
        """Append one record; False when it does not fit right now.

        ``payload`` is any bytes-like object. Records never straddle
        the wrap point: when the tail of the data area is too short the
        writer pads it (a :data:`_PAD_MARK` length when >= 4 bytes
        remain, dead bytes otherwise) and the pad cost counts against
        the free space. A payload that cannot fit even in an empty ring
        is rejected outright — the caller falls back to the control
        plane (a coordinator relay).
        """
        need = _REC_OVERHEAD + len(payload)
        if need > self.capacity:
            return False
        wr = self._get(0)
        rd = self._get(8)
        cap = self.capacity
        pos = wr % cap
        tail = cap - pos
        pad = 0 if tail >= need else tail
        if pad + need > cap - (wr - rd):
            return False
        if pad:
            if tail >= 4:
                _U32.pack_into(self._buf, HEADER_BYTES + pos, _PAD_MARK)
            wr += pad
            pos = 0
        base = HEADER_BYTES + pos
        _REC.pack_into(self._buf, base, len(payload), depth)
        self._buf[base + _REC_OVERHEAD: base + need] = payload
        # record count first, byte count last: the consumer gates on
        # wr_bytes, so a visible byte count implies a complete record
        self._set(16, self._get(16) + 1)
        self._set(0, wr + need)
        return True

    # -- consumer side -----------------------------------------------

    def peek(self, cursor: int):
        """The record at/after ``cursor``, or ``None``.

        ``cursor`` is a cumulative byte position (start at
        ``rd_bytes``). Returns ``(depth, payload: bytes, next_cursor)``
        without consuming anything — the consumer may peek many records
        ahead of ``rd_bytes`` and only :meth:`commit` them after the
        acknowledgement covering them is on its way (the crash-recovery
        ordering; see module docstring).
        """
        wr = self._get(0)
        cap = self.capacity
        buf = self._buf
        while cursor < wr:
            pos = cursor % cap
            tail = cap - pos
            if tail < _REC_OVERHEAD:
                cursor += tail  # short tail: implicit pad
                continue
            base = HEADER_BYTES + pos
            length = _U32.unpack_from(buf, base)[0]
            if length == _PAD_MARK:
                cursor += tail  # explicit pad marker
                continue
            depth = _U32.unpack_from(buf, base + 4)[0]
            start = base + _REC_OVERHEAD
            return depth, bytes(buf[start: start + length]), \
                cursor + _REC_OVERHEAD + length
        return None

    def commit(self, n_bytes: int, n_recs: int) -> None:
        """Advance the consumer counters (post-acknowledgement only).

        ``n_bytes`` must be a sum of cursor deltas returned by
        :meth:`peek` (pads included), ``n_recs`` the number of records
        they covered.
        """
        self._set(8, self._get(8) + n_bytes)
        self._set(24, self._get(24) + n_recs)

    def drain_unconsumed(self) -> list[tuple[int, bytes]]:
        """All unconsumed records, marking them consumed (crash path).

        Only valid when the producer is known to have stopped (it is
        dead, or the consumer is dead and the producer was told so) —
        there is no synchronisation against concurrent writes here.
        """
        out: list[tuple[int, bytes]] = []
        cursor = self._get(8)
        while True:
            rec = self.peek(cursor)
            if rec is None:
                break
            depth, payload, cursor = rec
            out.append((depth, payload))
        self._set(8, self._get(0))
        self._set(24, self._get(16))
        return out

    # -- lifecycle ----------------------------------------------------

    def close(self) -> None:
        """Unmap this process's view (workers and coordinator)."""
        self._buf = None
        try:
            self._shm.close()
        except (BufferError, OSError):  # pragma: no cover
            pass

    def unlink(self) -> None:
        """Free the backing segment (creator only, after close)."""
        if self._owned:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass


def pack_keys(keys, width: int) -> bytes:
    """Flatten integer codec keys into little-endian ``width``-byte slots."""
    return b"".join(k.to_bytes(width, "little") for k in keys)


def unpack_keys(payload, width: int) -> list[int]:
    """Inverse of :func:`pack_keys`."""
    ifb = int.from_bytes
    return [
        ifb(payload[i: i + width], "little")
        for i in range(0, len(payload), width)
    ]


class AdaptiveBatch:
    """Wall-clock-targeted quantum sizing for transport batches.

    Worker-local and purely arithmetic: after each expansion quantum the
    worker reports how many input keys it processed and how long the
    expansion took; the controller keeps an exponential moving average
    of the implied rate (keys/second) and sizes the next quantum as
    ``rate * target_s``, clamped to ``[lo, hi]``. Under constant
    per-key cost the EMA converges geometrically to the true rate, so
    the quantum size converges to (the clamp of) ``rate * target_s``;
    degenerate observations (zero keys, non-positive seconds from a
    coarse clock, or an interval so small the implied rate overflows)
    leave the estimate untouched.
    """

    __slots__ = ("size", "lo", "hi", "target_s", "alpha", "_rate")

    def __init__(self, initial: int = 256, lo: int = 32, hi: int = 8192,
                 target_s: float = 0.004, alpha: float = 0.3):
        if not (1 <= lo <= hi):
            raise ValueError("need 1 <= lo <= hi")
        if target_s <= 0:
            raise ValueError("target_s must be positive")
        if not (0.0 < alpha <= 1.0):
            raise ValueError("alpha must be in (0, 1]")
        self.size = max(lo, min(hi, initial))
        self.lo = lo
        self.hi = hi
        self.target_s = target_s
        self.alpha = alpha
        self._rate: float | None = None

    def update(self, n_keys: int, seconds: float) -> int:
        """Fold one observation in; returns the new quantum size."""
        if n_keys <= 0 or seconds <= 0.0:
            return self.size
        rate = n_keys / seconds
        if rate == float("inf"):  # denormal-small seconds: no signal
            return self.size
        if self._rate is None:
            self._rate = rate
        else:
            self._rate = self.alpha * rate + (1.0 - self.alpha) * self._rate
        self.size = max(self.lo, min(self.hi, int(self._rate * self.target_s)))
        return self.size
