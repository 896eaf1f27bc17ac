"""Packed fixed-width state codec for the Jackal protocol model.

A :class:`JackalModel` state is a nested tuple —

    (threads, copies, hq, rq, hqa, rqa, locks, migs)

— some forty small-int objects plus a dozen inner tuples, costing
hundreds of bytes per state and a recursive hash on every visited-set
probe. For a fixed :class:`~repro.jackal.params.Config` every field
ranges over a small known domain, so the whole state packs losslessly
into one fixed-width integer:

* each thread tuple packs into ``phase | reg | aho | wdone | rounds |
  dirty`` bit fields;
* each region copy packs into ``home | rstate | writer_mask |
  localthreads``;
* queue slots enumerate their message alphabet (``0`` = empty, dense
  codes for ``REQ``/``FLUSH``/``RET`` payloads);
* lock tuples pack holder ids and waiter bitmasks verbatim;
* migration slots enumerate ``(writer_mask, rstate)`` payloads.

The reserved key ``0`` encodes the :data:`~repro.jackal.model.VIOLATION`
sink; every ordinary state is ``(bits << 1) | 1``.

The packed key orders states totally: the certified symmetry quotient
takes the orbit member with the least key as its representative
(:meth:`StateCodec.canonicalize`). The sweeps themselves key on the
frontier kernel's rows (:mod:`repro.jackal.kernel`), not on this key.

Packing is memoised per sub-tuple (one thread, one copy row, one
queue slot, one lock tuple, one migration row), so a warm ``encode``
is a few dict hits on small tuples.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ModelError
from repro.jackal.model import VIOLATION, JackalModel, Msg

#: fine fields :meth:`StateCodec.projector` can retract — the
#: write-only read-state bookkeeping family the cone-of-influence
#: analysis (:mod:`repro.staticcheck.slicing`) can prove sliceable
PROJECTABLE_FIELDS = frozenset(
    ("copy.rstate", "rq.rstate", "rqa.rstate", "mig.rstate")
)


def _width(max_value: int) -> int:
    """Bits needed for values ``0..max_value`` (at least one)."""
    return max(1, max_value.bit_length())


class StateCodec:
    """Bijection between model states and fixed-width integers.

    Parameters
    ----------
    model:
        The model whose configuration fixes every field domain. States
        of other models with the same topology (processors, threads,
        regions, rounds, writes) encode identically.
    """

    def __init__(self, model: JackalModel):
        cfg = model.config
        self.T = T = model.n_threads
        self.P = P = model.n_proc
        self.R = R = model.n_regions
        W = cfg.writes_per_round
        rounds0 = -1 if cfg.rounds is None else cfg.rounds

        # thread fields: phase, reg, aho, wdone, rounds+1, dirty
        self._w_phase = 4  # Phase has 12 values
        self._w_reg = _width(R - 1)
        self._w_wdone = _width(W)
        self._w_rounds = _width(rounds0 + 1)
        self._w_dirty = R
        self._w_thread = (
            self._w_phase + self._w_reg + 1 + self._w_wdone
            + self._w_rounds + self._w_dirty
        )
        # copy fields: home, rstate, writer_mask, localthreads
        self._w_home = _width(P - 1)
        self._w_lt = _width(T)
        self._w_copy = self._w_home + 1 + P + self._w_lt
        self._w_copyrow = R * self._w_copy
        # home-queue slots: 0 | REQ/FLUSH x tid x src x r
        self._n_hmsg = 2 * T * P * R
        self._w_hmsg = _width(self._n_hmsg)
        # remote-queue slots: 0 | RET x tid x sender x mig x wl x rstate x r
        self._n_rmsg = T * P * 2 * (1 << P) * 2 * R
        self._w_rmsg = _width(self._n_rmsg)
        # locks: holder (0..T) and waiter masks, three lock kinds
        self._w_holder = _width(T)
        self._w_locks = 3 * (self._w_holder + T)
        # migration slots: 0 | (writer_mask, rstate)
        self._w_mig = _width(1 << (P + 1))
        self._w_migrow = R * self._w_mig

        #: bit widths of the two state halves (see encode):
        #: hi = (threads, copies), lo = (queues, locks, migrations)
        self._w_hi = T * self._w_thread + P * self._w_copyrow
        self._w_lo = (
            2 * P * self._w_hmsg
            + 2 * P * self._w_rmsg
            + P * self._w_locks
            + P * self._w_migrow
        )
        #: total key width (including the violation flag bit)
        self.n_bits = 1 + self._w_hi + self._w_lo
        #: bytes of a packed key
        self.n_bytes = (self.n_bits + 7) // 8
        self._lo_mask = (1 << self._w_lo) - 1
        # memo tables: sub-tuple -> packed bits (and the reverse)
        self._enc_thread: dict = {}
        self._enc_copyrow: dict = {}
        self._enc_hmsg: dict = {0: 0}
        self._enc_rmsg: dict = {0: 0}
        self._enc_locks: dict = {}
        self._enc_migrow: dict = {}
        self._dec_thread: dict = {}
        self._dec_copyrow: dict = {}
        self._dec_hmsg: dict = {0: 0}
        self._dec_rmsg: dict = {0: 0}
        self._dec_locks: dict = {}
        self._dec_migrow: dict = {}
        # slice projection closures, keyed by the dropped-field set
        self._projectors: dict = {}

    # -- packing helpers (cache-miss path; results are memoised) --------

    def _check(self, value: int, width: int, what: str) -> int:
        if not 0 <= value < (1 << width):
            raise ModelError(f"{what} {value} outside codec field range")
        return value

    def _pack_thread(self, th) -> int:
        ph, reg, aho, wdone, rounds, dirty = th
        v = self._check(ph, self._w_phase, "phase")
        v = v << self._w_reg | self._check(reg, self._w_reg, "reg")
        v = v << 1 | self._check(aho, 1, "aho")
        v = v << self._w_wdone | self._check(wdone, self._w_wdone, "wdone")
        v = v << self._w_rounds | self._check(
            rounds + 1, self._w_rounds, "rounds"
        )
        return v << self._w_dirty | self._check(dirty, self._w_dirty, "dirty")

    def _unpack_thread(self, v: int):
        m = (1 << self._w_dirty) - 1
        dirty = v & m
        v >>= self._w_dirty
        rounds = (v & ((1 << self._w_rounds) - 1)) - 1
        v >>= self._w_rounds
        wdone = v & ((1 << self._w_wdone) - 1)
        v >>= self._w_wdone
        aho = v & 1
        v >>= 1
        reg = v & ((1 << self._w_reg) - 1)
        return (v >> self._w_reg, reg, aho, wdone, rounds, dirty)

    def _pack_copyrow(self, row) -> int:
        v = 0
        for home, rstate, wl, lt in row:
            v = v << self._w_home | self._check(home, self._w_home, "home")
            v = v << 1 | self._check(rstate, 1, "rstate")
            v = v << self.P | self._check(wl, self.P, "writer_mask")
            v = v << self._w_lt | self._check(lt, self._w_lt, "localthreads")
        return v

    def _unpack_copyrow(self, v: int):
        out = []
        for _ in range(self.R):
            lt = v & ((1 << self._w_lt) - 1)
            v >>= self._w_lt
            wl = v & ((1 << self.P) - 1)
            v >>= self.P
            rstate = v & 1
            v >>= 1
            out.append((v & ((1 << self._w_home) - 1), rstate, wl, lt))
            v >>= self._w_home
        return tuple(reversed(out))

    def _pack_hmsg(self, msg) -> int:
        kind, tid, src, r = msg
        if kind == Msg.REQ:
            k = 0
        elif kind == Msg.FLUSH:
            k = 1
        else:
            raise ModelError(f"message kind {kind} cannot sit in a home queue")
        return 1 + ((k * self.T + tid) * self.P + src) * self.R + r

    def _unpack_hmsg(self, code: int):
        code -= 1
        code, r = divmod(code, self.R)
        code, src = divmod(code, self.P)
        k, tid = divmod(code, self.T)
        return (int(Msg.FLUSH) if k else int(Msg.REQ), tid, src, r)

    def _pack_rmsg(self, msg) -> int:
        kind, tid, sender, mig, wl, rstate, r = msg
        if kind != Msg.RET:
            raise ModelError(f"message kind {kind} cannot sit in a remote queue")
        code = (tid * self.P + sender) * 2 + mig
        code = (code << self.P | wl) * 2 + rstate
        return 1 + code * self.R + r

    def _unpack_rmsg(self, code: int):
        code -= 1
        code, r = divmod(code, self.R)
        code, rstate = divmod(code, 2)
        wl = code & ((1 << self.P) - 1)
        code >>= self.P
        code, mig = divmod(code, 2)
        tid, sender = divmod(code, self.P)
        return (int(Msg.RET), tid, sender, mig, wl, rstate, r)

    def _pack_locks(self, lp) -> int:
        v = 0
        for i in (0, 2, 4):
            v = v << self._w_holder | self._check(
                lp[i], self._w_holder, "lock holder"
            )
            v = v << self.T | self._check(lp[i + 1], self.T, "waiter mask")
        return v

    def _unpack_locks(self, v: int):
        out = []
        for _ in range(3):
            w = v & ((1 << self.T) - 1)
            v >>= self.T
            out.append(w)
            out.append(v & ((1 << self._w_holder) - 1))
            v >>= self._w_holder
        return tuple(reversed(out))

    def _pack_migrow(self, row) -> int:
        v = 0
        for m in row:
            code = 0 if m == 0 else 1 + (m[0] * 2 + m[1])
            v = v << self._w_mig | self._check(code, self._w_mig, "migration")
        return v

    def _unpack_migrow(self, v: int):
        out = []
        for _ in range(self.R):
            code = v & ((1 << self._w_mig) - 1)
            v >>= self._w_mig
            if code == 0:
                out.append(0)
            else:
                wl, rstate = divmod(code - 1, 2)
                out.append((wl, rstate))
        return tuple(reversed(out))

    # -- public API -----------------------------------------------------

    def _pack_hi(self, hi) -> int:
        """Pack the ``(threads, copies)`` half."""
        threads, copies = hi
        key = 0
        et = self._enc_thread
        wt = self._w_thread
        for th in threads:
            v = et.get(th)
            if v is None:
                v = et[th] = self._pack_thread(th)
                self._dec_thread[v] = th
            key = key << wt | v
        ec = self._enc_copyrow
        wc = self._w_copyrow
        for row in copies:
            v = ec.get(row)
            if v is None:
                v = ec[row] = self._pack_copyrow(row)
                self._dec_copyrow[v] = row
            key = key << wc | v
        return key

    def _pack_lo(self, lo) -> int:
        """Pack the ``(hq, rq, hqa, rqa, locks, migs)`` half."""
        hq, rq, hqa, rqa, locks, migs = lo
        key = 0
        eh = self._enc_hmsg
        wh = self._w_hmsg
        er = self._enc_rmsg
        wr = self._w_rmsg
        for q in (hq, hqa):
            for m in q:
                v = eh.get(m)
                if v is None:
                    v = eh[m] = self._pack_hmsg(m)
                    self._dec_hmsg[v] = m
                key = key << wh | v
        for q in (rq, rqa):
            for m in q:
                v = er.get(m)
                if v is None:
                    v = er[m] = self._pack_rmsg(m)
                    self._dec_rmsg[v] = m
                key = key << wr | v
        el = self._enc_locks
        wl = self._w_locks
        for lp in locks:
            v = el.get(lp)
            if v is None:
                v = el[lp] = self._pack_locks(lp)
                self._dec_locks[v] = lp
            key = key << wl | v
        em = self._enc_migrow
        wm = self._w_migrow
        for row in migs:
            v = em.get(row)
            if v is None:
                v = em[row] = self._pack_migrow(row)
                self._dec_migrow[v] = row
            key = key << wm | v
        return key

    def encode(self, state) -> int:
        """Pack ``state`` into its integer key (``0`` = VIOLATION)."""
        if len(state) != 8:
            if state != VIOLATION:
                raise ModelError(f"not a protocol state: {state!r}")
            return 0
        hi = self._pack_hi(state[:2])
        return (hi << self._w_lo | self._pack_lo(state[2:])) << 1 | 1

    def _take(self, key: int, width: int, count: int, table: dict, unpack):
        """Split ``count`` ``width``-bit fields off the low end of ``key``.

        Returns ``(remaining_key, fields)`` with the fields memoised
        through ``table``. A plain method rather than a closure inside
        :meth:`decode`: building a cell-variable closure per call costs
        more than the field walk itself.
        """
        mask = (1 << width) - 1
        get = table.get
        out = []
        append = out.append
        for _ in range(count):
            v = key & mask
            key >>= width
            item = get(v)
            if item is None:
                item = table[v] = unpack(v)
            append(item)
        out.reverse()
        return key, tuple(out)

    def _unpack_hi(self, bits: int):
        """Field-walk the hi half back into ``(threads, copies)``."""
        take = self._take
        bits, copies = take(bits, self._w_copyrow, self.P,
                            self._dec_copyrow, self._unpack_copyrow)
        bits, threads = take(bits, self._w_thread, self.T,
                             self._dec_thread, self._unpack_thread)
        return (threads, copies)

    def _unpack_lo(self, bits: int):
        """Field-walk the lo half back into its six components."""
        P = self.P
        take = self._take
        bits, migs = take(bits, self._w_migrow, P, self._dec_migrow,
                          self._unpack_migrow)
        bits, locks = take(bits, self._w_locks, P, self._dec_locks,
                           self._unpack_locks)
        bits, rqa = take(bits, self._w_rmsg, P, self._dec_rmsg,
                         self._unpack_rmsg)
        bits, rq = take(bits, self._w_rmsg, P, self._dec_rmsg,
                        self._unpack_rmsg)
        bits, hqa = take(bits, self._w_hmsg, P, self._dec_hmsg,
                         self._unpack_hmsg)
        bits, hq = take(bits, self._w_hmsg, P, self._dec_hmsg,
                        self._unpack_hmsg)
        return (hq, rq, hqa, rqa, locks, migs)

    def decode(self, key: int):
        """Inverse of :meth:`encode`."""
        if key == 0:
            return VIOLATION
        key >>= 1
        return (self._unpack_hi(key >> self._w_lo)
                + self._unpack_lo(key & self._lo_mask))

    def canonicalize(self, state, perms):
        """Minimal ``(key, representative)`` over the orbit of ``state``.

        ``perms`` are the *non-identity* members of a certified
        permutation group (duck-typed: anything with ``apply``, e.g.
        :class:`repro.staticcheck.symmetry.Permutation`); the state
        itself always competes, so the identity must not be passed.
        The minimal packed key is a total, permutation-invariant
        choice of orbit representative — the symmetry-reduced visited
        set keys on it.
        """
        best_key = self.encode(state)
        best_state = state
        for perm in perms:
            permuted = perm.apply(state)
            key = self.encode(permuted)
            if key < best_key:
                best_key, best_state = key, permuted
        return best_key, best_state

    def encode_canonical(self, state, perms) -> int:
        """The canonical (orbit-minimal) packed key of ``state``."""
        return self.canonicalize(state, perms)[0]

    def projector(self, dropped) -> Callable:
        """A memoised projection retracting ``dropped`` fine fields.

        ``dropped`` must be a subset of :data:`PROJECTABLE_FIELDS`
        (the fields a certificate's slice section can license); the
        returned closure zeroes those fields at every index, returns
        the *original* object when nothing changes (so identity hits
        are cheap to detect), and passes VIOLATION through. Zeroing
        is a retraction — ``0`` is in every field's domain — and
        commutes with the admissible permutations, which never touch
        ``rstate`` payloads.
        """
        dropped = frozenset(dropped)
        cached = self._projectors.get(dropped)
        if cached is not None:
            return cached
        unsupported = dropped - PROJECTABLE_FIELDS
        if unsupported:
            raise ModelError(
                f"cannot project fields {sorted(unsupported)}: only "
                f"{sorted(PROJECTABLE_FIELDS)} are sliceable"
            )
        drop_copy = "copy.rstate" in dropped
        drop_rq = "rq.rstate" in dropped
        drop_rqa = "rqa.rstate" in dropped
        drop_mig = "mig.rstate" in dropped
        copy_memo: dict = {}
        mig_memo: dict = {}

        def proj_copyrow(row):
            v = copy_memo.get(row)
            if v is None:
                v = copy_memo[row] = tuple(
                    r if r[1] == 0 else (r[0], 0, r[2], r[3]) for r in row
                )
            return v

        def proj_rmsg(m):
            if m == 0 or m[5] == 0:
                return m
            return m[:5] + (0, m[6])

        def proj_migrow(row):
            v = mig_memo.get(row)
            if v is None:
                v = mig_memo[row] = tuple(
                    m if m == 0 or m[1] == 0 else (m[0], 0) for m in row
                )
            return v

        def project(state):
            if len(state) != 8:
                return state
            threads, copies, hq, rq, hqa, rqa, locks, migs = state
            ncopies = (
                tuple(proj_copyrow(row) for row in copies)
                if drop_copy
                else copies
            )
            nrq = tuple(proj_rmsg(m) for m in rq) if drop_rq else rq
            nrqa = tuple(proj_rmsg(m) for m in rqa) if drop_rqa else rqa
            nmigs = (
                tuple(proj_migrow(row) for row in migs)
                if drop_mig
                else migs
            )
            ns = (threads, ncopies, hq, nrq, hqa, nrqa, locks, nmigs)
            return state if ns == state else ns

        self._projectors[dropped] = project
        return project

    def project(self, state, dropped):
        """``state`` with the ``dropped`` fine fields retracted."""
        return self.projector(dropped)(state)

    def encode_sliced(self, state, dropped, perms=()) -> int:
        """The packed key of the sliced (projected) state.

        Composes with symmetry reduction: with ``perms`` the key is
        the orbit-minimal encoding of the projection — projection and
        permutation commute, so the composite is well defined and
        identifies exactly the states the certificate's slice and
        group together.
        """
        projected = self.projector(dropped)(state)
        if perms:
            return self.encode_canonical(projected, perms)
        return self.encode(projected)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StateCodec(T={self.T}, P={self.P}, R={self.R}, "
            f"bits={self.n_bits})"
        )

