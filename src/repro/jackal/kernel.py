"""Frontier kernel: the Jackal successor relation over packed rows.

:meth:`~repro.jackal.model.JackalModel.successors` expands one tuple
tree at a time; the exploration engine pays for that per transition
(tuple surgery, a recursive hash of a ~40-tuple tree at the visited
probe, a 500-byte tree resident per state). This module is the same
relation evaluated for a whole breadth-first level at once:

* a state is one row of ``uint64`` words; :class:`Layout` assigns every
  field of the state (``name -> bit width``, declared once in
  :meth:`FrontierKernel._declare`) a word, shift and mask, and no
  element (a thread, a region copy, a queue slot, a lock tuple) — hence
  no field — straddles a word. Configuration 3 is 223 bits = 4 words,
  so the visited index keys on 32 bytes;
* :meth:`FrontierKernel.expand` evaluates every protocol rule as a
  guard (a boolean vector over the level's rows) and a handful of
  field updates on the selected rows, then sorts the candidates by
  ``(source row, static rule rank)`` — the rank reproduces the order in
  which ``successors`` lists its moves, so numbering the result in
  order gives the scalar explorers' state ids, not merely an
  isomorphic LTS. Indices that depend on the data (``home``, the
  region or thread named inside a held message) become a static loop
  over the few candidate values with an equality mask, which also
  makes every label static per rule instance;
* a rule's updates are data: :meth:`Layout.plan` compiles an update
  list once into a write plan — one keep and one or mask per word with
  every constant folded in and range-checked, plus the few values
  computed per row — so an emission's constants cost two array
  operations per word they touch however many fields they write,
  applied once, to the level's candidate block;
* the assertion-violation sink is the row with only the ``violation``
  flag set; an empty queue or migration slot is all-zero, so equal
  states have equal bytes; every ``ModelError`` of the scalar relation
  is raised here too, and a value that does not fit its field raises
  ``ModelError`` instead of spilling into the neighbouring field.

``successors`` stays the readable specification;
``tests/jackal/test_kernel.py`` holds this module to it column for
column.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from repro.errors import ModelError
from repro.jackal.actions import (
    C_COPY,
    C_HOME,
    HOMEQUEUE_EMPTY,
    LOCK_EMPTY,
    PROBE_LABELS,
    REMOTEQUEUE_EMPTY,
)
from repro.jackal.model import VIOLATION, Msg, Phase, RegionState

_M64 = (1 << 64) - 1
_NARROW = (np.uint8, np.uint16, np.uint32)
#: rows decoded per batch by :meth:`FrontierKernel.unpack` — bounds the
#: per-field Python lists alive at once
_UNPACK_CHUNK = 1 << 16

_IDLE = int(Phase.IDLE)
_WANT_SERVER = int(Phase.WANT_SERVER)
_HAVE_SERVER = int(Phase.HAVE_SERVER)
_WANT_FAULT = int(Phase.WANT_FAULT)
_HAVE_FAULT = int(Phase.HAVE_FAULT)
_WAIT_DATA = int(Phase.WAIT_DATA)
_REMOTE_READY = int(Phase.REMOTE_READY)
_WANT_FLUSH = int(Phase.WANT_FLUSH)
_HAVE_FLUSH = int(Phase.HAVE_FLUSH)
_LOCAL = int(Phase.LOCAL)
_ALF_WRITE = int(Phase.ALF_WRITE)
_ALF_FLUSH = int(Phase.ALF_FLUSH)
_USED = int(RegionState.USED)
_REQ, _RET, _FLUSH = int(Msg.REQ), int(Msg.RET), int(Msg.FLUSH)
#: the canonical key's order of element families (the layout's is hq,
#: rq, hqa, rqa): :meth:`FrontierKernel.key_units`
_KEY_ORDER = ("thread", "copy", "hq", "hqa", "rq", "rqa", "locks", "mig")


def _width(max_value: int) -> int:
    """Bits needed for values ``0..max_value`` (at least one)."""
    return max(1, max_value.bit_length())


class Field:
    """One bit-field of a packed row: ``(row[word] >> shift) & mask``."""

    __slots__ = ("name", "idx", "word", "shift", "mask", "clear", "dtype")

    def __init__(self, name: str, idx: int, word: int, shift: int, width: int):
        self.name = name
        self.idx = idx
        self.word = word
        self.shift = shift
        self.mask = (1 << width) - 1
        # numpy 2 refuses a negative Python int against uint64, so the
        # complement is taken inside 64 bits
        self.clear = _M64 ^ (self.mask << shift)
        #: the narrowest unsigned type that holds ``mask + 1``, so that
        #: ``INC`` at the top and ``DEC`` at zero leave the field's
        #: range instead of wrapping back into it
        self.dtype = next(
            (t for t in _NARROW if self.mask < np.iinfo(t).max), np.uint64
        )


class Layout:
    """Word, shift and mask of every declared field.

    ``elements`` is ``[(element, [(field, bits), ...]), ...]``. Elements
    are placed in order and never straddle a 64-bit word; each is
    addressable as a whole (``layout["hq0"]``) and by field
    (``layout["hq0.tid"]``). An element's all-zero value is its
    canonical "empty" form.
    """

    def __init__(self, elements):
        self._fields: dict[str, Field] = {}
        #: the leaf fields in declaration order — the order of
        #: :meth:`FrontierKernel._values`
        self.leaves: list[Field] = []
        word = used = 0
        for element, parts in elements:
            total = sum(bits for _name, bits in parts)
            if total > 64:
                raise ModelError(
                    f"element {element} needs {total} bits, more than a word"
                )
            if used + total > 64:
                word, used = word + 1, 0
            self._add(element, word, used, total)
            for name, bits in parts:
                self.leaves.append(
                    self._add(f"{element}.{name}", word, used, bits)
                )
                used += bits
        self.n_words = word + 1
        #: bits of all leaf fields together
        self.n_bits = sum(f.mask.bit_length() for f in self.leaves)
        #: compiled write plans by update structure: :meth:`plan`
        self._plans: dict[tuple, _Plan] = {}

    def _add(self, name, word, shift, width) -> Field:
        field = self._fields[name] = Field(
            name, len(self._fields), word, shift, width
        )
        return field

    def __getitem__(self, name: str) -> Field:
        return self._fields[name]

    def __len__(self) -> int:
        return len(self._fields)

    def group(self, element: str) -> SimpleNamespace:
        """The element's fields by short name, the element itself as ``all``."""
        prefix = element + "."
        ns = SimpleNamespace(all=self._fields[element])
        for name, field in self._fields.items():
            if name.startswith(prefix):
                setattr(ns, name[len(prefix):], field)
        return ns

    def plan(self, updates) -> _Plan:
        """The write plan of ``updates`` (see :meth:`_Level.move`),
        compiled on first use and cached by the updates' structure: the
        field, with the value unless it is given per row."""
        key = tuple([
            (f,) if type(value) is np.ndarray else (f, type(value), value)
            for f, value in updates
        ])
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._compile(updates)
        return plan

    def _compile(self, updates) -> _Plan:
        keep, bits = [_M64] * self.n_words, [0] * self.n_words
        taken = [0] * self.n_words
        computed = []
        for i, (f, value) in enumerate(updates):
            # the writes are folded out of order: no two may share a bit
            span = f.mask << f.shift
            if taken[f.word] & span:
                raise ModelError(f"{f.name} overlaps another write")
            taken[f.word] |= span
            if isinstance(value, (Raise, Drop)):
                if value.bits > f.mask:
                    raise ModelError(f"{f.name} has no bits {value.bits:#b}")
                if isinstance(value, Raise):
                    bits[f.word] |= value.bits << f.shift
                else:
                    keep[f.word] &= _M64 ^ (value.bits << f.shift)
                continue
            keep[f.word] &= f.clear
            if isinstance(value, int):
                if not 0 <= value <= f.mask:
                    raise ModelError(f"{f.name} = {value} outside its field")
                bits[f.word] |= value << f.shift
            else:
                # a source no wider than the field is in range as read
                computed.append((i, f, not isinstance(value, From)
                                 or value.field.mask > f.mask))
        return _Plan(
            tuple((w, np.uint64(keep[w]), np.uint64(bits[w]))
                  for w in range(self.n_words) if taken[w]),
            tuple(computed),
        )


class Raise(NamedTuple):
    """Update value: ``field |= bits``."""

    bits: int


class Drop(NamedTuple):
    """Update value: ``field &= ~bits``."""

    bits: int


class From(NamedTuple):
    """Update value: ``field := other field`` of the source row."""

    field: Field


#: update values ``field += 1`` / ``field -= 1`` (checked against the
#: field's width like every computed write)
INC, DEC = object(), object()


class _Plan(NamedTuple):
    """One :meth:`_Level.move` update list, compiled: the successor is
    ``source & keep | bits``, then each computed write or-ed into its
    field (which ``keep`` has cleared)."""

    #: ``(word, keep, bits)`` of every word the update list writes
    words: tuple
    #: ``(update index, field, range-checked)``
    computed: tuple


class _Level:
    """One BFS level being expanded: its rows by word, the field columns
    read so far, and the candidate successors emitted so far."""

    __slots__ = ("kernel", "rows", "cols", "cache", "sels", "ranks",
                 "lids", "plans", "values")

    def __init__(self, kernel, rows):
        self.kernel = kernel
        self.rows = rows
        self.cols = np.ascontiguousarray(rows.T)
        self.cache: list = [None] * len(kernel.layout)
        self.sels: list[np.ndarray] = []
        self.ranks: list[int] = []
        self.lids: list[int] = []
        #: per emission: its write plan, or None for the violation row
        self.plans: list = []
        #: per emission: the values of its plan's computed writes
        self.values: list = []

    def col(self, f: Field) -> np.ndarray:
        """Field ``f`` of every row of the level (extracted once, kept
        in the field's narrow type)."""
        c = self.cache[f.idx]
        if c is None:
            c = self.cols[f.word]
            if f.shift:
                c = c >> f.shift
            c = self.cache[f.idx] = np.bitwise_and(
                c, f.mask, dtype=f.dtype, casting="unsafe"
            )
        return c

    def move(self, sel, rank: int, label: str, *updates) -> None:
        """One rule instance firing on the rows ``sel``: each successor
        is its source row with ``updates`` — ``(field, value)`` pairs —
        written over it.

        A value is an int, one value per selected row, or one of
        :class:`Raise`, :class:`Drop`, :class:`From`, :data:`INC`,
        :data:`DEC`; every computed value is read from the source row.
        The update list compiles once into a write plan
        (:meth:`Layout.plan`): the constants folded into one and/or
        mask per word, which ``finish`` applies to the whole emission.
        Two writes that share a bit are refused, so the order of the
        updates does not matter.
        """
        if not sel.size:
            return
        plan = self.kernel.layout.plan(updates)
        values = []
        for i, f, checked in plan.computed:
            value = updates[i][1]
            if value is INC:
                value = self.col(f)[sel] + 1
            elif value is DEC:
                value = self.col(f)[sel] - 1  # wraps below zero
            elif isinstance(value, From):
                value = self.col(value.field)[sel]
            elif value.dtype.kind == "i":
                value = value.astype(np.uint64)  # a negative one wraps
            if checked and int(value.max()) > f.mask:
                raise ModelError(
                    f"{f.name} written with a value outside its field"
                )
            values.append(value)
        self._emit(sel, rank, label, plan, values)

    def violation(self, sel, rank: int, label: str) -> None:
        """The rows ``sel`` step to the assertion-violation sink."""
        if sel.size:
            self._emit(sel, rank, label, None, None)

    def _emit(self, sel, rank, label, plan, values) -> None:
        self.sels.append(sel)
        self.ranks.append(rank)
        self.lids.append(self.kernel.label_ids[label])
        self.plans.append(plan)
        self.values.append(values)

    def finish(self):
        """``(succ_rows, src_pos, label_ids)`` in ``successors`` order."""
        kernel = self.kernel
        if not self.sels:
            return (
                np.zeros((0, kernel.n_words), dtype=np.uint64),
                np.zeros(0, dtype=np.intp),
                np.zeros(0, dtype=np.int32),
            )
        counts = [len(sel) for sel in self.sels]
        src_pos = np.concatenate(self.sels)
        rank = np.repeat(np.array(self.ranks, dtype=np.int64), counts)
        lids = np.repeat(np.array(self.lids, dtype=np.int32), counts)
        # take, not fancy indexing: on (m, words) rows it is 4-8x faster
        succ = self.rows.take(src_pos, axis=0)
        lo = 0
        for count, plan, values in zip(counts, self.plans, self.values):
            block = succ[lo:lo + count]
            lo += count
            if plan is None:
                block[:] = kernel.violation_row
                continue
            for w, keep, bits in plan.words:
                word = block[:, w]
                word &= keep
                word |= bits
            for (_i, f, _checked), value in zip(plan.computed, values):
                word = block[:, f.word]
                word |= np.left_shift(value, f.shift, dtype=np.uint64)
        # (source row, rank) is unique per candidate: a rule instance
        # emits at most one successor per source
        order = np.argsort(src_pos * kernel.n_ranks + rank, kind="stable")
        return succ.take(order, axis=0), src_pos[order], lids[order]


def _nz(mask) -> np.ndarray:
    return mask.nonzero()[0]


def _strings(nested):
    """The strings of arbitrarily nested lists, depth first."""
    if isinstance(nested, str):
        yield nested
    else:
        for item in nested:
            yield from _strings(item)


class FrontierKernel:
    """Packed-row form of one :class:`~repro.jackal.model.JackalModel`.

    ``pack``/``unpack`` convert between model states and rows;
    ``expand`` is the successor relation over a whole level.
    """

    def __init__(self, model):
        self.model = model
        cfg = model.config
        self.T, self.P, self.R = model.n_threads, model.n_proc, model.n_regions
        self.W = cfg.writes_per_round
        self.layout = Layout(self._declare(cfg))
        self.n_words = self.layout.n_words
        #: the label table :meth:`expand`'s label ids index
        self.labels = list(dict.fromkeys(_strings(
            [table for name, table in vars(model).items()
             if name.startswith("lbl_")]
        )))
        self.labels += PROBE_LABELS
        self.label_ids = {label: i for i, label in enumerate(self.labels)}

        g = self.layout.group
        T, P, R = self.T, self.P, self.R
        self.f_violation = self.layout["violation.flag"]
        self.th = [g(f"thread{t}") for t in range(T)]
        self.cp = [[g(f"copy{p}_{r}") for r in range(R)] for p in range(P)]
        self.hq = [g(f"hq{p}") for p in range(P)]
        self.hqa = [g(f"hqa{p}") for p in range(P)]
        self.rq = [g(f"rq{p}") for p in range(P)]
        self.rqa = [g(f"rqa{p}") for p in range(P)]
        self.lk = [g(f"locks{p}") for p in range(P)]
        self.mg = [[g(f"mig{p}_{r}") for r in range(R)] for p in range(P)]

        self.violation_row = np.zeros(self.n_words, dtype=np.uint64)
        self.violation_row[self.f_violation.word] = 1 << self.f_violation.shift

        # rule ranks: the order in which ``successors`` lists its moves
        self._rank_grant = T * R
        self._rank_hq = self._rank_grant + 3 * P * T
        self._rank_rq = self._rank_hq + P * (R + 1)
        self._rank_probe = self._rank_rq + P
        self.n_ranks = self._rank_probe + 5

        # element decoders for unpack and StateCodec.decode: per element
        # kind, the fields' (shift inside the element, mask) and the
        # code -> tuple memo
        self._kinds = {}
        for kind, group in (
            ("thread", self.th[0]), ("copy", self.cp[0][0]),
            ("hmsg", self.hq[0]), ("rmsg", self.rq[0]),
            ("locks", self.lk[0]), ("mig", self.mg[0][0]),
        ):
            base = group.all
            prefix = base.name + "."
            parts = [
                (f.shift - base.shift, f.mask)
                for f in self.layout.leaves
                if f.name.startswith(prefix)
            ]
            self._kinds[kind] = (parts, {})

    # -- the layout ------------------------------------------------------

    def _declare(self, cfg):
        """Every field of a state and its width, element by element."""
        T, P, R = self.T, self.P, self.R
        rounds0 = 0 if cfg.rounds is None else cfg.rounds + 1
        w_tid, w_pid, w_reg = _width(T - 1), _width(P - 1), _width(R - 1)
        thread = [
            ("phase", 4), ("reg", w_reg), ("aho", 1),
            ("wdone", _width(self.W)),
            ("rounds", _width(rounds0)),  # stored + 1; 0 = cyclic
            ("dirty", R),
        ]
        copy = [("home", w_pid), ("rstate", 1), ("wl", P), ("lt", _width(T))]
        hmsg = [("full", 1), ("flush", 1), ("tid", w_tid), ("src", w_pid),
                ("r", w_reg)]
        rmsg = [("full", 1), ("tid", w_tid), ("sender", w_pid), ("mig", 1),
                ("wl", P), ("rstate", 1), ("r", w_reg)]
        locks = [
            (name, bits)
            for kind in ("srv", "flt", "fls")
            for name, bits in ((f"{kind}_h", _width(T)), (f"{kind}_w", T))
        ]
        mig = [("full", 1), ("wl", P), ("rstate", 1)]
        elements = [("violation", [("flag", 1)])]
        elements += [(f"thread{t}", thread) for t in range(T)]
        elements += [
            (f"copy{p}_{r}", copy) for p in range(P) for r in range(R)
        ]
        for queue, parts in (("hq", hmsg), ("rq", rmsg), ("hqa", hmsg),
                             ("rqa", rmsg)):
            elements += [(f"{queue}{p}", parts) for p in range(P)]
        elements += [(f"locks{p}", locks) for p in range(P)]
        elements += [
            (f"mig{p}_{r}", mig) for p in range(P) for r in range(R)
        ]
        return elements

    def key_units(self) -> list:
        """The units of a state in canonical key order:
        ``[((family, *indices, lock kind), [(name, field), ...]), ...]``.

        A unit is what a renaming moves whole: a thread, a region copy,
        a queue slot, one lock's (holder, waiters) pair or a migration
        slot. Families follow :data:`_KEY_ORDER`; units of a family and
        fields of a unit keep their declaration order. The canonical key
        (``StateCodec``, and the orbit representatives of
        :mod:`repro.lts.certreduce`) is these fields concatenated, the
        first most significant.
        """
        units: dict = {}
        for f in self.layout.leaves:
            if f is not self.f_violation:
                element, name = f.name.split(".")
                kind, _, name = name.rpartition("_")
                family = element.rstrip("0123456789_")
                index = map(int, element[len(family):].split("_"))
                units.setdefault((family, *index, kind), []).append((name, f))
        return sorted(units.items(),
                      key=lambda unit: _KEY_ORDER.index(unit[0][0]))

    def _values(self, state):
        """The field values of ``state`` in declaration order."""
        if len(state) != 8:
            if state != VIOLATION:
                raise ModelError(f"not a protocol state: {state!r}")
            yield 1
            yield from (0,) * (len(self.layout.leaves) - 1)
            return
        threads, copies, hq, rq, hqa, rqa, locks, migs = state
        yield 0
        for ph, reg, aho, wdone, rounds, dirty in threads:
            yield from (ph, reg, aho, wdone, rounds + 1, dirty)
        for row in copies:
            for copy in row:
                yield from copy
        for queue, home in ((hq, True), (rq, False), (hqa, True),
                            (rqa, False)):
            for msg in queue:
                if msg == 0:
                    yield from (0,) * (5 if home else 7)
                elif home:
                    kind, tid, src, r = msg
                    if kind not in (_REQ, _FLUSH):
                        raise ModelError(
                            f"message kind {kind} cannot sit in a home queue"
                        )
                    yield from (1, int(kind == _FLUSH), tid, src, r)
                else:
                    if msg[0] != _RET:
                        raise ModelError(
                            f"message kind {msg[0]} cannot sit in a "
                            "remote queue"
                        )
                    yield 1
                    yield from msg[1:]
        for lp in locks:
            yield from lp
        for row in migs:
            for m in row:
                yield from ((0, 0, 0) if m == 0 else (1, m[0], m[1]))

    def pack(self, states) -> np.ndarray:
        """One row per state; ``ModelError`` on a value outside its field."""
        leaves = self.layout.leaves
        rows = np.zeros((len(states), self.n_words), dtype=np.uint64)
        for i, state in enumerate(states):
            words = [0] * self.n_words
            for f, value in zip(leaves, self._values(state)):
                if not 0 <= value <= f.mask:
                    raise ModelError(
                        f"{f.name} = {value} outside its field"
                    )
                words[f.word] |= value << f.shift
            rows[i] = words
        return rows

    def _decode(self, kind: str, code: int):
        parts, _memo = self._kinds[kind]
        v = [(code >> shift) & mask for shift, mask in parts]
        if kind == "thread":
            v[4] -= 1
            return tuple(v)
        if kind in ("copy", "locks"):
            return tuple(v)
        if not v[0]:
            return 0
        if kind == "hmsg":
            return (_FLUSH if v[1] else _REQ, v[2], v[3], v[4])
        if kind == "rmsg":
            return (_RET, *v[1:])
        return (v[1], v[2])

    def _elements(self, rows, kind: str, groups) -> list:
        """Per row, the tuple of the decoded elements ``groups`` (shared
        between rows that agree on them)."""
        _parts, memo = self._kinds[kind]
        codes = []
        for group in groups:
            f = group.all
            codes.append(((rows[:, f.word] >> f.shift) & f.mask).tolist())
        for column in codes:
            for code in set(column) - memo.keys():
                memo[code] = self._decode(kind, code)
        keys = list(zip(*codes))
        table = {
            key: tuple(map(memo.__getitem__, key)) for key in set(keys)
        }
        return list(map(table.__getitem__, keys))

    def unpack(self, rows) -> list:
        """The model states of ``rows``."""
        out: list = []
        for lo in range(0, len(rows), _UNPACK_CHUNK):
            out.extend(self._unpack_chunk(rows[lo:lo + _UNPACK_CHUNK]))
        return out

    def _unpack_chunk(self, rows) -> list:
        P, R = self.P, self.R

        def by_processor(kind, grid):
            flat = self._elements(
                rows, kind, [group for row in grid for group in row]
            )
            regroup = {
                key: tuple(key[p * R:(p + 1) * R] for p in range(P))
                for key in set(flat)
            }
            return map(regroup.__getitem__, flat)

        states = list(zip(
            self._elements(rows, "thread", self.th),
            by_processor("copy", self.cp),
            self._elements(rows, "hmsg", self.hq),
            self._elements(rows, "rmsg", self.rq),
            self._elements(rows, "hmsg", self.hqa),
            self._elements(rows, "rmsg", self.rqa),
            self._elements(rows, "locks", self.lk),
            by_processor("mig", self.mg),
        ))
        f = self.f_violation
        for i in _nz((rows[:, f.word] >> f.shift) & 1).tolist():
            states[i] = VIOLATION
        return states

    # -- the successor relation -----------------------------------------

    def expand(self, rows):
        """All successors of a level.

        Returns ``(succ_rows, src_pos, label_ids)``: candidate ``i`` is
        ``rows[src_pos[i]] --labels[label_ids[i]]--> succ_rows[i]``,
        sorted by ``src_pos`` and, per source, in the order
        ``successors`` lists them.
        """
        f = self.f_violation
        alive = None
        if len(rows):
            sunk = (rows[:, f.word] >> f.shift) & 1
            if sunk.any():
                # the sink has no moves, and its all-zero payload would
                # read as idle cyclic threads
                alive = _nz(sunk == 0)
                rows = rows.take(alive, axis=0)
        lv = _Level(self, rows)
        if len(rows):
            for tid in range(self.T):
                self._thread_rules(lv, tid)
            for pid in range(self.P):
                self._grant_rules(lv, pid)
            for pid in range(self.P):
                self._homequeue_rules(lv, pid)
            for pid in range(self.P):
                self._remotequeue_rules(lv, pid)
            if self.model.config.with_probes:
                self._probe_rules(lv)
        succ, src_pos, lids = lv.finish()
        if alive is not None:
            src_pos = alive[src_pos]
        return succ, src_pos, lids

    def _held(self, lv, sel, holder: Field, slot: int, pid: int) -> None:
        """The scalar relation's check on releasing a protocol lock."""
        if not lv.col(holder)[sel].all():
            raise ModelError(f"releasing free lock slot {slot} on p{pid}")

    def _exclusive(self, lv, cp, sel, pid: int) -> np.ndarray:
        """No processor but ``pid`` is on the copy's writer list."""
        wl = lv.col(cp.wl)[sel]
        return (wl == 0) | (wl == 1 << pid)

    def _alf_flushable(self, lv, sel, pid: int, dirty) -> np.ndarray:
        """Every dirty region is exclusive at home on ``pid``."""
        ok = np.ones(len(sel), dtype=bool)
        for r, cp in enumerate(self.cp[pid]):
            ok &= ((dirty >> r) & 1 == 0) | (
                (lv.col(cp.home)[sel] == pid)
                & self._exclusive(lv, cp, sel, pid)
            )
        return ok

    @staticmethod
    def _hmsg(slot, flush: int, tid: int, src: int, r: int):
        """Updates putting ``(REQ | FLUSH, tid, src, r)`` into ``slot``."""
        return ((slot.full, 1), (slot.flush, flush), (slot.tid, tid),
                (slot.src, src), (slot.r, r))

    # -- threads ---------------------------------------------------------

    def _thread_rules(self, lv, tid: int) -> None:  # noqa: C901
        m = self.model
        th, pid = self.th[tid], m.pid_of[tid]
        lk, cps = self.lk[pid], self.cp[pid]
        variant = m.variant
        alf = variant.adaptive_lazy_flushing
        tbit, pbit = 1 << tid, 1 << pid
        col, move = lv.col, lv.move
        rank = tid * self.R
        write, writeover = m.lbl_write[tid], m.lbl_writeover[tid]
        flush, restart = m.lbl_flush[tid], m.lbl_restart[tid]
        ph = col(th.phase)

        def wrote(r):  # thread := (IDLE, ., 0, wdone + 1, ., dirty | 1 << r)
            return ((th.phase, _IDLE), (th.aho, 0), (th.wdone, INC),
                    (th.dirty, Raise(1 << r)))

        def at_home(cp):  # copy := (pid, USED, wl | 1 << pid, lt + 1)
            return (cp.rstate, _USED), (cp.wl, Raise(pbit)), (cp.lt, INC)

        # IDLE with rounds left: start a write to any region, or reach
        # the synchronisation point
        sel = _nz((ph == _IDLE) & (col(th.rounds) != 1))
        writing = col(th.wdone)[sel] < self.W
        wsel, fsel = sel[writing], sel[~writing]
        if wsel.size:
            dirty = col(th.dirty)[wsel]
            for r, cp in enumerate(cps):
                cached = (dirty >> r) & 1 != 0
                here = col(cp.home)[wsel] == pid
                slow = ~cached & here
                start = (th.reg, r), (th.aho, 0)
                move(wsel[cached], rank + r, write,
                     (th.phase, _LOCAL), (th.reg, r))
                if alf:
                    fast = slow & self._exclusive(lv, cp, wsel, pid)
                    slow &= ~fast
                    move(wsel[fast], rank + r, write,
                         (th.phase, _ALF_WRITE), *start)
                move(wsel[slow], rank + r, write,
                     (th.phase, _WANT_SERVER), *start,
                     (lk.srv_w, Raise(tbit)))
                move(wsel[~cached & ~here], rank + r, write,
                     (th.phase, _WANT_FAULT), *start,
                     (lk.flt_w, Raise(tbit)))
        if fsel.size:
            dirty = col(th.dirty)[fsel]
            if not dirty.all():
                wdone = int(col(th.wdone)[fsel[dirty == 0]][0])
                raise ModelError(f"thread {tid}: wdone={wdone} but clean")
            if alf:
                fast = self._alf_flushable(lv, fsel, pid, dirty)
                move(fsel[fast], rank, flush,
                     (th.phase, _ALF_FLUSH), (th.aho, 0))
                fsel = fsel[~fast]
            move(fsel, rank, flush, (th.phase, _WANT_FLUSH), (th.aho, 0),
                 (lk.fls_w, Raise(tbit)))

        # HAVE_FLUSH: flush the lowest dirty region, or finish the round
        sel = _nz(ph == _HAVE_FLUSH)
        if sel.size:
            dirty = col(th.dirty)[sel]
            s = sel[dirty == 0]
            self._held(lv, s, lk.fls_h, 4, pid)
            move(s, rank, m.lbl_flushover[tid],
                 *self._round_over(lv, th, s), (lk.fls_h, 0))
            for r in range(self.R):
                self._flush_region(
                    lv, sel[dirty & ((2 << r) - 1) == 1 << r], tid, r
                )

        # REMOTE_READY: complete the remote write
        sel = _nz(ph == _REMOTE_READY)
        if sel.size:
            self._held(lv, sel, lk.flt_h, 2, pid)
            reg = col(th.reg)[sel]
            for r, cp in enumerate(cps):
                move(sel[reg == r], rank, writeover,
                     (cp.lt, INC), *wrote(r), (lk.flt_h, 0))

        # HAVE_FAULT: request the data — unless the home came here
        sel = _nz(ph == _HAVE_FAULT)
        if sel.size:
            reg = col(th.reg)[sel]
            for r, cp in enumerate(cps):
                rs = sel[reg == r]
                home = col(cp.home)[rs]
                s = rs[home == pid]
                if variant.fault_lock_recheck:
                    self._held(lv, s, lk.flt_h, 2, pid)
                    move(s, rank, m.lbl_f2s[tid],
                         (th.phase, _WANT_SERVER), (th.aho, 0),
                         (lk.flt_h, 0), (lk.srv_w, Raise(tbit)))
                else:
                    move(s, rank, m.lbl_stale[tid],
                         (th.phase, _WAIT_DATA), (th.aho, 0))
                for h, hq in enumerate(self.hq):
                    if h != pid:
                        s = rs[home == h]
                        move(s[col(hq.full)[s] == 0], rank,
                             m.lbl_sreq[tid][pid][h],
                             *self._hmsg(hq, 0, tid, pid, r),
                             (th.phase, _WAIT_DATA), (th.aho, 0))

        # HAVE_SERVER: write at home, or retry remotely
        sel = _nz(ph == _HAVE_SERVER)
        if sel.size:
            self._held(lv, sel, lk.srv_h, 0, pid)
            reg = col(th.reg)[sel]
            for r, cp in enumerate(cps):
                rs = sel[reg == r]
                here = col(cp.home)[rs] == pid
                move(rs[here], rank, writeover,
                     *at_home(cp), *wrote(r), (lk.srv_h, 0))
                move(rs[~here], rank, restart,
                     (th.phase, _WANT_FAULT), (th.aho, 0), (lk.srv_h, 0),
                     (lk.flt_w, Raise(tbit)))

        # LOCAL: complete the cached write
        move(_nz(ph == _LOCAL), rank, writeover,
             (th.phase, _IDLE), (th.wdone, INC))

        if not alf:
            return

        # ALF_WRITE: complete lock-free if still exclusive, else retry
        sel = _nz(ph == _ALF_WRITE)
        if sel.size:
            reg = col(th.reg)[sel]
            for r, cp in enumerate(cps):
                rs = sel[reg == r]
                still = (col(cp.home)[rs] == pid) & self._exclusive(
                    lv, cp, rs, pid
                )
                move(rs[still], rank, writeover, *at_home(cp), *wrote(r))
                move(rs[~still], rank, restart,
                     (th.phase, _IDLE), (th.aho, 0))

        # ALF_FLUSH: flush every dirty region at once, or fall back
        sel = _nz(ph == _ALF_FLUSH)
        if sel.size:
            dirty = col(th.dirty)[sel]
            fast = self._alf_flushable(lv, sel, pid, dirty)
            move(sel[~fast], rank, restart, (th.phase, _WANT_FLUSH),
                 (th.aho, 0), (lk.fls_w, Raise(tbit)))
            s, dirty = sel[fast], dirty[fast]
            if m.check_assertions:
                bad = np.zeros(len(s), dtype=bool)
                for r, cp in enumerate(cps):
                    bad |= ((dirty >> r) & 1 != 0) & (col(cp.lt)[s] == 0)
                lv.violation(s[bad], rank, m.lbl_viol_lt)
                s, dirty = s[~bad], dirty[~bad]
            updates: list = []
            for r, cp in enumerate(cps):
                flushed = (dirty >> r) & 1 != 0
                lt, wl = col(cp.lt)[s], col(cp.wl)[s]
                nlt = np.where(flushed, lt - 1, lt)
                nwl = np.where(flushed & (nlt == 0), wl & ~np.uint64(pbit), wl)
                used = np.where(flushed, (nwl != 0) | (nlt != 0),
                                col(cp.rstate)[s])
                updates += (cp.lt, nlt), (cp.wl, nwl), (cp.rstate, used)
            move(s, rank, m.lbl_flushover[tid], *updates,
                 *self._round_over(lv, th, s))

    def _round_over(self, lv, th, sel):
        """``thread := (IDLE, ., 0, 0, rounds - 1 if bounded, 0)``."""
        left = lv.col(th.rounds)[sel]  # stored + 1: 0 cyclic, 1 none left
        return ((th.phase, _IDLE), (th.aho, 0), (th.wdone, 0),
                (th.dirty, 0), (th.rounds, left - (left > 1)))

    def _flush_region(self, lv, sel, tid: int, r: int) -> None:
        """HAVE_FLUSH with ``r`` the lowest dirty region."""
        if not sel.size:
            return
        m = self.model
        th, pid = self.th[tid], m.pid_of[tid]
        cp = self.cp[pid][r]
        col, move = lv.col, lv.move
        rank = tid * self.R
        stay = (th.aho, 0), (th.dirty, Drop(1 << r))
        home = col(cp.home)[sel]

        def asserted(s):
            """``s`` less the rows whose localthreads is already zero,
            which step to the sink (unchecked, the decrement then fails
            the field check)."""
            if m.check_assertions:
                bad = col(cp.lt)[s] == 0
                lv.violation(s[bad], rank, m.lbl_viol_lt)
                s = s[~bad]
            return s

        # remote home: send a Flush once its home queue has room
        for h, hq in enumerate(self.hq):
            if h != pid:
                s = sel[home == h]
                move(asserted(s[col(hq.full)[s] == 0]), rank,
                     m.lbl_sflush[tid][pid][h], (cp.lt, DEC),
                     *self._hmsg(hq, 1, tid, pid, r), *stay)

        # at home: flush locally; a sole remaining remote writer gets
        # the home
        s = asserted(sel[home == pid])
        if not s.size:
            return
        nlt = col(cp.lt)[s] - 1
        wl = col(cp.wl)[s]
        nwl = np.where(nlt == 0, wl & ~np.uint64(1 << pid), wl)
        rest = np.ones(len(s), dtype=bool)
        if m.variant.home_migration:
            for dst in range(self.P):
                if dst != pid:
                    to = nwl == 1 << dst
                    rest &= ~to
                    mg = self.mg[dst][r]
                    to &= col(mg.full)[s] == 0
                    move(s[to], rank, m.lbl_fhome_mig[tid][pid][dst],
                         (cp.home, dst), (cp.rstate, _USED), (cp.wl, 0),
                         (cp.lt, nlt[to]), (mg.full, 1),
                         (mg.wl, 1 << dst), (mg.rstate, _USED), *stay)
        nlt, nwl = nlt[rest], nwl[rest]
        move(s[rest], rank, m.lbl_fhome[tid][pid],
             (cp.rstate, (nwl != 0) | (nlt != 0)), (cp.wl, nwl),
             (cp.lt, nlt), *stay)

    # -- protocol lock manager -------------------------------------------

    def _grant_rules(self, lv, pid: int) -> None:
        m = self.model
        lk = self.lk[pid]
        col = lv.col
        free = col(lk.fls_h) == 0
        srv_free = col(lk.srv_h) == 0
        flt_free = col(lk.flt_h) == 0
        # the flush lock also waits for the processor's queues to drain
        quiet = srv_free & flt_free
        for slot in (self.hq[pid], self.rq[pid], self.hqa[pid],
                     self.rqa[pid], *self.mg[pid]):
            quiet = quiet & (col(slot.full) == 0)
        for kind, (holder, waiters, guard, phase, table) in enumerate((
            (lk.srv_h, lk.srv_w, srv_free, _HAVE_SERVER, m.lbl_lock_srv),
            (lk.flt_h, lk.flt_w, flt_free, _HAVE_FAULT, m.lbl_lock_flt),
            (lk.fls_h, lk.fls_w, quiet, _HAVE_FLUSH, m.lbl_lock_fls),
        )):
            waiting = col(waiters)
            sel = _nz((waiting != 0) & free & guard)
            if sel.size:
                waiting = waiting[sel]
                rank = self._rank_grant + (pid * 3 + kind) * self.T
                for tid, th in enumerate(self.th):
                    lv.move(sel[(waiting >> tid) & 1 != 0], rank + tid,
                            table[tid][pid], (th.phase, phase),
                            (holder, tid + 1), (waiters, Drop(1 << tid)))

    # -- home queue handler ----------------------------------------------

    def _homequeue_rules(self, lv, pid: int) -> None:
        m = self.model
        R = self.R
        col, move = lv.col, lv.move
        hq, hqa = self.hq[pid], self.hqa[pid]
        rank = self._rank_hq + pid * (R + 1)

        # a Region Sponmigrate is absorbed from its slot at any time
        arriving = np.zeros(len(lv.rows), dtype=bool)
        for r, (mg, cp) in enumerate(zip(self.mg[pid], self.cp[pid])):
            full = col(mg.full) != 0
            arriving |= full
            s = _nz(full)
            told: list = []
            if m.variant.sponmigrate_informs_threads and s.size:
                for tid in m.threads_on[pid]:
                    th = self.th[tid]
                    waits = (col(th.phase)[s] == _WAIT_DATA) & (
                        col(th.reg)[s] == r
                    )
                    told.append((th.aho, col(th.aho)[s] | waits))
            move(s, rank + r, m.lbl_mig[pid], (cp.home, pid),
                 (cp.rstate, From(mg.rstate)), (cp.wl, From(mg.wl)),
                 *told, (mg.all, 0))

        rank += R
        held = col(hqa.full) != 0
        # idle handler: take the message out of the queue — unless a
        # migration towards this processor is still on its way
        sel = _nz(~held & (col(hq.full) != 0) & ~arriving)
        for slot in (self.rq[pid], self.rqa[pid]):
            sel = sel[(col(slot.full)[sel] == 0) | (col(slot.mig)[sel] == 0)]
        move(sel, rank, m.lbl_hql[pid], (hqa.all, From(hq.all)), (hq.all, 0))

        sel = _nz(held)
        if not sel.size:
            return
        flush = col(hqa.flush)[sel] != 0
        reg, src_of = col(hqa.r)[sel], col(hqa.src)[sel]
        for r, cp in enumerate(self.cp[pid]):
            home = col(cp.home)[sel]
            # stale destination: forward to where the home is believed
            # to be, once that queue has room
            for h, hqh in enumerate(self.hq):
                if h != pid:
                    to = (reg == r) & (home == h) & (col(hqh.full)[sel] == 0)
                    for kind, table in ((~flush, m.lbl_fwd_req),
                                        (flush, m.lbl_fwd_flush)):
                        move(sel[to & kind], rank, table[pid][h],
                             (hqh.all, From(hqa.all)), (hqa.all, 0))
            here = (reg == r) & (home == pid)
            if here.any():
                for src in range(self.P):
                    from_src = here & (src_of == src)
                    self._serve_request(
                        lv, sel[from_src & ~flush], pid, src, r, rank
                    )
                    self._serve_flush(
                        lv, sel[from_src & flush], pid, src, r, rank
                    )

    def _serve_request(self, lv, s, pid, src, r, rank) -> None:
        """The home ``pid`` answers a Data Request from ``src``, once
        the requester's remote queue has room."""
        m = self.model
        col = lv.col
        cp, hqa, rq = self.cp[pid][r], self.hqa[pid], self.rq[src]
        s = s[col(rq.full)[s] == 0]
        sbit = 1 << src

        def reply(mig, wl, rstate):
            return ((rq.full, 1), (rq.tid, From(hqa.tid)), (rq.sender, pid),
                    (rq.mig, mig), (rq.wl, wl), (rq.rstate, rstate),
                    (rq.r, r), (hqa.all, 0))

        if m.variant.home_migration and src != pid:
            # the home migrates to the only writing processor
            alone = col(cp.wl)[s] & ~np.uint64(sbit) == 0
            lv.move(s[alone], rank, m.lbl_sretm[pid][src], (cp.home, src),
                    (cp.rstate, _USED), (cp.wl, 0), *reply(1, sbit, _USED))
            s = s[~alone]
        lv.move(s, rank, m.lbl_sret[pid][src], (cp.rstate, _USED),
                (cp.wl, Raise(sbit)), *reply(0, 0, 0))

    def _serve_flush(self, lv, s, pid, src, r, rank) -> None:
        """The home ``pid`` processes a Flush from ``src``; a sole
        remaining remote writer gets the home."""
        if not s.size:
            return
        m = self.model
        col = lv.col
        cp, hqa = self.cp[pid][r], self.hqa[pid]
        nwl = col(cp.wl)[s] & ~np.uint64(1 << src)
        rest = np.ones(len(s), dtype=bool)
        if m.variant.home_migration:
            for dst in range(self.P):
                if dst != pid:
                    to = nwl == 1 << dst
                    rest &= ~to
                    mg = self.mg[dst][r]
                    lv.move(s[to & (col(mg.full)[s] == 0)], rank,
                            m.lbl_frecv_mig[pid][dst], (cp.home, dst),
                            (cp.rstate, _USED), (cp.wl, 0), (mg.full, 1),
                            (mg.wl, 1 << dst), (mg.rstate, _USED),
                            (hqa.all, 0))
        s, nwl = s[rest], nwl[rest]
        lv.move(s, rank, m.lbl_frecv[pid],
                (cp.rstate, (nwl != 0) | (col(cp.lt)[s] != 0)),
                (cp.wl, nwl), (hqa.all, 0))

    # -- remote queue handler --------------------------------------------

    def _remotequeue_rules(self, lv, pid: int) -> None:
        m = self.model
        col, move = lv.col, lv.move
        rq, rqa = self.rq[pid], self.rqa[pid]
        rank = self._rank_rq + pid
        held = col(rqa.full) != 0
        move(_nz(~held & (col(rq.full) != 0)), rank, m.lbl_rql[pid],
             (rqa.all, From(rq.all)), (rq.all, 0))

        sel = _nz(held)
        if not sel.size:
            return
        for_tid, for_r = col(rqa.tid)[sel], col(rqa.r)[sel]
        for tid, th in enumerate(self.th):
            ts = sel[for_tid == tid]
            if m.check_assertions:
                if m.pid_of[tid] != pid:
                    lv.violation(ts, rank, m.lbl_viol_ret)
                    continue
                expected = (col(th.phase)[ts] == _WAIT_DATA) & (
                    col(th.reg)[ts] == for_r[for_tid == tid]
                )
                lv.violation(ts[~expected], rank, m.lbl_viol_ret)
                ts = ts[expected]
            if not ts.size:
                continue
            wake = (th.phase, _REMOTE_READY), (rqa.all, 0)
            mig = col(rqa.mig)[ts] != 0
            # a thread told of a sponmigrate keeps the home it has
            keep = ~mig & (col(th.aho)[ts] != 0)
            move(ts[keep], rank, m.lbl_signal[tid][pid], *wake)
            for r, cp in enumerate(self.cp[pid]):
                in_r = col(rqa.r)[ts] == r
                move(ts[in_r & mig], rank, m.lbl_signal[tid][pid],
                     (cp.home, pid), (cp.rstate, From(rqa.rstate)),
                     (cp.wl, From(rqa.wl)), *wake)
                move(ts[in_r & ~mig & ~keep], rank, m.lbl_signal[tid][pid],
                     (cp.home, From(rqa.sender)), (cp.rstate, _USED),
                     (cp.wl, 0), *wake)

    # -- probes ----------------------------------------------------------

    def _probe_rules(self, lv) -> None:
        col = lv.col
        P, n = self.P, len(lv.rows)
        any_home = np.zeros(n, dtype=bool)
        any_copy = np.zeros(n, dtype=bool)
        for r in range(self.R):
            homes = np.zeros(n, dtype=np.int64)
            for p in range(P):
                homes += col(self.cp[p][r].home) == p
            any_home |= homes >= 2
            any_copy |= P - homes >= 2
        lock_empty = np.ones(n, dtype=bool)
        hq_empty = np.ones(n, dtype=bool)
        rq_empty = np.ones(n, dtype=bool)
        for p in range(P):
            lk = self.lk[p]
            for f in (lk.srv_h, lk.flt_h, lk.fls_h, self.hqa[p].full,
                      self.rqa[p].full):
                lock_empty &= col(f) == 0
            for slot in (self.hq[p], *self.mg[p]):
                hq_empty &= col(slot.full) == 0
            rq_empty &= col(self.rq[p].full) == 0
        for i, (mask, label) in enumerate((
            (any_home, C_HOME), (any_copy, C_COPY),
            (lock_empty, LOCK_EMPTY), (hq_empty, HOMEQUEUE_EMPTY),
            (rq_empty, REMOTEQUEUE_EMPTY),
        )):
            lv.move(_nz(mask), self._rank_probe + i, label)
