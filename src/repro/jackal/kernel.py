"""Frontier kernel: the Jackal successor relation over packed rows.

:meth:`~repro.jackal.model.JackalModel.successors` expands one tuple
tree at a time; the exploration engine pays for that per transition.
This module is the same relation evaluated for a whole breadth-first
level at once, in the shape the paper's specification has: a set of
guarded summands, each a condition on the state and an update.

* a state is one row of ``uint64`` words; :class:`Layout` assigns every
  field of the state (``name -> bit width[, sort]``, declared once in
  :meth:`FrontierKernel._declare`) a word, shift and mask, and no
  element (a thread, a region copy, a queue slot, a lock tuple) — hence
  no field — straddles a word. Configuration 3 is 223 bits = 4 words,
  so the visited index keys on 32 bytes;
* the protocol is a table of :class:`Rule` instances, built once per
  model by :meth:`FrontierKernel._summands`. An instance has the rank of
  its move in the order ``successors`` lists them, a label, a guard — a
  conjunction of ``(field, op, value | field)`` terms — and an update
  list. Indices that depend on the data (``home``, the region or thread
  named inside a held message) and the scalar relation's conditional
  updates become case splits, one instance per case, so every guard is
  a conjunction and every label static. The assertion sinks and the
  scalar relation's ``ModelError`` cases (:class:`Fail`) are rules too;
* :class:`RuleTable` compiles the instances into arrays and is the one
  interpreter. Every instance is one bit, numbered in rank order; for
  each value of each span of a row a guard reads (an element of at most
  10 bits, with its neighbours while that holds), the table keeps the
  bits of the instances the value allows. Per batch of rows it decodes
  the spans each 64 instances read, ands their sets, reads the set bits off
  in ``(row, rank)`` order and applies every enabled write plan at
  once: a level costs a few dozen array calls, with no Python loop over
  rule instances, and numbering the result in order gives the scalar
  explorers' state ids, not merely an isomorphic LTS;
* an update list compiles once into a write plan (:meth:`Layout.plan`):
  one keep and one add mask per word with every constant folded in and
  range-checked, :data:`INC` and :data:`DEC` as steps added in place,
  and the fields copied per row (:class:`From`). A write that would
  leave its field is a :class:`Fail` rule beside the instance, so it
  raises ``ModelError`` instead of spilling into the neighbouring
  field;
* the assertion-violation sink is the row with only the ``violation``
  flag set; an empty queue or migration slot is all-zero, so equal
  states have equal bytes.

``successors`` stays the readable specification;
``tests/jackal/test_kernel.py`` holds this module to it state by state
and ``tests/conformance/`` sweep by sweep.
"""

from __future__ import annotations

import itertools
import operator
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from repro.errors import ModelError
from repro.jackal.actions import C_COPY, C_HOME, PROBE_LABELS
from repro.jackal.model import VIOLATION, Msg, Phase, RegionState

_M64 = (1 << 64) - 1
#: rows decoded per batch by :meth:`FrontierKernel.unpack` — bounds the
#: per-field Python lists alive at once
_UNPACK_CHUNK = 1 << 16
#: rows fired per batch by :meth:`FrontierKernel.expand` — bounds the
#: ``(instance, row)`` pair arrays alive at once
_CHUNK = 1 << 12
#: widest unit a guard reads: the table keeps a set of instances per
#: unit value
_UNIT_BITS = 10

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
_USED, _UNUSED = int(RegionState.USED), int(RegionState.UNUSED)
_REQ, _RET, _FLUSH = int(Msg.REQ), int(Msg.RET), int(Msg.FLUSH)
#: the canonical key's order of element families (the layout's is hq,
#: rq, hqa, rqa): :meth:`FrontierKernel.key_units`
_KEY_ORDER = ("thread", "copy", "hq", "hqa", "rq", "rqa", "locks", "mig")


def _width(max_value: int) -> int:
    """Bits needed for values ``0..max_value`` (at least one)."""
    return max(1, max_value.bit_length())


class Field:
    """One bit-field of a packed row: ``(row[word] >> shift) & mask``."""

    __slots__ = ("name", "word", "shift", "mask", "clear")

    def __init__(self, name: str, word: int, shift: int, width: int):
        self.name = name
        self.word = word
        self.shift = shift
        self.mask = (1 << width) - 1
        # numpy 2 refuses a negative Python int against uint64, so the
        # complement is taken inside 64 bits
        self.clear = _M64 ^ (self.mask << shift)


class Layout:
    """Word, shift and mask of every declared field.

    ``elements`` is ``[(element, [(field, bits[, sort]), ...]), ...]``. Elements
    are placed in order and never straddle a 64-bit word; each is
    addressable as a whole (``layout["hq0"]``) and by field
    (``layout["hq0.tid"]``). An element's all-zero value is its
    canonical "empty" form.
    """

    def __init__(self, elements):
        self._fields: dict[str, Field] = {}
        #: every leaf's value sort: what renaming processors and threads
        #: does to its values (``pid``, ``tid``, ``holder`` — a thread
        #: + 1, 0 free —, or the bit masks ``pmask`` and ``tmask``), or
        #: None where no renaming moves them (a region, a count, a flag)
        self.sort: dict[Field, str | None] = {}
        #: the leaf fields in declaration order — the order of
        #: :meth:`FrontierKernel._values`
        self.leaves: list[Field] = []
        #: the element of every leaf field
        self.element: dict[Field, Field] = {}
        #: the leaves of every element
        self.parts: dict[Field, list[Field]] = {}
        #: every leaf's name without its element's index
        #: (``copy.rstate`` for ``copy0_1.rstate``)
        self.family: dict[Field, str] = {}
        word = used = 0
        for element, parts in elements:
            total = sum(part[1] for part in parts)
            if total > 64:
                raise ModelError(f"element {element} needs {total} bits, more than a word")
            if used + total > 64:
                word, used = word + 1, 0
            whole = self._add(element, word, used, total)
            self.parts[whole] = []
            for name, bits, *sort in parts:
                leaf = self._add(f"{element}.{name}", word, used, bits)
                self.leaves.append(leaf)
                self.element[leaf] = whole
                self.parts[whole].append(leaf)
                self.family[leaf] = f"{element.rstrip('0123456789_')}.{name}"
                self.sort[leaf] = sort[0] if sort else None
                used += bits
        #: the elements whose first field is ``full``: all-zero when
        #: empty, and an empty one no renaming moves
        self.slots = {e for e, leaves in self.parts.items() if leaves[0].name.endswith(".full")}
        self.n_words = word + 1
        #: bits of all leaf fields together
        self.n_bits = sum(f.mask.bit_length() for f in self.leaves)
        #: compiled write plans by update list: :meth:`plan`
        self._plans: dict[tuple, _Plan] = {}

    def _add(self, name, word, shift, width) -> Field:
        field = self._fields[name] = Field(name, word, shift, width)
        return field

    def __getitem__(self, name: str) -> Field:
        return self._fields[name]

    def image(self, g) -> dict[Field, Field]:
        """Where the renaming ``g`` moves each element and leaf:
        ``thread{t}`` to ``thread{g.tid_map[t]}``, any other element's
        first index by ``g.pid_map`` (a region index stays), a leaf to
        its namesake in the image. What has no image is left out."""
        out: dict[Field, Field] = {}
        for whole, leaves in self.parts.items():
            family = whole.name.rstrip("0123456789_")
            first, *rest = whole.name[len(family):].split("_")
            if first:
                first = str((g.tid_map if family == "thread" else g.pid_map)[int(first)])
            name = "_".join([family + first, *rest])
            for f in (whole, *leaves):
                if name + f.name[len(whole.name):] in self._fields:
                    out[f] = self._fields[name + f.name[len(whole.name):]]
        return out

    def group(self, element: str) -> SimpleNamespace:
        """The element's fields by short name, the element itself as ``all``."""
        prefix = element + "."
        ns = SimpleNamespace(all=self._fields[element])
        for name, field in self._fields.items():
            if name.startswith(prefix):
                setattr(ns, name[len(prefix):], field)
        return ns

    def plan(self, updates) -> _Plan:
        """The write plan of ``updates`` — ``(field, value)`` pairs, a
        value an int or one of :class:`Raise`, :class:`Drop`,
        :class:`From`, :data:`INC`, :data:`DEC` — compiled on first use
        and cached by the update list. Two writes that share a bit are
        refused, so the order of the updates does not matter."""
        key = tuple([(f, type(value), value) for f, value in updates])
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
                # cleared either way, so that ``bits`` only ever fills
                # cleared bits: or-ing them is adding them
                keep[f.word] &= _M64 ^ (value.bits << f.shift)
                if isinstance(value, Raise):
                    bits[f.word] |= value.bits << f.shift
                continue
            keep[f.word] &= f.clear
            if isinstance(value, int):
                if not 0 <= value <= f.mask:
                    raise ModelError(f"{f.name} = {value} outside its field")
                bits[f.word] |= value << f.shift
            else:
                computed.append((i, f))
        return _Plan(
            tuple((w, keep[w], bits[w])
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
    """One update list, compiled: the successor is ``source & keep |
    bits`` (``bits`` only within bits ``keep`` clears), then each
    computed write applied to its field."""

    #: ``(word, keep, bits)`` of every word the update list writes
    words: tuple
    #: ``(update index, field)`` of each :class:`From`, :data:`INC` or
    #: :data:`DEC` write
    computed: tuple


class Bits(NamedTuple):
    """Guard operand: the bits ``mask`` of ``field``, in place
    (``(row[word] >> shift) & mask``)."""

    field: Field
    mask: int


class Fail(NamedTuple):
    """Rule action: the scalar relation's ``ModelError``, its message
    formatted with the source row's value of ``field``."""

    message: str
    field: Field | None = None


#: rule action: step to the assertion-violation sink
SINK = "sink"


class Rule(NamedTuple):
    """One guarded summand instance. On a row where every ``guard`` term
    ``(operand, op, value | field)`` holds — ``op`` one of ``==``,
    ``!=``, ``<``, ``>=``; an operand a :class:`Field` or :class:`Bits`
    — it emits ``label`` at ``rank`` and the row with ``updates``
    written over it (:meth:`Layout.plan`), or the sink (:data:`SINK`),
    or raises (:class:`Fail`). The first term is the instance's key:
    the interpreter pairs a row with the instance only where that term
    holds. Instances of one rank must exclude each other."""

    name: str
    rank: int
    label: str
    guard: tuple
    updates: object


_COMPARE = {"==": operator.eq, "!=": operator.ne, "<": operator.lt, ">=": operator.ge}


def _operand(lhs) -> tuple[Field, int]:
    """``(field, mask)`` of a guard operand."""
    return (lhs.field, lhs.mask) if isinstance(lhs, Bits) else (lhs, lhs.mask)


def _ranges(starts, counts) -> np.ndarray:
    """``starts[j] .. starts[j] + counts[j] - 1`` for every ``j``,
    concatenated."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(starts - ends + counts, counts)


#: per byte value: how many bits it sets, and their positions from the
#: lowest (8 slots a value)
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], np.intp)
_BIT_AT = np.array([
    [j for j in range(8) if v >> j & 1] + [0] * (8 - bin(v).count("1"))
    for v in range(256)
], np.intp).ravel()


class RuleTable:
    """A list of :class:`Rule` instances compiled to arrays, and the
    interpreter that fires them all on a batch of rows (:meth:`fire`).

    A guard term reads a *span* of a row: the bits of one word holding
    the term's field — its element where that has at most
    :data:`_UNIT_BITS` bits, and neighbouring elements or fields of the
    same word with it while the span stays that narrow. The instances
    are numbered in rank order and one bit each; for every value of a
    span and every 64 instances, the table keeps the word of bits of
    those instances that value allows — clear where an instance's terms
    on that span fail. A row's enabled instances are the conjunction of
    its spans' words, over only the spans some instance of the word
    reads. A term comparing fields of two spans is split into one
    instance per value of the right-hand field. The write plan of an
    instance is a keep/or mask per word plus its computed writes.
    """

    def __init__(self, layout: Layout, rules, sink=None):
        self.layout = layout
        rules = sorted(
            (case for rule in rules for case in self._cases(rule)),
            key=lambda rule: rule.rank,
        )
        spans = self._spans({
            self._unit_of(f) for f in {
                _operand(lhs)[0] for rule in rules
                for lhs, _op, _rhs in rule.guard
            }
        })
        # per instance, per span it reads: whether each span value
        # satisfies its terms there. A case split may leave a guard
        # that never holds (writers other than p on a one-processor
        # writer list): such an instance is dropped, its bit spared. In
        # rank order, a row's enabled instances come out in the order
        # ``successors`` lists its moves
        luts: dict = {}  # term -> (span, whether it holds per value)
        reads, self.rules = [], []
        for rule in rules:
            held: dict[int, np.ndarray] = {}
            for term in rule.guard:
                span, ok = luts.get(term) or luts.setdefault(term, self._lut(spans, *term))
                held[span] = held[span] & ok if span in held else ok
            if all(ok.any() for ok in held.values()):
                reads.append(held)
                self.rules.append(rule)

        n, nw = len(self.rules), layout.n_words
        self.n_words = nw
        self.rank = np.array([rule.rank for rule in self.rules], np.int64)
        #: the labels the instances emit, in rank order; ``lid`` indexes it
        self.labels = list(dict.fromkeys(rule.label for rule in self.rules if rule.label))
        self.label_ids = {label: i for i, label in enumerate(self.labels)}
        self.lid = np.array([self.label_ids.get(rule.label, -1) for rule in self.rules], np.int32)
        #: per instance, per word: the bits it keeps, and what it adds —
        #: the constants it writes into the bits it clears, and the
        #: steps of its INC and DEC writes
        self.plan = np.zeros((n, 2, nw), dtype=np.uint64)
        self.plan[:, 0] = _M64
        self.fail = np.full(n, -1, dtype=np.int32)
        self.fails: list[Fail] = []
        moves: list = []
        self.n_moves = np.array([
            self._compile_updates(i, rule, moves, sink)
            for i, rule in enumerate(self.rules)
        ], np.int64)
        self.m_start = np.cumsum(self.n_moves) - self.n_moves
        self.m_word = np.array([m[0] for m in moves], np.intp).reshape(-1, 2)
        self.m_bits = np.array([m[1] for m in moves], np.uint64).reshape(-1, 3)

        # per 64 instances, the spans they read and what each value of
        # one allows (a word that reads none still clears its unused bits)
        self.n_bits = 64 * -(-n // 64)
        blocks = []
        for lo in range(0, self.n_bits, 64):
            readers: dict[int, list] = {}
            for j, held in enumerate(reads[lo:lo + 64]):
                for span, ok in held.items():
                    readers.setdefault(span, []).append((j, ok))
            blocks.append((min(64, n - lo), readers))
        spans_read = [sorted(readers) or [0] for _used, readers in blocks]
        self.starts = np.cumsum([0] + [len(r) for r in spans_read[:-1]])
        pairs = [self._span_of[span] for read in spans_read for span in read]
        sizes = [1 << width for _word, _shift, width in pairs]
        self.p_word = np.array([word for word, _shift, _width in pairs], np.intp)
        self.p_shift = np.array([shift for _word, shift, _width in pairs], np.uint64)[:, None]
        self.p_mask = np.array(sizes, np.uint64)[:, None] - np.uint64(1)
        self.p_base = np.cumsum([0] + sizes[:-1]).astype(np.int64)[:, None]
        self.allowed = np.empty(sum(sizes), dtype="<u8")
        at = iter(self.p_base.ravel().tolist())
        for (used, readers), read in zip(blocks, spans_read):
            for span in read:
                size = 1 << self._span_of[span][2]
                allow = np.zeros((size, 64), dtype=bool)
                allow[:, :used] = True
                for j, ok in readers.get(span, ()):
                    allow[:, j] = ok
                base = next(at)
                self.allowed[base:base + size] = np.packbits(
                    allow, axis=1, bitorder="little").view("<u8").ravel()

    def _spans(self, units) -> dict:
        """Each unit's span: units of one word, in bit order, share a
        span while it stays within :data:`_UNIT_BITS` bits. Span 0 has
        no bits."""
        #: ``(word, shift, width)`` of every span
        self._span_of: list[tuple] = [(0, 0, 0)]
        spans: dict[Field, int] = {}
        for unit in sorted(units, key=lambda u: (u.word, u.shift)):
            end = unit.shift + unit.mask.bit_length()
            word, shift, width = self._span_of[-1]
            if not spans or word != unit.word or end - shift > _UNIT_BITS:
                self._span_of.append((unit.word, unit.shift, end - unit.shift))
            else:
                self._span_of[-1] = (word, shift, end - shift)
            spans[unit] = len(self._span_of) - 1
        return spans

    def _lut(self, spans, lhs, op, rhs) -> tuple[int, np.ndarray]:
        """The span a guard term reads, and whether the term holds for
        each of its values."""
        f, mask = _operand(lhs)
        span = spans[self._unit_of(f)]
        _word, shift, width = self._span_of[span]
        values = np.arange(1 << width)
        if isinstance(rhs, Field):
            rhs = (values >> (rhs.shift - shift)) & rhs.mask
        return span, _COMPARE[op]((values >> (f.shift - shift)) & mask, rhs)

    def _unit_of(self, f: Field) -> Field:
        """The unit a guard on ``f`` reads: its element where that is
        at most :data:`_UNIT_BITS` wide, else ``f`` itself."""
        outer = self.layout.element.get(f, f)
        unit = outer if outer.mask.bit_length() <= _UNIT_BITS else f
        if unit.mask.bit_length() > _UNIT_BITS:
            raise ModelError(f"{f.name} is too wide for a guard")
        return unit

    def _split(self, rule):
        """``rule``, with each term that compares fields of two units
        split into one instance per value of the right-hand field."""
        for t, (lhs, op, rhs) in enumerate(rule.guard):
            if (isinstance(rhs, Field) and self._unit_of(rhs)
                    is not self._unit_of(_operand(lhs)[0])):
                for v in range(rhs.mask + 1):
                    guard = (*rule.guard[:t], (lhs, op, v), *rule.guard[t + 1:], (rhs, "==", v))
                    yield from self._split(rule._replace(guard=guard))
                return
        yield rule

    def _cases(self, rule):
        """``rule`` split on its terms across spans (:meth:`_split`), and
        after each case, for every computed write of it that can leave
        its field, the :class:`Fail` raised where it would."""
        for case in self._split(rule):
            yield case
            if type(case.updates) is not tuple:
                continue
            self.layout.plan(case.updates)  # refuses a bad update list first
            for f, value in case.updates:
                if value is INC or value is DEC:
                    term = f, "==", f.mask if value is INC else 0
                elif isinstance(value, From) and value.field.mask > f.mask:
                    term = value.field, ">=", f.mask + 1
                else:
                    continue
                yield case._replace(
                    label="", guard=(*case.guard, term), updates=Fail(
                        f"{f.name} written with a value outside its field"
                    ),
                )

    def _compile_updates(self, i, rule, moves, sink) -> int:
        """Instance ``i``'s write plan: its keep and add masks, and in
        ``moves`` its :class:`From` writes; how many of those."""
        if rule.updates is SINK:
            self.plan[i, 0], self.plan[i, 1] = 0, sink
            return 0
        if isinstance(rule.updates, Fail):
            self.fail[i] = len(self.fails)
            self.fails.append(rule.updates)
            return 0
        plan = self.layout.plan(rule.updates)
        for w, keep, bits in plan.words:
            self.plan[i, :, w] = keep, bits
        n_moves = 0
        for u, f in plan.computed:
            value = rule.updates[u][1]
            if isinstance(value, From):
                src = value.field
                moves.append(((src.word, f.word), (src.shift, src.mask, f.shift)))
                n_moves += 1
                continue
            # INC and DEC add to the field in place (the Fail of the
            # write that would leave it is raised first)
            self.plan[i, 0, f.word] |= np.uint64(f.mask << f.shift)
            step = 1 << f.shift if value is INC else -1 << f.shift
            add = int(self.plan[i, 1, f.word]) + step
            self.plan[i, 1, f.word] = add & _M64
        return n_moves

    def fire(self, rows):
        """``(succ, row, instance)`` of every instance enabled on
        ``rows``, ordered by row and rank; raises the first enabled
        :class:`Fail`, and ``ModelError`` on a computed value outside
        its field."""
        nw = self.n_words
        # decode each span once per word of instances reading it: a
        # row's instances are the conjunction of what its values allow
        cols = np.ascontiguousarray(rows.T)
        codes = ((cols[self.p_word] >> self.p_shift) & self.p_mask).view(np.int64)
        codes += self.p_base
        enabled = np.bitwise_and.reduceat(self.allowed[codes], self.starts)
        # the set bits, byte by byte: row-major, so in (row, rank) order
        found = np.ascontiguousarray(enabled.T).view(np.uint8).ravel()
        at = np.flatnonzero(found)
        found = found[at].astype(np.intp)
        count = _POPCOUNT[found]
        bit = np.repeat(at * 8, count) + _BIT_AT[_ranges(found * 8, count)]
        row, inst = np.divmod(bit, self.n_bits)

        hit = np.flatnonzero(self.fail[inst] >= 0)
        if hit.size:
            self._raise(rows, row[hit], inst[hit])

        # every write plan at once, then the moves between fields
        words = rows.take(row, axis=0)
        plan = self.plan.take(inst, axis=0)
        succ = (words & plan[:, 0]) + plan[:, 1]
        count = self.n_moves[inst]
        pair = np.repeat(np.arange(len(inst)), count)
        k = _ranges(self.m_start[inst], count)
        if len(k):
            b, w = self.m_bits[k], self.m_word[k]
            value = (words.ravel()[pair * nw + w[:, 0]] >> b[:, 0]) & b[:, 1]
            np.bitwise_or.at(succ.ravel(), pair * nw + w[:, 1], value << b[:, 2])
        return succ, row, inst

    def _raise(self, rows, row, inst):
        """The :class:`Fail` of the first ``(row, rank)`` among ``inst``."""
        first = np.lexsort((self.rank[inst], row))[0]
        fail = self.fails[self.fail[inst[first]]]
        value = None
        if fail.field is not None:
            f = fail.field
            value = (int(rows[row[first], f.word]) >> f.shift) & f.mask
        raise ModelError(fail.message.format(value))


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
        #: per processor, the ``(slot, bit)`` pairs of "a migration is
        #: pending here": a migration reply in the remote queue or its
        #: handler, or a loaded migration slot. The home-queue take waits
        #: for every bit to be clear
        self.migpend = [
            [(self.rq[p], self.rq[p].mig), (self.rqa[p], self.rqa[p].mig),
             *((mg, mg.full) for mg in self.mg[p])]
            for p in range(P)
        ]

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

        self.table = RuleTable(self.layout, self._summands(), self.violation_row)
        #: the labels the rules emit, in rank order: what :meth:`expand`'s
        #: label ids index
        self.labels, self.label_ids = self.table.labels, self.table.label_ids

    # -- the layout ------------------------------------------------------

    def _declare(self, cfg):
        """Every field of a state, its width and its value sort
        (:attr:`Layout.sort`) where a renaming moves its values,
        element by element. A thread's ``dirty`` ranges over regions,
        which no renaming moves."""
        T, P, R = self.T, self.P, self.R
        rounds0 = 0 if cfg.rounds is None else cfg.rounds + 1
        w_tid, w_pid, w_reg = _width(T - 1), _width(P - 1), _width(R - 1)
        thread = [
            ("phase", 4), ("reg", w_reg), ("aho", 1),
            ("wdone", _width(self.W)),
            ("rounds", _width(rounds0)),  # stored + 1; 0 = cyclic
            ("dirty", R),
        ]
        copy = [("home", w_pid, "pid"), ("rstate", 1), ("wl", P, "pmask"), ("lt", _width(T))]
        hmsg = [("full", 1), ("flush", 1), ("tid", w_tid, "tid"), ("src", w_pid, "pid"),
                ("r", w_reg)]
        rmsg = [("full", 1), ("tid", w_tid, "tid"), ("sender", w_pid, "pid"), ("mig", 1),
                ("wl", P, "pmask"), ("rstate", 1), ("r", w_reg)]
        locks = [
            part
            for kind in ("srv", "flt", "fls")
            for part in ((f"{kind}_h", _width(T), "holder"), (f"{kind}_w", T, "tmask"))
        ]
        mig = [("full", 1), ("wl", P, "pmask"), ("rstate", 1)]
        elements = [("violation", [("flag", 1)])]
        elements += [(f"thread{t}", thread) for t in range(T)]
        elements += [(f"copy{p}_{r}", copy) for p in range(P) for r in range(R)]
        for queue, parts in (("hq", hmsg), ("rq", rmsg), ("hqa", hmsg), ("rqa", rmsg)):
            elements += [(f"{queue}{p}", parts) for p in range(P)]
        elements += [(f"locks{p}", locks) for p in range(P)]
        elements += [(f"mig{p}_{r}", mig) for p in range(P) for r in range(R)]
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
        return sorted(units.items(), key=lambda unit: _KEY_ORDER.index(unit[0][0]))

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
        for queue, home in ((hq, True), (rq, False), (hqa, True), (rqa, False)):
            for msg in queue:
                if msg == 0:
                    yield from (0,) * (5 if home else 7)
                elif home:
                    kind, tid, src, r = msg
                    if kind not in (_REQ, _FLUSH):
                        raise ModelError(f"message kind {kind} cannot sit in a home queue")
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
                    raise ModelError(f"{f.name} = {value} outside its field")
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
        table = {key: tuple(map(memo.__getitem__, key)) for key in set(keys)}
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
            flat = self._elements(rows, kind, [group for row in grid for group in row])
            regroup = {key: tuple(key[p * R:(p + 1) * R] for p in range(P)) for key in set(flat)}
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
        for i in np.flatnonzero((rows[:, f.word] >> f.shift) & 1).tolist():
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
                alive = np.flatnonzero(sunk == 0)
                rows = rows.take(alive, axis=0)
        if not len(rows):
            return (
                np.zeros((0, self.n_words), dtype=np.uint64),
                np.zeros(0, dtype=np.intp),
                np.zeros(0, dtype=np.int32),
            )
        parts = []
        for lo in range(0, len(rows), _CHUNK):
            succ, row, inst = self.table.fire(rows[lo:lo + _CHUNK])
            parts.append((succ, row + lo, self.table.lid[inst]))
        succ, src_pos, lids = (parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts)))
        if alive is not None:
            src_pos = alive[src_pos]
        return succ, src_pos, lids

    # -- the summands ------------------------------------------------------

    def _summands(self):
        """Every rule instance of the protocol (their ranks order them)."""
        for tid in range(self.T):
            yield from self._thread_summands(tid)
        for pid in range(self.P):
            yield from self._lock_summands(pid)
            yield from self._homequeue_summands(pid)
            yield from self._remotequeue_summands(pid)
        if self.model.config.with_probes:
            yield from self._probe_summands()

    @staticmethod
    def _exclusive(cp, pid: int, op: str = "=="):
        """No processor but ``pid`` is on the copy's writer list (``!=``:
        another one is)."""
        return Bits(cp.wl, cp.wl.mask ^ 1 << pid), op, 0

    @staticmethod
    def _hmsg(slot, flush: int, tid: int, src: int, r: int):
        """Updates putting ``(REQ | FLUSH, tid, src, r)`` into ``slot``."""
        return ((slot.full, 1), (slot.flush, flush), (slot.tid, tid), (slot.src, src), (slot.r, r))

    def _alf_cases(self, th, pid: int):
        """Adaptive lazy flushing's condition — every dirty region is
        exclusive at home on ``pid`` — as a partition of the rows:
        ``(terms, regions)``, ``regions`` the dirty ones where it holds
        and None where it does not (split on the first region that
        breaks it)."""
        ok, bad = [], []
        for r, cp in enumerate(self.cp[pid]):
            bit = Bits(th.dirty, 1 << r)
            dirty = (bit, "==", 1 << r)
            here = (dirty, (cp.home, "==", pid))
            ok.append((((bit, "==", 0),), (*here, self._exclusive(cp, pid))))
            bad.append(((dirty, (cp.home, "!=", pid)), (*here, self._exclusive(cp, pid, "!="))))
        for choice in itertools.product((0, 1), repeat=self.R):
            yield (sum((ok[r][c] for r, c in enumerate(choice)), ()),
                   [r for r, c in enumerate(choice) if c])
        for first in range(self.R):
            for choice in itertools.product((0, 1), repeat=first):
                fine = sum((ok[r][c] for r, c in enumerate(choice)), ())
                for terms in bad[first]:
                    yield fine + terms, None

    # -- threads ---------------------------------------------------------

    def _thread_summands(self, tid: int):  # noqa: C901
        m = self.model
        th, pid = self.th[tid], m.pid_of[tid]
        lk, cps = self.lk[pid], self.cp[pid]
        variant, checked = m.variant, m.check_assertions
        alf = variant.adaptive_lazy_flushing
        tbit, pbit = 1 << tid, 1 << pid
        rank = tid * self.R
        write, writeover = m.lbl_write[tid], m.lbl_writeover[tid]
        flush, flushover = m.lbl_flush[tid], m.lbl_flushover[tid]
        restart = m.lbl_restart[tid]

        def phase(p):
            return th.phase, "==", p

        def wrote(r):  # thread := (IDLE, ., 0, wdone + 1, ., dirty | 1 << r)
            return ((th.phase, _IDLE), (th.aho, 0), (th.wdone, INC), (th.dirty, Raise(1 << r)))

        def at_home(cp):  # copy := (pid, USED, wl | 1 << pid, lt + 1)
            return (cp.rstate, _USED), (cp.wl, Raise(pbit)), (cp.lt, INC)

        def round_over(name, label, guard, *updates):
            """``thread := (IDLE, ., 0, 0, rounds - 1 if bounded, 0)``;
            rounds is stored + 1: 0 cyclic, 1 none left."""
            over = ((th.phase, _IDLE), (th.aho, 0), (th.wdone, 0), (th.dirty, 0), *updates)
            yield Rule(name, rank, label, (*guard, (th.rounds, "<", 2)), over)
            yield Rule(name, rank, label, (*guard, (th.rounds, ">=", 2)), (*over, (th.rounds, DEC)))

        wait_flush = ((th.phase, _WANT_FLUSH), (th.aho, 0), (lk.fls_w, Raise(tbit)))

        # IDLE with rounds left: start a write to any region, or reach
        # the synchronisation point
        idle = phase(_IDLE), (th.rounds, "!=", 1)
        writing = (*idle, (th.wdone, "<", self.W))
        for r, cp in enumerate(cps):
            bit = Bits(th.dirty, 1 << r)
            start = (th.reg, r), (th.aho, 0)
            yield Rule("write_cached", rank + r, write,
                       (*writing, (bit, "==", 1 << r)),
                       ((th.phase, _LOCAL), (th.reg, r)))
            here = (*writing, (bit, "==", 0), (cp.home, "==", pid))
            if alf:
                yield Rule("write_alf", rank + r, write,
                           (*here, self._exclusive(cp, pid)),
                           ((th.phase, _ALF_WRITE), *start))
                here += (self._exclusive(cp, pid, "!="),)
            yield Rule("write_server", rank + r, write, here,
                       ((th.phase, _WANT_SERVER), *start,
                        (lk.srv_w, Raise(tbit))))
            yield Rule("write_fault", rank + r, write,
                       (*writing, (bit, "==", 0), (cp.home, "!=", pid)),
                       ((th.phase, _WANT_FAULT), *start,
                        (lk.flt_w, Raise(tbit))))
        done = (*idle, (th.wdone, ">=", self.W))
        yield Rule("flush_clean", rank, "", (*done, (th.dirty, "==", 0)),
                   Fail(f"thread {tid}: wdone={{}} but clean", th.wdone))
        if alf:
            for terms, flushed in self._alf_cases(th, pid):
                if flushed is None:
                    yield Rule("flush", rank, flush, (*done, *terms), wait_flush)
                elif flushed:
                    yield Rule("flush_alf", rank, flush, (*done, *terms),
                               ((th.phase, _ALF_FLUSH), (th.aho, 0)))
        else:
            yield Rule("flush", rank, flush, (*done, (th.dirty, "!=", 0)), wait_flush)

        # HAVE_FLUSH: flush the lowest dirty region, or finish the round
        empty = phase(_HAVE_FLUSH), (th.dirty, "==", 0)
        yield Rule("flushover_free", rank, "", (*empty, (lk.fls_h, "==", 0)),
                   Fail(f"releasing free lock slot 4 on p{pid}"))
        yield from round_over("flushover", flushover, empty, (lk.fls_h, 0))
        for r in range(self.R):
            yield from self._flush_region(tid, r)

        # REMOTE_READY: complete the remote write
        ready = phase(_REMOTE_READY)
        yield Rule("writeover_free", rank, "", (ready, (lk.flt_h, "==", 0)),
                   Fail(f"releasing free lock slot 2 on p{pid}"))
        for r, cp in enumerate(cps):
            yield Rule("writeover_remote", rank, writeover,
                       (ready, (th.reg, "==", r)),
                       ((cp.lt, INC), *wrote(r), (lk.flt_h, 0)))

        # HAVE_FAULT: request the data — unless the home came here
        for r, cp in enumerate(cps):
            fault = phase(_HAVE_FAULT), (th.reg, "==", r)
            here = (*fault, (cp.home, "==", pid))
            if variant.fault_lock_recheck:
                yield Rule("fault_free", rank, "",
                           (*here, (lk.flt_h, "==", 0)),
                           Fail(f"releasing free lock slot 2 on p{pid}"))
                yield Rule("fault_to_server", rank, m.lbl_f2s[tid], here,
                           ((th.phase, _WANT_SERVER), (th.aho, 0),
                            (lk.flt_h, 0), (lk.srv_w, Raise(tbit))))
            else:
                yield Rule("stale_remote_wait", rank, m.lbl_stale[tid], here,
                           ((th.phase, _WAIT_DATA), (th.aho, 0)))
            for h, hq in enumerate(self.hq):
                if h != pid:
                    yield Rule("send_datareq", rank, m.lbl_sreq[tid][pid][h],
                               (*fault, (cp.home, "==", h),
                                (hq.full, "==", 0)),
                               (*self._hmsg(hq, 0, tid, pid, r),
                                (th.phase, _WAIT_DATA), (th.aho, 0)))

        # HAVE_SERVER: write at home, or retry remotely
        server = phase(_HAVE_SERVER)
        yield Rule("server_free", rank, "", (server, (lk.srv_h, "==", 0)),
                   Fail(f"releasing free lock slot 0 on p{pid}"))
        for r, cp in enumerate(cps):
            at = server, (th.reg, "==", r)
            yield Rule("writeover_home", rank, writeover,
                       (*at, (cp.home, "==", pid)),
                       (*at_home(cp), *wrote(r), (lk.srv_h, 0)))
            yield Rule("restart_write", rank, restart,
                       (*at, (cp.home, "!=", pid)),
                       ((th.phase, _WANT_FAULT), (th.aho, 0), (lk.srv_h, 0),
                        (lk.flt_w, Raise(tbit))))

        # LOCAL: complete the cached write
        yield Rule("writeover_local", rank, writeover, (phase(_LOCAL),),
                   ((th.phase, _IDLE), (th.wdone, INC)))

        if not alf:
            return

        # ALF_WRITE: complete lock-free if still exclusive, else retry
        for r, cp in enumerate(cps):
            at = phase(_ALF_WRITE), (th.reg, "==", r)
            back = (th.phase, _IDLE), (th.aho, 0)
            yield Rule("writeover_alf", rank, writeover,
                       (*at, (cp.home, "==", pid), self._exclusive(cp, pid)),
                       (*at_home(cp), *wrote(r)))
            yield Rule("restart_alf", rank, restart, (*at, (cp.home, "!=", pid)), back)
            yield Rule("restart_alf", rank, restart,
                       (*at, (cp.home, "==", pid),
                        self._exclusive(cp, pid, "!=")), back)

        # ALF_FLUSH: flush every dirty region at once, or fall back; per
        # flushed region localthreads is 1 (the last: the writer list
        # empties), more, or already 0 (the sink)
        for terms, flushed in self._alf_cases(th, pid):
            guard = (phase(_ALF_FLUSH), *terms)
            if flushed is None:
                yield Rule("alf_flush_restart", rank, restart, guard, wait_flush)
                continue
            for cases in itertools.product(range(3 if checked else 2), repeat=len(flushed)):
                terms, updates = list(guard), []
                for r, case in zip(flushed, cases):
                    cp = cps[r]
                    if case == 0:
                        terms.append((cp.lt, "==", 1))
                        updates += ((cp.lt, 0), (cp.wl, 0), (cp.rstate, _UNUSED))
                    elif case == 1:
                        terms.append((cp.lt, ">=", 2) if checked else (cp.lt, "!=", 1))
                        updates += (cp.lt, DEC), (cp.rstate, _USED)
                    else:
                        terms.append((cp.lt, "==", 0))
                if 2 in cases:
                    yield Rule("alf_flush_violation", rank, m.lbl_viol_lt, tuple(terms), SINK)
                else:
                    yield from round_over("alf_flushover", flushover, terms, *updates)

    def _flush_region(self, tid: int, r: int):
        """HAVE_FLUSH with ``r`` the lowest dirty region."""
        m = self.model
        th, pid = self.th[tid], m.pid_of[tid]
        cp = self.cp[pid][r]
        rank = tid * self.R
        lowest = ((th.phase, "==", _HAVE_FLUSH), (Bits(th.dirty, (2 << r) - 1), "==", 1 << r))
        stay = (th.aho, 0), (th.dirty, Drop(1 << r))
        checked = m.check_assertions

        # remote home: send a Flush once its home queue has room; a
        # localthreads already zero steps to the sink (unchecked, the
        # decrement fails the field check)
        for h, hq in enumerate(self.hq):
            if h != pid:
                guard = (*lowest, (cp.home, "==", h), (hq.full, "==", 0))
                if checked:
                    yield Rule("flush_violation", rank, m.lbl_viol_lt,
                               (*guard, (cp.lt, "==", 0)), SINK)
                    guard += ((cp.lt, "!=", 0),)
                yield Rule("send_flush", rank, m.lbl_sflush[tid][pid][h],
                           guard, ((cp.lt, DEC),
                                   *self._hmsg(hq, 1, tid, pid, r), *stay))

        # at home: flush locally; a sole remaining remote writer gets the
        # home. The last local thread (localthreads 1) leaves the writer
        # list, so ``others`` is what remains of it
        home = (*lowest, (cp.home, "==", pid))
        if checked:
            yield Rule("flush_violation", rank, m.lbl_viol_lt, (*home, (cp.lt, "==", 0)), SINK)
        others = Bits(cp.wl, cp.wl.mask ^ 1 << pid)
        label = m.lbl_fhome[tid][pid]
        for last, wl, lt in ((True, others, 0), (False, cp.wl, DEC),):
            guard = (*home, (cp.lt, "==", 1) if last
                     else (cp.lt, ">=", 2) if checked else (cp.lt, "!=", 1))
            if m.variant.home_migration:
                for dst in range(self.P):
                    if dst != pid:
                        mg = self.mg[dst][r]
                        yield Rule(
                            "flush_home_migrate", rank,
                            m.lbl_fhome_mig[tid][pid][dst],
                            (*guard, (wl, "==", 1 << dst), (mg.full, "==", 0)),
                            ((cp.home, dst), (cp.rstate, _USED), (cp.wl, 0),
                             (cp.lt, lt), (mg.full, 1), (mg.wl, 1 << dst),
                             (mg.rstate, _USED), *stay),
                        )
                        guard += ((wl, "!=", 1 << dst),)
            if last:
                yield Rule("flush_home", rank, label,
                           (*guard, (others, "==", 0)),
                           ((cp.rstate, _UNUSED), (cp.wl, 0), (cp.lt, 0),
                            *stay))
                yield Rule("flush_home", rank, label,
                           (*guard, (others, "!=", 0)),
                           ((cp.rstate, _USED), (cp.wl, Drop(1 << pid)),
                            (cp.lt, 0), *stay))
            else:
                yield Rule("flush_home", rank, label, guard,
                           ((cp.rstate, _USED), (cp.lt, DEC), *stay))

    # -- protocol lock manager -------------------------------------------

    def _lock_summands(self, pid: int):
        m = self.model
        lk = self.lk[pid]
        # the flush lock also waits for the processor's queues to drain
        quiet = ((lk.srv_h, "==", 0), (lk.flt_h, "==", 0), *(
            (slot.full, "==", 0) for slot in (
                self.hq[pid], self.rq[pid], self.hqa[pid], self.rqa[pid],
                *self.mg[pid])
        ))
        for kind, (holder, waiters, guard, phase, table) in enumerate((
            (lk.srv_h, lk.srv_w, ((lk.srv_h, "==", 0),), _HAVE_SERVER,
             m.lbl_lock_srv),
            (lk.flt_h, lk.flt_w, ((lk.flt_h, "==", 0),), _HAVE_FAULT,
             m.lbl_lock_flt),
            (lk.fls_h, lk.fls_w, quiet, _HAVE_FLUSH, m.lbl_lock_fls),
        )):
            rank = self._rank_grant + (pid * 3 + kind) * self.T
            for tid, th in enumerate(self.th):
                yield Rule(
                    "lock_grant", rank + tid, table[tid][pid],
                    ((Bits(waiters, 1 << tid), "==", 1 << tid),
                     (lk.fls_h, "==", 0), *guard),
                    ((th.phase, phase), (holder, tid + 1),
                     (waiters, Drop(1 << tid))),
                )

    # -- home queue handler ----------------------------------------------

    def _homequeue_summands(self, pid: int):
        m = self.model
        hq, hqa = self.hq[pid], self.hqa[pid]
        rank = self._rank_hq + pid * (self.R + 1)

        # a Region Sponmigrate is absorbed from its slot at any time; with
        # the Error-2 fix, a local thread waiting for the region's data
        # is told it holds the home (one case split per local thread)
        for r, (mg, cp) in enumerate(zip(self.mg[pid], self.cp[pid])):
            told = []
            if m.variant.sponmigrate_informs_threads:
                for tid in m.threads_on[pid]:
                    th = self.th[tid]
                    waits = th.phase, "==", _WAIT_DATA
                    told.append((
                        ((waits, (th.reg, "==", r)), ((th.aho, 1),)),
                        (((th.phase, "!=", _WAIT_DATA),), ()),
                        ((waits, (th.reg, "!=", r)), ()),
                    ))
            for cases in itertools.product(*told):
                yield Rule(
                    "recv_sponmigrate", rank + r, m.lbl_mig[pid],
                    ((mg.full, "==", 1), *(t for g, _u in cases for t in g)),
                    ((cp.home, pid), (cp.rstate, From(mg.rstate)),
                     (cp.wl, From(mg.wl)), (mg.all, 0),
                     *(u for _g, us in cases for u in us)),
                )

        rank += self.R
        # idle handler: take the message out of the queue — unless a
        # migration towards this processor is still on its way (a slot's
        # mig bit is set only while it holds a migration reply: an empty
        # slot is all-zero)
        yield Rule(
            "lock_homequeue", rank, m.lbl_hql[pid],
            ((hq.full, "==", 1), (hqa.full, "==", 0),
             *((bit, "==", 0) for _slot, bit in self.migpend[pid])),
            ((hqa.all, From(hq.all)), (hq.all, 0)),
        )

        for r, cp in enumerate(self.cp[pid]):
            held = (hqa.full, "==", 1), (hqa.r, "==", r)
            # stale destination: forward to where the home is believed
            # to be, once that queue has room
            for h, hqh in enumerate(self.hq):
                if h != pid:
                    for flush, table in ((0, m.lbl_fwd_req), (1, m.lbl_fwd_flush)):
                        yield Rule(
                            "forward", rank, table[pid][h],
                            (*held, (hqa.flush, "==", flush),
                             (cp.home, "==", h), (hqh.full, "==", 0)),
                            ((hqh.all, From(hqa.all)), (hqa.all, 0)),
                        )
            for src in range(self.P):
                here = (*held, (hqa.src, "==", src), (cp.home, "==", pid))
                yield from self._serve_request(pid, src, r, rank, (*here, (hqa.flush, "==", 0)))
                yield from self._serve_flush(pid, src, r, rank, (*here, (hqa.flush, "==", 1)))

    def _serve_request(self, pid, src, r, rank, guard):
        """The home ``pid`` answers a Data Request from ``src``, once
        the requester's remote queue has room."""
        m = self.model
        cp, hqa, rq = self.cp[pid][r], self.hqa[pid], self.rq[src]
        guard += ((rq.full, "==", 0),)
        sbit = 1 << src

        def reply(mig, wl, rstate):
            return ((rq.full, 1), (rq.tid, From(hqa.tid)), (rq.sender, pid),
                    (rq.mig, mig), (rq.wl, wl), (rq.rstate, rstate),
                    (rq.r, r), (hqa.all, 0))

        if m.variant.home_migration and src != pid:
            # the home migrates to the only writing processor
            alone = self._exclusive(cp, src)
            yield Rule("send_dataret_mig", rank, m.lbl_sretm[pid][src],
                       (*guard, alone),
                       ((cp.home, src), (cp.rstate, _USED), (cp.wl, 0),
                        *reply(1, sbit, _USED)))
            guard += (self._exclusive(cp, src, "!="),)
        yield Rule("send_dataret", rank, m.lbl_sret[pid][src], guard,
                   ((cp.rstate, _USED), (cp.wl, Raise(sbit)),
                    *reply(0, 0, 0)))

    def _serve_flush(self, pid, src, r, rank, guard):
        """The home ``pid`` processes a Flush from ``src``; a sole
        remaining remote writer gets the home. ``others`` is the writer
        list once ``src`` has left it."""
        m = self.model
        cp, hqa = self.cp[pid][r], self.hqa[pid]
        others = Bits(cp.wl, cp.wl.mask ^ 1 << src)
        if m.variant.home_migration:
            for dst in range(self.P):
                if dst not in (pid, src):
                    mg = self.mg[dst][r]
                    yield Rule(
                        "flush_recv_migrate", rank, m.lbl_frecv_mig[pid][dst],
                        (*guard, (others, "==", 1 << dst), (mg.full, "==", 0)),
                        ((cp.home, dst), (cp.rstate, _USED), (cp.wl, 0),
                         (mg.full, 1), (mg.wl, 1 << dst), (mg.rstate, _USED),
                         (hqa.all, 0)),
                    )
                    guard += ((others, "!=", 1 << dst),)
        done = (cp.wl, Drop(1 << src)), (hqa.all, 0)
        label = m.lbl_frecv[pid]
        yield Rule("flush_recv", rank, label, (*guard, (others, "!=", 0)),
                   ((cp.rstate, _USED), *done))
        yield Rule("flush_recv", rank, label,
                   (*guard, (others, "==", 0), (cp.lt, "!=", 0)),
                   ((cp.rstate, _USED), *done))
        yield Rule("flush_recv", rank, label,
                   (*guard, (others, "==", 0), (cp.lt, "==", 0)),
                   ((cp.rstate, _UNUSED), *done))

    # -- remote queue handler --------------------------------------------

    def _remotequeue_summands(self, pid: int):
        m = self.model
        rq, rqa = self.rq[pid], self.rqa[pid]
        rank = self._rank_rq + pid
        yield Rule("lock_remotequeue", rank, m.lbl_rql[pid],
                   ((rq.full, "==", 1), (rqa.full, "==", 0)),
                   ((rqa.all, From(rq.all)), (rq.all, 0)))

        for tid, th in enumerate(self.th):
            held = (rqa.full, "==", 1), (rqa.tid, "==", tid)
            waits = th.phase, "==", _WAIT_DATA
            checked = m.check_assertions
            if checked:
                # a reply must find its thread here, waiting for the
                # region's data
                unexpected = [held]
                if m.pid_of[tid] == pid:
                    unexpected = [(*held, (th.phase, "!=", _WAIT_DATA)),
                                  (*held, waits, (th.reg, "!=", rqa.r))]
                for guard in unexpected:
                    yield Rule("unexpected_data_return", rank, m.lbl_viol_ret, guard, SINK)
                if m.pid_of[tid] != pid:
                    continue
            signal = m.lbl_signal[tid][pid]
            wake = (th.phase, _REMOTE_READY), (rqa.all, 0)
            # a thread told of a sponmigrate keeps the home it has
            yield Rule("signal", rank, signal,
                       (*held, *((waits, (th.reg, "==", rqa.r)) if checked
                                 else ()),
                        (rqa.mig, "==", 0), (th.aho, "!=", 0)), wake)
            for r, cp in enumerate(self.cp[pid]):
                in_r = (*held, (rqa.r, "==", r), *((waits, (th.reg, "==", r)) if checked else ()))
                yield Rule("signal", rank, signal,
                           (*in_r, (rqa.mig, "==", 1)),
                           ((cp.home, pid), (cp.rstate, From(rqa.rstate)),
                            (cp.wl, From(rqa.wl)), *wake))
                yield Rule("signal", rank, signal,
                           (*in_r, (rqa.mig, "==", 0), (th.aho, "==", 0)),
                           ((cp.home, From(rqa.sender)), (cp.rstate, _USED),
                            (cp.wl, 0), *wake))

    # -- probes ----------------------------------------------------------

    def _probe_summands(self):
        """The probes, self-loops ranked after every move. A region with
        two homes (or two non-home copies) is split on which copies
        think themselves home, at the first region where it happens."""
        P, R = self.P, self.R
        rank = self._rank_probe
        for i, (label, counts) in enumerate((
            (C_HOME, lambda homes: homes >= 2),
            (C_COPY, lambda homes: P - homes >= 2),
        )):
            splits = [
                [
                    (counts(sum(home)), tuple(
                        (self.cp[p][r].home, "==" if h else "!=", p)
                        for p, h in enumerate(home)
                    ))
                    for home in itertools.product((0, 1), repeat=P)
                ]
                for r in range(R)
            ]
            for first in range(R):
                for cases in itertools.product(*(
                    [terms for hit, terms in splits[r] if r == first
                     and hit or r < first and not hit]
                    for r in range(first + 1)
                )):
                    yield Rule("probe", rank + i, label, sum(cases, ()), ())
        for i, fields in enumerate((
            [f for p in range(P) for f in (
                self.lk[p].srv_h, self.lk[p].flt_h, self.lk[p].fls_h,
                self.hqa[p].full, self.rqa[p].full)],
            [slot.full for p in range(P)
             for slot in (self.hq[p], *self.mg[p])],
            [self.rq[p].full for p in range(P)],
        ), start=2):
            yield Rule("probe", rank + i, PROBE_LABELS[i], tuple((f, "==", 0) for f in fields), ())
