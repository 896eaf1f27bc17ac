"""The canonical key of a Jackal protocol state: one integer per state.

A :class:`StateCodec` is a per-state view of the frontier kernel's
:class:`~repro.jackal.kernel.Layout` and has no field of its own. The
key concatenates the layout's leaf fields, the first most significant,
in the order of :meth:`~repro.jackal.kernel.FrontierKernel.key_units`:
threads, copies, ``hq``, ``hqa``, ``rq``, ``rqa``, locks, migrations,
fields as declared. Comparing keys therefore compares states
field-lexicographically; the certified symmetry quotient takes the
orbit member with the least key as its representative
(:meth:`StateCodec.canonicalize`, and over packed rows
:class:`repro.lts.certreduce._Orbit`).

The reserved key ``0`` encodes the :data:`~repro.jackal.model.VIOLATION`
sink; every ordinary state's key is odd. The sweeps key on the
kernel's rows, not on this key: the codec serves the scalar reduction
(:class:`~repro.lts.certreduce.ReducedSystem`) and the certifier's
self-tests.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ModelError
from repro.jackal.model import VIOLATION, JackalModel

#: fine fields :meth:`StateCodec.projector` can retract — the
#: write-only read-state bookkeeping family the cone-of-influence
#: analysis (:mod:`repro.staticcheck.slicing`) can prove sliceable
PROJECTABLE_FIELDS = frozenset(
    ("copy.rstate", "rq.rstate", "rqa.rstate", "mig.rstate")
)

#: the kernel's element decoder (``FrontierKernel._kinds``) of the
#: queue families; every other family's decoder has its own name
_DECODER = {"hq": "hmsg", "hqa": "hmsg", "rq": "rmsg", "rqa": "rmsg"}


def _rows(items: list, n: int) -> tuple:
    """``items`` as consecutive ``n``-tuples."""
    return tuple(zip(*[iter(items)] * n))


class StateCodec:
    """Bijection between model states and their canonical keys.

    Parameters
    ----------
    model:
        The model whose kernel layout fixes every field. States of other
        models with the same topology (processors, threads, regions,
        rounds, writes) encode identically.
    """

    def __init__(self, model: JackalModel):
        kernel = self._kernel = model.kernel()
        self.T, self.P, self.R = kernel.T, kernel.P, kernel.R
        layout = kernel.layout
        #: total key width: the layout's, its violation flag the tag bit
        self.n_bits = layout.n_bits
        #: bytes of a key
        self.n_bytes = (self.n_bits + 7) // 8
        place, at = {}, self.n_bits
        for _unit, parts in kernel.key_units():
            for _name, f in parts:
                at -= f.mask.bit_length()
                place[f.name] = at
        leaves = [f for f in layout.leaves if f is not kernel.f_violation]
        #: per leaf in declaration order (the order of ``_values``): the
        #: field and its bit position in the key
        self._fields = [(f, place[f.name]) for f in leaves]
        # per element in declaration order: the kernel's decoder and its
        # memo, and per leaf (key position, mask, shift in the element)
        elements: dict = {}
        for f in leaves:
            element = f.name.split(".")[0]
            family = element.rstrip("0123456789_")
            kind = _DECODER.get(family, family)
            entry = elements.setdefault(
                element, (kind, kernel._kinds[kind][1], [])
            )
            shift = f.shift - layout[element].shift
            entry[2].append((place[f.name], f.mask, shift))
        self._elements = list(elements.values())

    def encode(self, state) -> int:
        """The key of ``state`` (``0`` = VIOLATION); ``ModelError`` on a
        value outside its layout field."""
        values = self._kernel._values(state)
        if next(values):  # the violation flag
            return 0
        key = 1
        for (f, at), value in zip(self._fields, values):
            if not 0 <= value <= f.mask:
                raise ModelError(f"{f.name} = {value} outside its field")
            key |= value << at
        return key

    def decode(self, key: int):
        """Inverse of :meth:`encode`."""
        if key == 0:
            return VIOLATION
        decode = self._kernel._decode
        out = []
        for kind, memo, parts in self._elements:
            code = 0
            for at, mask, shift in parts:
                code |= (key >> at & mask) << shift
            value = memo.get(code)
            if value is None:
                value = memo[code] = decode(kind, code)
            out.append(value)
        T, P, R = self.T, self.P, self.R
        at = T + P * R  # threads, copies | hq, rq, hqa, rqa, locks | migs
        return (tuple(out[:T]), _rows(out[T:at], R),
                *_rows(out[at:at + 5 * P], P), _rows(out[at + 5 * P:], R))

    def canonicalize(self, state, perms):
        """Minimal ``(key, representative)`` over the orbit of ``state``.

        ``perms`` are the *non-identity* members of a certified
        permutation group (duck-typed: anything with ``apply``, e.g.
        :class:`repro.staticcheck.symmetry.Permutation`); the state
        itself always competes, so the identity must not be passed.
        The minimal key is a total, permutation-invariant choice of
        orbit representative — the symmetry-reduced visited set keys
        on it.
        """
        best_key = self.encode(state)
        best_state = state
        for perm in perms:
            permuted = perm.apply(state)
            key = self.encode(permuted)
            if key < best_key:
                best_key, best_state = key, permuted
        return best_key, best_state

    def projector(self, dropped) -> Callable:
        """A projection retracting ``dropped`` fine fields.

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
        unsupported = dropped - PROJECTABLE_FIELDS
        if unsupported:
            raise ModelError(
                f"cannot project fields {sorted(unsupported)}: only "
                f"{sorted(PROJECTABLE_FIELDS)} are sliceable"
            )

        def rmsg(m):
            return m if m == 0 else m[:5] + (0, m[6])

        def project(state):
            if len(state) != 8:
                return state
            threads, copies, hq, rq, hqa, rqa, locks, migs = state
            if "copy.rstate" in dropped:
                copies = tuple(tuple((c[0], 0, *c[2:]) for c in row)
                               for row in copies)
            if "rq.rstate" in dropped:
                rq = tuple(map(rmsg, rq))
            if "rqa.rstate" in dropped:
                rqa = tuple(map(rmsg, rqa))
            if "mig.rstate" in dropped:
                migs = tuple(tuple(m if m == 0 else (m[0], 0) for m in row)
                             for row in migs)
            ns = (threads, copies, hq, rq, hqa, rqa, locks, migs)
            return state if ns == state else ns

        return project

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StateCodec(T={self.T}, P={self.P}, R={self.R}, "
            f"bits={self.n_bits})"
        )
