"""In-memory labelled transition system.

States are dense integers ``0..n_states-1``; labels are interned strings.
An LTS is built once, from columns a sweep (or a reader) filled, by
:meth:`LTS.from_columns`; it has no mutator. The representation favours
the access patterns of the analyses in this package: whole-array passes
(numpy) over the transition columns and their forward and reverse CSR
adjacency.

The label ``"tau"`` (also written ``i`` in CADP) denotes the hidden
action; :data:`TAU` is the canonical spelling used throughout.
"""

from __future__ import annotations

from array import array
from typing import (
    TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lts.engine import Observations


TAU = "tau"


def _as_column(values: Sequence[int]) -> array:
    if isinstance(values, array):
        return values
    if isinstance(values, np.ndarray):
        column = array("i")  # one copy: contiguous int32 is read in place
        column.frombytes(np.ascontiguousarray(values, np.int32).data.cast("B"))
        return column
    return array("i", values)


def _readonly_view(column: array) -> np.ndarray:
    view = np.frombuffer(column, dtype=np.int32)
    view.flags.writeable = False
    return view


def _reinterned(
    names: Sequence[str], lbl: np.ndarray
) -> tuple[np.ndarray, list[str]]:
    """Intern ``names[i]`` for the label ids in column ``lbl``: dense ids
    in first-appearance order, equal names merged, names no row uses
    left out."""
    used, first = np.unique(lbl, return_index=True)
    table: dict[str, int] = {}
    remap = np.zeros(len(names), dtype=np.int32)
    for old in used[np.argsort(first)].tolist():
        remap[old] = table.setdefault(names[old], len(table))
    return remap[lbl], list(table)


class Transition(NamedTuple):
    """A single labelled transition ``src --label--> dst``."""

    src: int
    label: str
    dst: int


class LTS:
    """A finite labelled transition system, built once by
    :meth:`from_columns` and never changed after.

    Notes
    -----
    Transitions are stored in three parallel ``array('i')`` columns
    (``src``, ``label index``, ``dst``); labels are interned in
    :attr:`labels`. A transition costs 12 bytes instead of three list
    slots full of boxed ints, which is what keeps the
    multi-million-transition systems produced when exploring the
    protocol configurations of the paper in memory.

    Every analysis that runs after generation reads the same columnar
    adjacency, built lazily and once per LTS:

    * :meth:`columns` — zero-copy read-only ``int32`` numpy views of
      the three columns;
    * :meth:`forward_csr` — ``(offsets, lbl, dst)``: the out-edges of
      state ``s`` are ``lbl[offsets[s]:offsets[s+1]]`` /
      ``dst[offsets[s]:offsets[s+1]]``, in insertion order;
    * :meth:`reverse_csr` — ``(offsets, lbl, src)``: the same by
      destination, for backward fixpoint propagation.

    An LTS whose ``src`` column is already nondecreasing (every LTS a
    breadth-first sweep emits) needs no permutation: its forward CSR
    aliases the column views and costs only the offsets.
    """

    __slots__ = (
        "initial",
        "_n_states",
        "_src",
        "_lbl",
        "_dst",
        "labels",
        "_cols",
        "_fwd",
        "_rev",
        "state_meta",
        "observed",
    )

    initial: int
    labels: list[str]
    #: optional per-state annotations (e.g. the decoded model state); a
    #: kernel sweep's is read-only and decodes on access
    state_meta: Mapping[int, object]
    #: the moves a sweep observed instead of storing them, if it
    #: observed any
    observed: Observations | None
    _n_states: int
    _src: array
    _lbl: array
    _dst: array
    _cols: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    _fwd: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    _rev: tuple[np.ndarray, np.ndarray, np.ndarray] | None

    @classmethod
    def from_columns(
        cls,
        *,
        initial: int,
        n_states: int,
        src: Sequence[int],
        lbl: Sequence[int],
        dst: Sequence[int],
        labels: Iterable[str],
    ) -> "LTS":
        """The one constructor: adopt pre-built transition columns.

        ``src``/``lbl``/``dst`` are parallel columns (anything
        ``array('i')`` accepts, or numpy integer arrays), ``labels`` the
        interned label table indexed by ``lbl``. Columns are adopted
        as-is when they already are ``array('i')``, and the caller does
        not append to them afterwards.
        """
        lts = object.__new__(cls)
        lts.initial = initial
        lts._n_states = n_states
        lts._src = _as_column(src)
        lts._lbl = _as_column(lbl)
        lts._dst = _as_column(dst)
        if not (len(lts._src) == len(lts._lbl) == len(lts._dst)):
            raise ValueError("transition columns must have equal length")
        lts.labels = list(labels)
        lts._cols = lts._fwd = lts._rev = None
        lts.state_meta = {}
        lts.observed = None
        return lts

    # -- basic queries -------------------------------------------------

    @property
    def n_states(self) -> int:
        """Number of states."""
        return self._n_states

    @property
    def n_transitions(self) -> int:
        """Number of transitions."""
        return len(self._src)

    def transitions(self) -> Iterator[Transition]:
        """Iterate over all transitions in insertion order."""
        labels = self.labels
        for s, lab, d in zip(self._src, self._lbl, self._dst):
            yield Transition(s, labels[lab], d)

    def transition_arrays(self) -> tuple[array, array, array]:
        """Raw parallel ``array('i')`` columns ``(src, label_id, dst)``
        (do not mutate)."""
        return self._src, self._lbl, self._dst

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``int32`` numpy views ``(src, label_id, dst)`` of the
        transition columns — no copy."""
        if self._cols is None:
            self._cols = (
                _readonly_view(self._src),
                _readonly_view(self._lbl),
                _readonly_view(self._dst),
            )
        return self._cols

    def label_mask(self, matches: Callable[[str], bool]) -> np.ndarray:
        """Boolean vector over label ids: ``matches(label)`` per label."""
        return np.fromiter(
            map(matches, self.labels), dtype=bool, count=len(self.labels)
        )

    def _csr(self, key: np.ndarray, lbl: np.ndarray, other: np.ndarray):
        """Group the transitions by ``key`` (stable, so insertion order
        survives inside a group): ``(offsets, lbl, other)``."""
        offsets = np.zeros(self._n_states + 1, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=self._n_states), out=offsets[1:])
        if len(key) > 1 and bool((key[1:] < key[:-1]).any()):
            order = np.argsort(key, kind="stable")
            lbl, other = lbl[order], other[order]
        return offsets, lbl, other

    def forward_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(offsets, lbl, dst)``: out-edges grouped by source state."""
        if self._fwd is None:
            src, lbl, dst = self.columns()
            self._fwd = self._csr(src, lbl, dst)
        return self._fwd

    def reverse_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(offsets, lbl, src)``: in-edges grouped by destination state."""
        if self._rev is None:
            src, lbl, dst = self.columns()
            self._rev = self._csr(dst, lbl, src)
        return self._rev

    def deadlock_states(self, ignore_labels: Iterable[str] = ()) -> list[int]:
        """States with no outgoing transition.

        ``ignore_labels`` are treated as absent; this is used to discount
        observability probe self-loops (``c_home`` etc.) which exist only
        for the benefit of the model checker.
        """
        src, lbl, _dst = self.columns()
        ignored = self.label_mask(set(ignore_labels).__contains__)
        active = np.zeros(self._n_states, dtype=bool)
        active[src[~ignored[lbl]] if ignored.any() else src] = True
        return np.flatnonzero(~active).tolist()

    def label_counts(self) -> dict[str, int]:
        """Map each label to its number of transitions."""
        counts = np.bincount(self.columns()[1], minlength=len(self.labels))
        return dict(zip(self.labels, counts.tolist()))

    # -- transformations -----------------------------------------------

    # numpy columns handed to from_columns are copied, so no result
    # shares a buffer with this LTS

    def relabelled(self, mapping: dict[str, str]) -> "LTS":
        """A copy with labels renamed through ``mapping`` (others kept)."""
        src, lbl, dst = self.columns()
        lbl, labels = _reinterned(
            [mapping.get(lab, lab) for lab in self.labels], lbl
        )
        return LTS.from_columns(
            initial=self.initial, n_states=self._n_states,
            src=src, lbl=lbl, dst=dst, labels=labels,
        )

    # -- dunder ---------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LTS(states={self._n_states}, transitions={self.n_transitions}, "
            f"labels={len(self.labels)}, initial={self.initial})"
        )

    def __eq__(self, other: object) -> bool:
        """Structural equality (same states, same transition multiset)."""
        if not isinstance(other, LTS):
            return NotImplemented
        if self._n_states != other._n_states or self.initial != other.initial:
            return False
        mine = sorted(
            (s, self.labels[lab], d) for s, lab, d in zip(self._src, self._lbl, self._dst)
        )
        theirs = sorted(
            (s, other.labels[lab], d)
            for s, lab, d in zip(other._src, other._lbl, other._dst)
        )
        return mine == theirs

    def __hash__(self):  # noqa: D105 - identity hash, as __eq__ is structural
        return id(self)
