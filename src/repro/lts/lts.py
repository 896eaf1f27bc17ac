"""In-memory labelled transition system.

States are dense integers ``0..n_states-1``; labels are interned strings.
The representation favours the access patterns of the analyses in this
package: appending during generation, then whole-array passes (numpy)
over the transition columns and their forward and reverse CSR
adjacency during model checking.

The label ``"tau"`` (also written ``i`` in CADP) denotes the hidden
action; :data:`TAU` is the canonical spelling used throughout.
"""

from __future__ import annotations

from array import array
from itertools import compress
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np


TAU = "tau"


def _as_column(values: Sequence[int]) -> array:
    if isinstance(values, array):
        return values
    if isinstance(values, np.ndarray):
        return array("i", values.astype(np.int32, copy=False).tobytes())
    return array("i", values)


def _readonly_view(column: array) -> np.ndarray:
    view = np.frombuffer(column, dtype=np.int32)
    view.flags.writeable = False
    return view


def _reinterned(
    names: Sequence[str], lbl: np.ndarray
) -> tuple[np.ndarray, list[str]]:
    """Intern ``names[i]`` for the label ids in column ``lbl`` the way a
    row-by-row ``add_transition`` would: dense ids in first-appearance
    order, equal names merged, names no row uses left out."""
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
    """A finite labelled transition system.

    Parameters
    ----------
    initial:
        Index of the initial state (conventionally 0).

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
    aliases the column views and costs only the offsets. A numpy view
    pins the ``array('i')`` buffer it exports (``append`` would raise
    ``BufferError``), so every mutator drops the cached views and CSR
    first; a caller must not keep a view across a mutation it cares to
    observe — a view that is still alive keeps showing the old data and
    the LTS moves on to a private copy of its columns.
    """

    __slots__ = (
        "initial",
        "_n_states",
        "_src",
        "_lbl",
        "_dst",
        "labels",
        "_label_index",
        "_cols",
        "_fwd",
        "_rev",
        "state_meta",
    )

    def __init__(self, initial: int = 0):
        self.initial = initial
        self._n_states = 0
        self._src: array = array("i")
        self._lbl: array = array("i")
        self._dst: array = array("i")
        self.labels: list[str] = []
        self._label_index: dict[str, int] = {}
        self._cols: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._fwd: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._rev: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        #: optional per-state annotations (e.g. the decoded model state);
        #: a kernel sweep's is read-only and decodes on access
        self.state_meta: Mapping[int, object] = {}

    # -- construction -------------------------------------------------

    def ensure_states(self, n: int) -> None:
        """Grow the state set so it contains at least ``n`` states."""
        if n > self._n_states:
            self._n_states = n
            self._cols = self._fwd = self._rev = None

    def label_id(self, label: str) -> int:
        """Intern ``label`` and return its dense integer id."""
        idx = self._label_index.get(label)
        if idx is None:
            idx = len(self.labels)
            self.labels.append(label)
            self._label_index[label] = idx
        return idx

    def add_transition(self, src: int, label: str, dst: int) -> None:
        """Append transition ``src --label--> dst`` (states auto-grown)."""
        self.ensure_states(max(src, dst) + 1)
        self._cols = self._fwd = self._rev = None
        try:
            self._src.append(src)
        except BufferError:
            # somebody still holds a columns() view: leave them the old
            # buffers and carry on with private copies
            self._src = array("i", self._src)
            self._lbl = array("i", self._lbl)
            self._dst = array("i", self._dst)
            self._src.append(src)
        self._lbl.append(self.label_id(label))
        self._dst.append(dst)

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
        """Adopt pre-built transition columns without per-call overhead.

        This is the bulk construction path used by the exploration
        engine: ``src``/``lbl``/``dst`` are parallel columns (anything
        ``array('i')`` accepts, or numpy integer arrays), ``labels`` the
        interned label table indexed by ``lbl``. Columns are adopted
        as-is when they already are ``array('i')``.
        """
        lts = cls(initial=initial)
        lts._n_states = n_states
        lts._src = _as_column(src)
        lts._lbl = _as_column(lbl)
        lts._dst = _as_column(dst)
        if not (len(lts._src) == len(lts._lbl) == len(lts._dst)):
            raise ValueError("transition columns must have equal length")
        lts.labels = list(labels)
        lts._label_index = {lab: i for i, lab in enumerate(lts.labels)}
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

    def has_label(self, label: str) -> bool:
        """Whether any transition carries ``label``."""
        return label in self._label_index

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
        transition columns — no copy; see the class notes on lifetime."""
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

    def successors(self, state: int) -> list[tuple[str, int]]:
        """Outgoing ``(label, dst)`` pairs of ``state``."""
        offsets, lbl, dst = self.forward_csr()
        lo, hi = offsets[state], offsets[state + 1]
        labels = self.labels
        return [
            (labels[lab], d)
            for lab, d in zip(lbl[lo:hi].tolist(), dst[lo:hi].tolist())
        ]

    def out_degree(self, state: int) -> int:
        """Number of outgoing transitions of ``state``."""
        offsets = self.forward_csr()[0]
        return int(offsets[state + 1] - offsets[state])

    def enabled_labels(self, state: int) -> set[str]:
        """Set of labels enabled in ``state``."""
        return {label for label, _dst in self.successors(state)}

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

    def without_labels(self, drop: Iterable[str]) -> "LTS":
        """A copy without the transitions labelled in ``drop``.

        States keep their numbers (also those left isolated or
        unreachable) and the surviving rows their order; the label table
        keeps its order minus the dropped labels, so ids stay dense. The
        result is what a generator that never emitted ``drop`` would have
        built — the plain LTS of a sweep that ran with probe self-loops
        on. ``state_meta`` is shared with this LTS, not copied.
        """
        src, lbl, dst = self.columns()
        kept = ~self.label_mask(set(drop).__contains__)
        rows = kept[lbl]
        out = LTS.from_columns(
            initial=self.initial, n_states=self._n_states,
            src=src[rows],
            lbl=(np.cumsum(kept, dtype=np.int32) - 1)[lbl[rows]],
            dst=dst[rows],
            labels=compress(self.labels, kept),
        )
        out.state_meta = self.state_meta
        return out

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

    def __hash__(self):  # noqa: D105 - mutable container, identity hash
        return id(self)
