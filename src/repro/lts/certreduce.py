"""Certificate-gated reduced view of a transition system.

:class:`ReducedSystem` wraps a :class:`~repro.jackal.model.JackalModel`
(or anything exposing ``config``/``variant``/``codec()``/``kernel()``)
and presents the same ``TransitionSystem`` protocol, a kernel included, so
:func:`~repro.lts.engine.explore_fast` sweeps the reduction a BFS level
at a time (:class:`ReducedKernel`), held column for column to
``successors``. Per state, in this order:

* **ample pruning**: a *safe-class* transition
  (certified invisible and independent of every other enabled one) is
  expanded alone. Safe-class transitions strictly move queue content
  toward handlers and never re-enable each other, so the ignoring
  proviso holds. Which labels are safe, and which may commute, is one
  table over the kernel's label ids, built at construction from the
  footprints :mod:`repro.staticcheck.independence` reads off the
  kernel's rule table; the scalar and the kernel pruner both index it;
* **field slicing** (``slice_fields``, by default the certificate's;
  ``()`` disables it): the certified-sliceable ``rstate`` fields are
  zeroed — a certified congruence
  (:mod:`repro.staticcheck.slicing`), so *all* verdicts are preserved;
* **symmetry quotient** (``canonical=True``): each successor becomes
  its orbit representative, the state with the minimal packed key
  under the certified permutation group.

A kernel sweep records which group element canonicalised each target
(:class:`QuotientLTS`), from which :func:`unfold_quotient` rebuilds, as
column operations, the concrete frames of Requirement 4's per-thread
formulas.
Construction *refuses* to reduce unless the certificate validates for
the wrapped system's configuration and variant (JKL305); this is the
one place a certificate is validated.
The counters ``canonical_hits``, ``ample_prunes`` and ``slice_hits``
are reported per sweep in the ``reduction`` field of ``sweep_end``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError
from repro.lts.engine import explore_fast
from repro.lts.lts import LTS


def _group(cert):
    """The certificate's permutation group, the identity first."""
    from repro.staticcheck.symmetry import Permutation

    config = cert.config
    identity = Permutation(
        tuple(range(config.n_processors)), tuple(range(config.n_threads))
    )
    return (identity, *cert.group)


def require_valid(certificate, config, variant) -> None:
    """Refuse (``ReproError``) unless ``certificate`` validates for this
    spec. A certificate does not depend on the probes: the same one
    validates for the plain view, the probe view and the unfolding."""
    from repro.staticcheck.certificates import validate

    findings = validate(certificate, config, variant)
    if findings:
        reasons = "; ".join(f"{f.rule} {f.message}" for f in findings)
        raise ReproError(f"refusing to reduce: {reasons}")


def _commute_table(kernel):
    """``(safe, commute)`` over ``kernel``'s label ids: whether a label
    is a safe class's (:data:`~repro.staticcheck.independence.SAFE_CLASSES`),
    and for a safe one, which labels it may commute with (all that the
    pruner asks)."""
    from repro.staticcheck import independence as ind

    fps = ind.footprints(kernel)
    table = [fps[label] for label in kernel.labels]
    safe_labels = {
        rule.label for rule in kernel.table.rules
        if rule.name in ind.SAFE_CLASSES
    }
    safe = np.array([label in safe_labels for label in kernel.labels], dtype=bool)
    commute = np.zeros((len(table), len(table)), dtype=bool)
    for i in np.flatnonzero(safe).tolist():
        commute[i] = [ind.may_commute(table[i], fp) for fp in table]
    return safe, commute


class QuotientLTS(LTS):
    """A reduced kernel sweep's LTS plus the :attr:`ReducedKernel.winners`
    of its transitions and initial state, for :func:`unfold_quotient`."""

    __slots__ = ("winners", "initial_winner")


class ReducedSystem:
    """A certified symmetry/ample-reduced view of ``system``."""

    #: the kernel of the last sweep, set by :meth:`kernel`
    _swept: ReducedKernel

    def __init__(
        self,
        system,
        certificate,
        *,
        canonical: bool = True,
        slice_fields=None,
    ):
        config = getattr(system, "config", None)
        variant = getattr(system, "variant", None)
        if config is None or variant is None:
            raise ReproError(
                "refusing to reduce: the wrapped system carries no "
                "config/variant to validate the certificate against "
                "(JKL305)"
            )
        require_valid(certificate, config, variant)
        self.system = system
        self.certificate = certificate
        self.canonical = canonical
        if slice_fields is None:
            slice_fields = certificate.slice_fields
        self.slice_fields = frozenset(slice_fields)
        self._perms = certificate.group if canonical else ()
        self._codec = system.codec()
        self._project = (
            self._codec.projector(self.slice_fields)
            if self.slice_fields
            else None
        )
        kernel = system.kernel()
        self._lid = kernel.label_ids
        self._safe, self._commute = _commute_table(kernel)
        #: successors whose visited key changed under canonicalization
        self.canonical_hits = 0
        #: commuting transitions pruned by singleton ample sets
        self.ample_prunes = 0
        #: successors changed by the certified slice projection
        self.slice_hits = 0

    def kernel(self) -> ReducedKernel:
        """The reduction over the wrapped system's kernel — never the
        wrapped kernel itself, which knows nothing of the reduction."""
        self._swept = ReducedKernel(self, self.system.kernel())
        return self._swept

    def sweep(self, **kwargs) -> LTS:
        """:func:`~repro.lts.engine.explore_fast` of this view: a
        :class:`QuotientLTS`, carrying the winners :func:`unfold_quotient`
        reads."""
        lts = explore_fast(self, **kwargs)
        src, lbl, dst = lts.transition_arrays()
        out = QuotientLTS.from_columns(
            initial=lts.initial, n_states=lts.n_states,
            src=src, lbl=lbl, dst=dst, labels=lts.labels,
        )
        out.state_meta, out.observed = lts.state_meta, lts.observed
        out.winners = np.concatenate(self._swept.winners)
        out.initial_winner = self._swept.initial_winner
        return out

    def initial_state(self):
        init = self.system.initial_state()
        if self._project is not None:
            init = self._project(init)
        if not self.canonical:
            return init
        return self._codec.canonicalize(init, self._perms)[1]

    # -- the reduction ---------------------------------------------------

    def _prune(self, moves):
        if len(moves) < 2:
            return moves
        lids = [self._lid[label] for label, _ns in moves]
        for i, lid in enumerate(lids):
            if self._safe[lid] and all(
                self._commute[lid, other]
                for j, other in enumerate(lids)
                if j != i
            ):
                self.ample_prunes += len(moves) - 1
                return [moves[i]]
        return moves

    def _reduce_moves(self, moves):
        moves = self._prune(moves)
        project = self._project
        if project is not None:
            projected = []
            for label, ns in moves:
                ps = project(ns)
                if ps is not ns:
                    self.slice_hits += 1
                projected.append((label, ps))
            moves = projected
        if not self.canonical:
            return moves
        out = []
        canonicalize = self._codec.canonicalize
        perms = self._perms
        for label, ns in moves:
            _key, rep = canonicalize(ns, perms)
            if rep is not ns:
                self.canonical_hits += 1
            out.append((label, rep))
        return out

    def successors(self, state):
        return self._reduce_moves(self.system.successors(state))

    # kept only for the benchmark's reduction micro-pass, which still
    # calls it; the benchmark PR that re-bases that pass on the trace
    # (ROADMAP item 1(a)) deletes this line
    successors_fast = successors


class ReducedKernel:
    """:class:`ReducedSystem`'s reduction over a level of packed rows:
    :meth:`expand` prunes, slices and canonicalises the wrapped kernel's
    candidates as :meth:`ReducedSystem.successors` does one state's
    moves, so the engine numbers the same representatives in the same
    order. ``pack``, ``unpack`` and ``labels`` are the wrapped kernel's.
    """

    def __init__(self, red: ReducedSystem, base):
        self.red, self.base, self.labels = red, base, base.labels
        self.pack, self.unpack = base.pack, base.unpack
        self._safe, self._commute = red._safe, red._commute
        self._drop = np.zeros(base.n_words, dtype=np.uint64)
        for f in base.layout.leaves:
            if base.layout.family[f] in red.slice_fields:
                self._drop[f.word] |= np.uint64(f.mask << f.shift)
        self._orbit = _Orbit(base, _group(red.certificate)) if red._perms else None
        #: per expanded level, each candidate's winning group element
        #: (0 the identity, ``k`` the certificate's ``group[k - 1]``)
        self.winners = [np.zeros(0, dtype=np.int8)]
        init = base.pack([red.system.initial_state()])
        self.initial_winner = int(self._reduce(init)[1][0])

    def expand(self, rows):
        cand, src_pos, lids = self.base.expand(rows)
        keep = self._prune(src_pos, lids)
        cand = np.compress(keep, cand, axis=0)  # not cand[keep]: 4x slower
        src_pos, lids = src_pos[keep], lids[keep]
        sliced, win = self._reduce(cand)
        self.red.slice_hits += sliced
        self.red.canonical_hits += int(np.count_nonzero(win))
        self.winners.append(win)
        return cand, src_pos, lids

    def _prune(self, src_pos, lids):
        """Per source row of two or more candidates, keep only the first
        safe one commuting with every other, if any."""
        n = len(src_pos)
        starts = np.flatnonzero(np.diff(src_pos, prepend=-1))
        counts = np.diff(starts, append=n)
        row = np.repeat(np.arange(len(starts)), counts)
        cands = np.flatnonzero(self._safe[lids] & (counts[row] >= 2))
        first, k = starts[row[cands]], counts[row[cands]]
        ok = np.ones(len(cands), dtype=bool)
        for j in range(int(k.max(initial=0))):
            other = np.minimum(first + j, n - 1)
            ok &= (j >= k) | (other == cands) | self._commute[lids[cands], lids[other]]
        chosen = cands[ok]
        chosen = chosen[np.diff(row[chosen], prepend=-1) != 0]
        pruned = np.zeros(len(starts), dtype=bool)
        pruned[row[chosen]] = True
        keep = ~pruned[row]
        keep[chosen] = True
        self.red.ample_prunes += int((counts[row[chosen]] - 1).sum())
        return keep

    def _reduce(self, rows):
        """Slice, canonicalise in place: ``(rows sliced, winners)``."""
        sliced = int(np.count_nonzero((rows & self._drop).any(axis=1)))
        rows &= ~self._drop
        if self._orbit is None:
            return sliced, np.zeros(len(rows), dtype=np.int8)
        return sliced, self._orbit.canonicalize(rows)


class _Orbit:
    """Orbit representatives of packed rows under a certified group.

    A renaming moves the kernel's key units — a thread, copy, queue
    slot, lock (holder, waiters) pair or migration slot — whole
    (:meth:`~repro.jackal.kernel.Layout.image`) and rewrites each field
    by its value sort (:attr:`~repro.jackal.kernel.Layout.sort`). The representative is the
    image least in the canonical key order
    (:meth:`~repro.jackal.kernel.FrontierKernel.key_units`, the order
    :class:`~repro.jackal.codec.StateCodec` encodes), so tables map a
    unit's code straight to its image's code and key bits. Ties keep
    the first strict minimum in certificate order.
    """

    def __init__(self, kernel, group):
        layout = kernel.layout
        order = kernel.key_units()
        self._loc, kinds, key_loc = [], [], []
        word = used = 0
        for _unit, parts in order:
            base = parts[0][1]
            kinds.append((layout.element[base] in layout.slots, tuple(
                (layout.sort[f], f.shift - base.shift, f.mask) for _name, f in parts
            )))
            width = sum(m.bit_length() for _n, _s, m in kinds[-1][1])
            self._loc.append((base.word, base.shift, (1 << width) - 1))
            if used + width > 64:
                word, used = word + 1, 0
            used += width
            key_loc.append((word, 64 - used))
        self._n_keys, self._n_words = word + 1, kernel.n_words
        self._violation = kernel.f_violation
        position = {parts[0][1]: u for u, (_unit, parts) in enumerate(order)}
        #: per group element, per unit: the unit moved onto it, its image
        #: and key tables, and where the key bits go
        self._units = []
        for g in group:
            tables = {kind: _tables(kind, g) for kind in set(kinds)}
            image = layout.image(g)
            source = [0] * len(order)
            for u, (_unit, parts) in enumerate(order):
                source[position[image[parts[0][1]]]] = u
            self._units.append([
                (s, *tables[kind], *loc)
                for s, kind, loc in zip(source, kinds, key_loc)
            ])

    def canonicalize(self, rows) -> np.ndarray:
        """Representatives in place; each row's winner (0 = identity)."""
        n = len(rows)
        cols = np.ascontiguousarray(rows.T)
        codes = [((cols[w] >> s) & m).view(np.int64) for w, s, m in self._loc]
        win = np.zeros(n, dtype=np.int8)
        best = None
        for g, units in enumerate(self._units):
            key = [np.zeros(n, dtype=np.uint64) for _ in range(self._n_keys)]
            for u, _image, table, kw, ks in units:
                key[kw] |= table[codes[u]] << ks
            if best is None:
                best = key
                continue
            less, equal = key[0] < best[0], key[0] == best[0]
            for a, b in zip(key[1:], best[1:]):
                less |= equal & (a < b)
                equal &= a == b
            win[less] = g
            best = [np.where(less, a, b) for a, b in zip(key, best)]
        sink = self._violation  # a fixed point
        win[(cols[sink.word] >> sink.shift) & 1 != 0] = 0
        for g in range(1, len(self._units)):
            sel = np.flatnonzero(win == g)
            if sel.size:
                image = np.zeros((len(sel), self._n_words), dtype=np.uint64)
                for (w, s, _m), (u, table, *_key) in zip(self._loc, self._units[g]):
                    image[:, w] |= table[codes[u][sel]] << s
                rows[sel] = image
        return win


def _tables(kind, g):
    """Per code of a unit of ``kind`` — whether it is a slot, and its
    fields' ``(sort, shift, mask)`` —: its ``g`` image, key bits."""
    slot, parts = kind
    codes = np.arange(1 << sum(m.bit_length() for _sort, _s, m in parts))
    image = np.zeros_like(codes)
    for sort, s, m in parts:
        value = (codes >> s) & m
        image |= (np.asarray(g.renaming(sort))[value] if sort else value) << s
    if slot:  # the slot's low bit: empty stays empty
        image = np.where(codes & 1 != 0, image, codes)
    key = np.zeros_like(codes)
    for _sort, s, m in parts:
        key = (key << m.bit_length()) | ((image >> s) & m)
    return image.astype(np.uint64), key.astype(np.uint64)


def unfold_full_quotient(system, certificate):
    """:func:`unfold_quotient` of ``system``'s full-quotient sweep."""
    return unfold_quotient(ReducedSystem(system, certificate).sweep(), certificate)


def unfold_quotient(quotient: QuotientLTS, certificate) -> LTS:
    """The group-unfolding of a full-quotient kernel sweep
    (:meth:`ReducedSystem.sweep`), where per-thread labels like
    ``write(t0)`` regain the frame the quotient merged away — column
    operations over its transitions and their winners.

    Node ``(s, γ)`` stands for the concrete state ``γ(rep_s)``; a
    quotient edge ``s --b--> d`` whose target won π becomes ``(s, γ)
    --γ(b)--> (d, γ∘π⁻¹)``, kept where reachable from ``(0, γ0)`` (γ0
    the inverse of the initial winner) and numbered breadth-first in
    order of first appearance. Each edge is a sliced concrete transition,
    but this is *not* the ample-reduced concrete system (the ample choice
    follows the representative's move order, which is not equivariant):
    what the tests hold it to is the unreduced sweep's verdicts.
    """
    winners = quotient.winners
    group = _group(certificate)
    index = {g: i for i, g in enumerate(group)}
    G, L = len(group), len(quotient.labels)
    # step[γ, π] = γ∘π⁻¹
    step = np.array([[index[a.compose(b.inverse())] for b in group] for a in group])
    src, lbl, dst = quotient.columns()
    n = quotient.n_states
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    node = np.full(n * G, -1, dtype=np.int32)  # (state, frame) -> id
    frontier = np.array([index[group[quotient.initial_winner].inverse()]])
    node[frontier] = 0
    n_nodes, columns = 1, []
    while frontier.size:
        s, gamma = np.divmod(frontier, G)
        counts = offsets[s + 1] - offsets[s]
        at = np.repeat(np.arange(len(frontier)), counts)
        edge = np.arange(len(at)) + np.repeat(offsets[s] - np.cumsum(counts) + counts, counts)
        gamma = gamma[at]
        keys = dst[edge].astype(np.int64) * G + step[gamma, winners[edge]]
        fresh, first = np.unique(keys[node[keys] < 0], return_index=True)
        ids = node[frontier][at]
        frontier = fresh[np.argsort(first)]
        node[frontier] = np.arange(n_nodes, n_nodes + len(frontier))
        n_nodes += len(frontier)
        columns.append((ids, gamma * L + lbl[edge], node[keys]))
    src, lbl, dst = map(np.concatenate, zip(*columns))
    names = [g.apply_label(b) for g in group for b in quotient.labels]
    # relabelled({}) interns the labels in first-appearance order,
    # merging the names two frames share
    return LTS.from_columns(
        initial=0, n_states=n_nodes, src=src, lbl=lbl, dst=dst, labels=names,
    ).relabelled({})
