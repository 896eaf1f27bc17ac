"""Certificate-gated reduced view of a transition system.

:class:`ReducedSystem` wraps a :class:`~repro.jackal.model.JackalModel`
(or anything exposing ``config``/``variant``/``codec()``) and presents
the same ``TransitionSystem`` protocol, so both sweep backends —
serial :func:`~repro.lts.explore.explore` and the columnar
:func:`~repro.lts.engine.explore_fast` — reduce identically with no
per-backend BFS changes:

* **symmetry quotient** (``canonical=True``): every successor state is
  replaced by its orbit representative — the state with the minimal
  packed key under the certified permutation group — so the visited
  set counts orbits, not states;
* **ample pruning** (``ample=True``): when a *safe-class* transition
  (certified invisible and statically independent of every other
  enabled transition) is enabled, it alone is expanded; the commuting
  interleavings are pruned. Safe-class transitions strictly move queue
  content toward handlers and never re-enable each other, so a cycle
  of pruned states is impossible (the ignoring proviso holds);
* **field slicing** (``slice_fields``): every state is projected
  through the certificate's cone-of-influence slice
  (:mod:`repro.staticcheck.slicing`) before canonicalization — the
  certified-sliceable fields (the ``rstate`` bookkeeping family) are
  zeroed, merging states that differ only outside every requirement's
  cone of influence. The slice is certified to be a congruence
  (projection commutes with stepping), i.e. a strong bisimulation, so
  *all* verdicts, liveness included, are preserved. ``None`` (the
  default) takes the certificate's ``common_dropped`` set; pass ``()``
  to disable slicing (the canonical-only comparison).

Historically, per-thread-indexed properties (Requirement 4's
``write(t)`` inevitability) were not invariant under the quotient's
frame changes and the requirement driver ran them with
``canonical=False`` (ample-only). Schema-v3 certificates close that
gap: the ``formulas`` section (:mod:`repro.staticcheck.formulasym`)
proves each requirement family invariant or orbit-closed under the
certified group, and when it records ``plain_quotient: "full"`` the
driver runs the plain sweep under the full quotient and evaluates
Requirement 4 on the quotient's exact group-unfolding
(:func:`unfold_full_quotient`) — the annotated-quotient construction
that reconstructs concrete per-thread frames from quotient edges plus
their winning permutations.

Construction *refuses* to reduce unless the certificate validates for
the wrapped system's exact configuration and variant (JKL303–JKL305,
JKL401–404); there is no degraded mode. The wrapper counts
``canonical_hits`` (successors whose key changed under
canonicalization), ``ample_prunes`` (transitions pruned) and
``slice_hits`` (successors changed by projection), which the backends
report per sweep in the ``reduction`` field of the trace's
``sweep_end`` event.
"""

from __future__ import annotations

from repro.errors import ReproError


def _build_perms(cert):
    from repro.staticcheck.symmetry import Permutation

    return tuple(
        Permutation(tuple(entry["pid_map"]), tuple(entry["tid_map"]))
        for entry in cert.group
    )


class ReducedSystem:
    """A certified symmetry/ample-reduced view of ``system``."""

    def __init__(
        self,
        system,
        certificate,
        *,
        canonical: bool = True,
        ample: bool = True,
        slice_fields=None,
        _validated: bool = False,
    ):
        config = getattr(system, "config", None)
        variant = getattr(system, "variant", None)
        if config is None or variant is None:
            raise ReproError(
                "refusing to reduce: the wrapped system carries no "
                "config/variant to validate the certificate against "
                "(JKL305)"
            )
        if not _validated:
            from repro.staticcheck.certificates import validate

            findings = validate(certificate, config, variant)
            if findings:
                reasons = "; ".join(
                    f"{f.rule} {f.message}" for f in findings
                )
                raise ReproError(f"refusing to reduce: {reasons}")
        self.system = system
        self.certificate = certificate
        self.canonical = canonical
        self.ample = ample
        if slice_fields is None:
            from repro.staticcheck.slicing import certified_slice

            slice_fields = certified_slice(certificate)
        self.slice_fields = frozenset(slice_fields)
        self._perms = _build_perms(certificate) if canonical else ()
        self._codec = system.codec()
        self._project = (
            self._codec.projector(self.slice_fields)
            if self.slice_fields
            else None
        )
        self._footprints: dict = {}
        self._safe: dict = {}
        #: successors whose visited key changed under canonicalization
        self.canonical_hits = 0
        #: commuting transitions pruned by singleton ample sets
        self.ample_prunes = 0
        #: successors changed by the certified slice projection
        self.slice_hits = 0

    def __getattr__(self, name):
        if name == "system":  # guard: __init__ may not have run yet
            raise AttributeError(name)
        # config, variant, is_done_state, pid_of, ... fall through
        return getattr(self.system, name)

    def codec(self):
        return self._codec

    #: no frontier kernel: ``__getattr__`` would otherwise hand the
    #: engine the wrapped model's, which knows nothing of the reduction
    kernel = None

    def initial_state(self):
        init = self.system.initial_state()
        if self._project is not None:
            init = self._project(init)
        if not self.canonical:
            return init
        return self._codec.canonicalize(init, self._perms)[1]

    # -- the reduction ---------------------------------------------------

    def _footprint(self, label):
        fp = self._footprints.get(label)
        if fp is None:
            from repro.staticcheck.independence import label_footprint

            fp = self._footprints[label] = label_footprint(
                label, self.system.config
            )
        return fp

    def _is_safe(self, label):
        safe = self._safe.get(label)
        if safe is None:
            from repro.staticcheck.independence import is_safe

            safe = self._safe[label] = is_safe(label)
        return safe

    def _prune(self, moves):
        if len(moves) < 2:
            return moves
        from repro.staticcheck.independence import may_commute

        fps = None
        for i, (label, _ns) in enumerate(moves):
            if not self._is_safe(label):
                continue
            if fps is None:
                fps = [self._footprint(lbl) for lbl, _ in moves]
            mine = fps[i]
            if all(
                may_commute(mine, fps[j])
                for j in range(len(moves))
                if j != i
            ):
                self.ample_prunes += len(moves) - 1
                return [moves[i]]
        return moves

    def _reduce_moves(self, moves):
        if self.ample:
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

    def successors_fast(self, state):
        base = getattr(self.system, "successors_fast", None)
        moves = base(state) if base else self.system.successors(state)
        return self._reduce_moves(moves)

    # -- permutation-annotated view (for the group-unfolding) -----------

    def _canonicalize_annotated(self, state):
        """``(representative, perm)`` with ``perm(state) == rep``
        (``None`` = identity)."""
        best_key = self._codec.encode(state)
        best, best_perm = state, None
        for perm in self._perms:
            permuted = perm.apply(state)
            key = self._codec.encode(permuted)
            if key < best_key:
                best_key, best, best_perm = key, permuted, perm
        return best, best_perm

    def annotated_initial(self):
        """The reduced initial state plus the permutation that produced
        it from the concrete initial state (``None`` = identity)."""
        init = self.system.initial_state()
        if self._project is not None:
            init = self._project(init)
        if not self.canonical:
            return init, None
        return self._canonicalize_annotated(init)

    def annotated_successors(self, state):
        """Reduced moves as ``(label, representative, perm)`` triples.

        Same pruning, slicing and canonicalization as
        :meth:`successors`, but each move keeps the permutation that
        mapped the concrete successor onto its representative
        (``None`` = identity). :func:`unfold_full_quotient` consumes
        this to rebuild exact per-index frames from the quotient.
        """
        moves = self.system.successors(state)
        if self.ample:
            moves = self._prune(moves)
        project = self._project
        out = []
        for label, ns in moves:
            if project is not None:
                ns = project(ns)
            if self.canonical:
                rep, perm = self._canonicalize_annotated(ns)
            else:
                rep, perm = ns, None
            out.append((label, rep, perm))
        return out


def unfold_full_quotient(system, certificate, *, _validated: bool = False):
    """The exact group-unfolding of ``system``'s full-quotient sweep.

    The plain quotient merges states that differ only by an index
    renaming, so a per-thread label like ``write(t0)`` loses its frame:
    from a symmetric state, ``write(t0)`` and ``write(t1)`` both lead
    to the same representative, where thread 0 is the writer. Formulas
    quoting concrete indices — Requirement 4's family, even its
    group-invariant orbit conjunction — are therefore *not* decidable
    on the quotient LTS itself (Emerson–Sistla preservation needs the
    atomic labels invariant, not just the whole formula).

    This helper rebuilds the frames. It explores the quotient once
    (memoizing each representative's annotated successor list) and
    unfolds its edges through the group: a node is ``(rep, γ)`` where
    γ is the accumulated renaming with ``concrete = γ(rep)``, and a
    quotient move ``rep --b--> rep'`` with winning permutation π
    (``rep' = π(ns)``) becomes

        ``(rep, γ) --γ(b)--> (rep', γ∘π⁻¹)``

    The result is label-exact: it is isomorphic to the sliced,
    ample-pruned concrete system (slicing is a certified congruence,
    ample pruning chooses equivariantly), so *any* µ-calculus formula —
    per-thread Requirement-4 included — evaluates on it with its
    concrete verdict. Each representative contributes at most |G|
    nodes, so the unfolding is bounded by the ample-reduced concrete
    size while the quotient sweep keeps the memory win.

    Returns a fully built :class:`~repro.lts.lts.LTS`.
    """
    from repro.lts.lts import LTS
    from repro.staticcheck.symmetry import Permutation

    red = ReducedSystem(system, certificate, _validated=_validated)
    codec = red.codec()
    config = system.config
    identity = Permutation(
        tuple(range(config.n_processors)), tuple(range(config.n_threads))
    )

    rep0, pi0 = red.annotated_initial()
    gamma0 = identity if pi0 is None else pi0.inverse()
    lts = LTS(0)
    index: dict = {}

    def node(rep_key, gamma):
        key = (rep_key, gamma)
        idx = index.get(key)
        if idx is None:
            idx = index[key] = lts.add_state()
        return idx

    key0 = codec.encode(rep0)
    node(key0, gamma0)
    # winning permutations memoized per representative: every (rep, γ)
    # node shares the rep's single quotient successor list
    succ_memo: dict = {}
    frontier = [(rep0, key0, gamma0)]
    while frontier:
        nxt = []
        for rep, rep_key, gamma in frontier:
            src = index[(rep_key, gamma)]
            moves = succ_memo.get(rep_key)
            if moves is None:
                moves = succ_memo[rep_key] = [
                    (
                        label,
                        rep2,
                        codec.encode(rep2),
                        None if pi is None else pi.inverse(),
                    )
                    for label, rep2, pi in red.annotated_successors(rep)
                ]
            for label, rep2, key2, pi_inv in moves:
                gamma2 = gamma if pi_inv is None else gamma.compose(pi_inv)
                known = (key2, gamma2) in index
                dst = node(key2, gamma2)
                lts.add_transition(src, gamma.apply_label(label), dst)
                if not known:
                    nxt.append((rep2, key2, gamma2))
        frontier = nxt
    return lts
