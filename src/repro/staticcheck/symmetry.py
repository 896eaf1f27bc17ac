"""Symmetry certifier: prove the model is permutation-invariant, once.

The Jackal model is fully symmetric in processors (with equal thread
counts) and in threads of the same processor: every rule is
index-generic, so renaming indices maps runs to runs. The paper §5.5
leaves this structure on the table; here a static pass certifies it
*before any sweep runs* and emits a signed
:class:`~repro.staticcheck.certificates.ReductionCertificate` the
exploration backends can trust (see :mod:`repro.lts.certreduce`).

Certification is three independent obligations:

1. **admissible group** — the group of processor permutations
   preserving the thread-count topology, composed with per-processor
   thread permutations, must be nontrivial (else JKL301: nothing to
   reduce by);
2. **index genericity** — the model's label vocabulary must be closed
   under every admissible permutation (a rule emitted only for ``p0``
   breaks closure: JKL301);
3. **bounded equivariance self-test** — on a breadth-first sample of
   states, ``decode ∘ permute ∘ encode`` must commute (the frontier
   kernel's :class:`~repro.jackal.kernel.Layout`, read through
   :class:`~repro.jackal.codec.StateCodec`, respects the permutation
   action) and the successor relation must be equivariant:
   ``succ(π(s)) = π(succ(s))``, labels included. Any counterexample is
   JKL302 with the offending state and permutation.

Once those hold, the certifier runs the two formula-directed passes of
certificate schema v3 — formula symmetrization
(:mod:`repro.staticcheck.formulasym`, JKL401/402) and cone-of-influence
slicing (:mod:`repro.staticcheck.slicing`, JKL403) — and signs their
sections into the certificate alongside the group and the independence
table. Certification is refused, never degraded, on any ERROR.

Soundness note: the *initial* state is deliberately not required to be
a fixed point of the group (``initial_home`` picks a processor). The
reduced semantics explores the orbit quotient, whose initial node is
the orbit of the initial state; equivariance of the successor relation
is exactly what makes that quotient trace-equivalent up to renaming.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from itertools import permutations as _permutations, product
from typing import TYPE_CHECKING, Any

from repro.jackal.model import JackalModel
from repro.jackal.params import Config, ProtocolVariant
from repro.staticcheck.findings import Finding, Severity

if TYPE_CHECKING:
    from repro.staticcheck.certificates import ReductionCertificate

#: default number of sampled states for the equivariance self-test
DEFAULT_SELFTEST_STATES = 200

_INDEX_TOKEN = re.compile(r"\b([tp])(\d+)\b")


def _remap_mask(mask: int, index_map: Sequence[int]) -> int:
    """Remap a bitmask through an index permutation."""
    out = 0
    for i, j in enumerate(index_map):
        if mask >> i & 1:
            out |= 1 << j
    return out


@dataclass(frozen=True)
class Permutation:
    """One admissible renaming of processors and threads.

    ``pid_map[p]`` is the new name of processor ``p``; ``tid_map[t]``
    the new name of global thread ``t``. Bitmask remap tables are
    precomputed (domains are tiny: ``2**P`` and ``2**T`` entries) so
    :meth:`apply` is a flat tuple rebuild.
    """

    pid_map: tuple[int, ...]
    tid_map: tuple[int, ...]
    # precomputed mask tables — derived, excluded from init/eq/repr so
    # equality and hashing stay on the two maps alone
    _pmask: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _tmask: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_pmask",
            tuple(
                _remap_mask(m, self.pid_map)
                for m in range(1 << len(self.pid_map))
            ),
        )
        object.__setattr__(
            self,
            "_tmask",
            tuple(
                _remap_mask(m, self.tid_map)
                for m in range(1 << len(self.tid_map))
            ),
        )

    @property
    def is_identity(self) -> bool:
        return self.pid_map == tuple(range(len(self.pid_map))) and (
            self.tid_map == tuple(range(len(self.tid_map)))
        )

    def as_dict(self) -> dict:
        """JSON form stored in the certificate's ``group`` list."""
        return {"pid_map": list(self.pid_map), "tid_map": list(self.tid_map)}

    # -- group structure -------------------------------------------------

    def inverse(self) -> "Permutation":
        """The inverse renaming: ``g.inverse().apply(g.apply(s)) == s``."""
        pid = [0] * len(self.pid_map)
        tid = [0] * len(self.tid_map)
        for i, j in enumerate(self.pid_map):
            pid[j] = i
        for i, j in enumerate(self.tid_map):
            tid[j] = i
        return Permutation(tuple(pid), tuple(tid))

    def compose(self, other: "Permutation") -> "Permutation":
        """``self ∘ other`` — apply ``other`` first, then ``self``
        (``(a.compose(b)).apply(s) == a.apply(b.apply(s))``)."""
        return Permutation(
            tuple(self.pid_map[p] for p in other.pid_map),
            tuple(self.tid_map[t] for t in other.tid_map),
        )

    # -- action on states ------------------------------------------------

    def _hmsg(self, msg: Any) -> Any:
        if msg == 0:
            return 0
        kind, tid, src, r = msg
        return (kind, self.tid_map[tid], self.pid_map[src], r)

    def _rmsg(self, msg: Any) -> Any:
        if msg == 0:
            return 0
        kind, tid, sender, mig, wl, rstate, r = msg
        return (
            kind,
            self.tid_map[tid],
            self.pid_map[sender],
            mig,
            self._pmask[wl],
            rstate,
            r,
        )

    def _holder(self, h: int) -> int:
        return self.tid_map[h - 1] + 1 if h else 0

    def apply(self, state: Any) -> Any:
        """The permuted state (VIOLATION is a fixed point)."""
        if len(state) != 8:
            return state
        threads, copies, hq, rq, hqa, rqa, locks, migs = state
        pm, tm = self.pid_map, self.tid_map
        pmask, tmask = self._pmask, self._tmask
        P = len(pm)
        nthreads: list[Any] = [None] * len(tm)
        for t, th in enumerate(threads):
            # thread tuples carry only phase/region/flag/counter fields,
            # all invariant under renaming: rows just move
            nthreads[tm[t]] = th
        ncopies: list[Any] = [None] * P
        nhq: list[Any] = [None] * P
        nrq: list[Any] = [None] * P
        nhqa: list[Any] = [None] * P
        nrqa: list[Any] = [None] * P
        nlocks: list[Any] = [None] * P
        nmigs: list[Any] = [None] * P
        for p in range(P):
            q = pm[p]
            ncopies[q] = tuple(
                (pm[home], rs, pmask[wl], lt)
                for home, rs, wl, lt in copies[p]
            )
            nhq[q] = self._hmsg(hq[p])
            nhqa[q] = self._hmsg(hqa[p])
            nrq[q] = self._rmsg(rq[p])
            nrqa[q] = self._rmsg(rqa[p])
            lp = locks[p]
            nlocks[q] = (
                self._holder(lp[0]),
                tmask[lp[1]],
                self._holder(lp[2]),
                tmask[lp[3]],
                self._holder(lp[4]),
                tmask[lp[5]],
            )
            nmigs[q] = tuple(
                0 if m == 0 else (pmask[m[0]], m[1]) for m in migs[p]
            )
        return (
            tuple(nthreads),
            tuple(ncopies),
            tuple(nhq),
            tuple(nrq),
            tuple(nhqa),
            tuple(nrqa),
            tuple(nlocks),
            tuple(nmigs),
        )

    # -- action on labels ------------------------------------------------

    def apply_label(self, label: str) -> str:
        """Rename the ``t<i>``/``p<j>`` tokens inside ``label``."""

        def sub(match: re.Match) -> str:
            kind, idx = match.group(1), int(match.group(2))
            table = self.tid_map if kind == "t" else self.pid_map
            if idx >= len(table):
                return match.group(0)
            return f"{kind}{table[idx]}"

        return _INDEX_TOKEN.sub(sub, label)


def admissible_group(config: Config) -> tuple[Permutation, ...]:
    """Every admissible permutation of ``config``, identity included.

    Admissible: a processor permutation ``σ`` with
    ``tpp[σ(p)] == tpp[p]`` (homes must land on topologically equal
    processors), composed with an arbitrary permutation of each
    processor's own threads. Thread ids are processor-major contiguous,
    so the induced global ``tid_map`` sends processor ``p``'s ``i``-th
    thread to processor ``σ(p)``'s ``τ_p(i)``-th thread.
    """
    tpp = config.threads_per_processor
    P = config.n_processors
    blocks = [tuple(config.thread_ids_of(p)) for p in range(P)]
    out: list[Permutation] = []
    for sigma in _permutations(range(P)):
        if any(tpp[sigma[p]] != tpp[p] for p in range(P)):
            continue
        for taus in product(*(list(_permutations(range(n))) for n in tpp)):
            tid_map = [0] * config.n_threads
            for p in range(P):
                dst = blocks[sigma[p]]
                for i, t in enumerate(blocks[p]):
                    tid_map[t] = dst[taus[p][i]]
            out.append(Permutation(tuple(sigma), tuple(tid_map)))
    return tuple(out)


def is_admissible(
    config: Config, pid_map: Sequence[int], tid_map: Sequence[int]
) -> bool:
    """Whether the two maps form an admissible permutation of ``config``
    (used by certificate validation; cheap, no group enumeration)."""
    P, T = config.n_processors, config.n_threads
    pid_map, tid_map = tuple(pid_map), tuple(tid_map)
    if sorted(pid_map) != list(range(P)) or sorted(tid_map) != list(range(T)):
        return False
    tpp = config.threads_per_processor
    if any(tpp[pid_map[p]] != tpp[p] for p in range(P)):
        return False
    # threads must follow their processor
    return all(
        config.processor_of(tid_map[t]) == pid_map[config.processor_of(t)]
        for t in range(T)
    )


# -- obligation 2: index genericity -------------------------------------


def _label_closure_findings(
    model: Any, group: Sequence[Permutation]
) -> list[Finding]:
    from repro.staticcheck.labelcheck import model_labels

    vocabulary = model_labels(model)
    findings: list[Finding] = []
    for perm in group:
        if perm.is_identity:
            continue
        permuted = {perm.apply_label(lbl) for lbl in vocabulary}
        broken = sorted(permuted - vocabulary)
        if broken:
            findings.append(
                Finding(
                    "JKL301",
                    Severity.ERROR,
                    "model/labels",
                    "label vocabulary is not closed under the admissible "
                    f"permutation pid_map={list(perm.pid_map)}: a rule "
                    "exists for some indices but not their renamings "
                    f"(e.g. {broken[0]!r} is never emitted)",
                    data={
                        "permutation": perm.as_dict(),
                        "missing": broken[:4],
                    },
                )
            )
            break
    return findings


# -- obligation 3: bounded equivariance self-test -----------------------


def _sample_states(model: Any, limit: int) -> list[Any]:
    """Up to ``limit`` states by plain breadth-first walk over
    ``model.successors``. Deliberately *not* the exploration machinery:
    static analysis never builds an LTS, it samples a bounded prefix."""
    init = model.initial_state()
    seen = {init}
    frontier = [init]
    out = [init]
    while frontier and len(out) < limit:
        nxt = []
        for s in frontier:
            if len(s) != 8:
                continue
            for _lbl, ns in model.successors(s):
                if ns not in seen:
                    seen.add(ns)
                    out.append(ns)
                    nxt.append(ns)
                    if len(out) >= limit:
                        return out
        frontier = nxt
    return out


def equivariance_findings(
    model: Any,
    group: Sequence[Permutation],
    *,
    max_states: int = DEFAULT_SELFTEST_STATES,
    max_findings: int = 3,
) -> list[Finding]:
    """JKL302 counterexamples to layout/successor equivariance."""
    findings: list[Finding] = []
    perms = [g for g in group if not g.is_identity]
    if not perms:
        return findings
    codec = model.codec()
    for state in _sample_states(model, max_states):
        for perm in perms:
            permuted = perm.apply(state)
            if codec.decode(codec.encode(permuted)) != permuted:
                findings.append(
                    Finding(
                        "JKL302",
                        Severity.ERROR,
                        "model/codec",
                        "decode(encode(permute(s))) != permute(s) for "
                        f"pid_map={list(perm.pid_map)}: the packed layout "
                        "does not respect the permutation action",
                        data={"permutation": perm.as_dict()},
                    )
                )
            expected = sorted(
                (perm.apply_label(lbl), perm.apply(ns))
                for lbl, ns in model.successors(state)
            )
            actual = sorted(model.successors(permuted))
            if expected != actual:
                exp_labels = [lbl for lbl, _ in expected]
                act_labels = [lbl for lbl, _ in actual]
                diff = sorted(
                    set(exp_labels).symmetric_difference(act_labels)
                ) or ["<same labels, different targets>"]
                findings.append(
                    Finding(
                        "JKL302",
                        Severity.ERROR,
                        "model/successors",
                        "successor relation is not equivariant under "
                        f"pid_map={list(perm.pid_map)} "
                        f"tid_map={list(perm.tid_map)}: permuting and "
                        "stepping disagree at a sampled state "
                        f"(mismatched labels: {diff[:4]})",
                        data={
                            "permutation": perm.as_dict(),
                            "mismatched_labels": diff[:4],
                        },
                    )
                )
            if len(findings) >= max_findings:
                return findings
    return findings


# -- the certifier -------------------------------------------------------


def certify(
    config: Config,
    variant: ProtocolVariant,
    *,
    model: Any = None,
    max_states: int = DEFAULT_SELFTEST_STATES,
) -> tuple[ReductionCertificate | None, list[Finding]]:
    """Attempt to certify symmetry + independence for ``config``.

    Returns ``(certificate, findings)``: a signed
    :class:`~repro.staticcheck.certificates.ReductionCertificate` and
    the (possibly empty) list of findings. On any ERROR finding the
    certificate is ``None`` — certification is refused, never degraded.

    ``model`` defaults to the probe-enabled model of the configuration
    (probes are part of the Requirement-3 vocabulary, so the self-test
    covers them); pass a model instance to certify a mutated build, as
    the CI mutation smoke does.
    """
    from repro.staticcheck import independence
    from repro.staticcheck.certificates import issue

    findings: list[Finding] = []
    group = admissible_group(config)
    nontrivial = [g for g in group if not g.is_identity]
    if not nontrivial:
        findings.append(
            Finding(
                "JKL301",
                Severity.ERROR,
                f"config/{config.describe()}",
                "only the identity permutation is admissible for this "
                "topology: there is no symmetry to reduce by",
            )
        )
        return None, findings
    if model is None:
        model = JackalModel(replace(config, with_probes=True), variant)
    findings.extend(_label_closure_findings(model, nontrivial))
    if not any(f.severity == Severity.ERROR for f in findings):
        findings.extend(
            equivariance_findings(model, nontrivial, max_states=max_states)
        )
    if any(f.severity == Severity.ERROR for f in findings):
        return None, findings
    # formula-directed passes (certificate schema v3): symmetrize the
    # requirement formulas under the certified group and derive the
    # cone-of-influence field slice, each with its own refusals
    from repro.staticcheck.formulasym import (
        formulas_section,
        vocabulary_findings,
    )
    from repro.staticcheck.slicing import selftest_findings, slices_section

    formulas, formula_findings = formulas_section(config)
    findings.extend(formula_findings)
    if formulas is not None:
        findings.extend(vocabulary_findings(model, config, nontrivial))
    slices, slice_findings = slices_section(config)
    findings.extend(slice_findings)
    dropped: frozenset = frozenset()
    if slices is not None and not any(
        f.severity == Severity.ERROR for f in findings
    ):
        dropped = frozenset(slices["common_dropped"])
        findings.extend(
            selftest_findings(model, dropped, max_states=max_states)
        )
    if any(f.severity == Severity.ERROR for f in findings):
        return None, findings
    assert formulas is not None and slices is not None
    cert = issue(
        config,
        variant,
        group=nontrivial,
        independence=independence.ample_table(config),
        formulas=formulas,
        slices=slices,
        selftest={
            "states_sampled": max_states,
            "permutations": len(nontrivial),
            "slice_states_sampled": max_states if dropped else 0,
        },
    )
    return cert, findings
