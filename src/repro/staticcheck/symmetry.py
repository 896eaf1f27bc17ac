"""Symmetry certifier: prove the model is permutation-invariant, once.

The Jackal model is fully symmetric in processors (with equal thread
counts) and in threads of the same processor: every rule is
index-generic, so renaming indices maps runs to runs. The paper §5.5
leaves this structure on the table; here a static pass certifies it
*before any sweep runs* and returns a
:class:`~repro.staticcheck.certificates.ReductionCertificate` the
exploration backends validate before they reduce (see
:mod:`repro.lts.certreduce`).

Certification proves two obligations on the frontier kernel's rule
table (:mod:`repro.jackal.kernel`), the relation every sweep runs:

1. **admissible group** — the group of processor permutations
   preserving the thread-count topology, composed with per-processor
   thread permutations, must be nontrivial (else JKL301: nothing to
   reduce by);
2. **equivariance** (:func:`_rule_findings`, as scalarsets let Murφ
   prove it, Ip & Dill 1996) — each nontrivial ``g`` must join packed
   elements with identical field lists, and for every label ``L``,
   ``L``'s rule instances renamed by ``g`` (each field to its image's,
   each value by its field's sort,
   :attr:`~repro.jackal.kernel.Layout.sort`) must be exactly the
   instances of ``g(L)``. The group holds every inverse, so then
   ``succ(g(s)) = g(succ(s))`` on every row, labels included. Else
   JKL302, naming the label and the permutation.

Once those hold, the certifier runs the two formula-directed passes —
formula symmetrization (:mod:`repro.staticcheck.formulasym`,
JKL401/402) and cone-of-influence slicing
(:mod:`repro.staticcheck.slicing`, JKL403) — and records the group and
the certified slice in the certificate. Certification is refused, never
degraded, on any ERROR. It never steps the model.

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
from typing import TYPE_CHECKING, Any, cast

from repro.errors import ReproError
from repro.jackal.kernel import (
    _COMPARE,
    SINK,
    Drop,
    Fail,
    Field,
    From,
    FrontierKernel,
    Layout,
    Raise,
    Rule,
    _operand,
)
from repro.jackal.model import JackalModel
from repro.jackal.params import Config, ProtocolVariant
from repro.obs.core import current as _current_tracer
from repro.staticcheck.findings import Finding, Severity

if TYPE_CHECKING:  # certificates imports this module
    from repro.staticcheck.certificates import ReductionCertificate

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

    def renaming(self, sort: str) -> tuple[int, ...]:
        """The image of each value of a field of value sort ``sort``
        (:attr:`~repro.jackal.kernel.Layout.sort`): processor and thread
        ids and lock holders (a thread + 1, 0 free) are renamed, the
        identity beyond the valid ones (no such field is wider than 8
        bits); the bits of a ``pmask`` or ``tmask`` move."""
        if sort in ("pmask", "tmask"):
            return self._pmask if sort == "pmask" else self._tmask
        head = {
            "pid": self.pid_map,
            "tid": self.tid_map,
            "holder": (0, *(t + 1 for t in self.tid_map)),
        }[sort]
        return (*head, *range(len(head), 256))

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


# -- obligation 2: the rule table is equivariant ------------------------


def _normal(rule: Rule) -> tuple:
    """``rule`` as ``(guard, updates)``, its rank left out: the guard as
    the values each leaf it tests may take (its terms on a leaf
    intersected, a leaf left out if that is every value; a term
    comparing two fields kept whole), the updates as a set, a
    :class:`Fail` as the class alone (its message is no state)."""
    allowed: dict = {}
    terms = set()
    for lhs, op, value in rule.guard:
        f, mask = _operand(lhs)
        if not isinstance(value, int):
            terms.add((lhs, op, value))
            continue
        holds = frozenset(x for x in range(f.mask + 1) if _COMPARE[op](x & mask, value))
        allowed[f] = allowed.get(f, holds) & holds
    updates = rule.updates
    if isinstance(updates, Fail):
        updates = Fail
    elif updates is not SINK:
        updates = frozenset((f, type(v), v) for f, v in cast(tuple, updates))
    terms.update((f, values) for f, values in allowed.items() if len(values) <= f.mask)
    return frozenset(terms), updates


def _signature(layout: Layout, element: Field) -> list:
    """The fields of ``element``: name, width and value sort."""
    return [(f.name.partition(".")[2], f.mask, layout.sort[f]) for f in layout.parts[element]]


def _renamed(inst: tuple, layout: Layout, image: dict, maps: dict):
    """The normal form (:func:`_normal`) of an instance renamed: each
    field to its ``image``, each value by its field's sort (``maps``).
    None where that renames nothing: a term comparing two fields, an
    index-valued field stepped, copied from another sort or its bits
    set, a whole element written but to empty it or copy another, or an
    index in a slot not known full (an empty slot is all-zero, and no
    renaming moves it)."""
    guard, updates = inst
    if any(len(term) != 2 for term in guard):
        return None
    sort, element, slots = layout.sort, layout.element, layout.slots
    fulls = {layout.parts[e][0] for e in slots}
    full = {element[f] for f, values in guard if f in fulls and values == {1}}

    def renames(f, full):  # no index in a slot that may be empty
        return not sort[f] or element[f] not in slots or element[f] in full

    if not all(renames(f, full) for f, _values in guard):
        return None
    out = frozenset(
        (image[f], frozenset(maps[sort[f]][x] for x in values) if sort[f] else values)
        for f, values in guard
    )
    if type(updates) is not frozenset:
        return out, updates
    filled = {element[f] for f, _kind, v in updates if f in fulls and v == 1}
    moved = []
    for f, kind, v in updates:
        s = sort.get(f)  # None for a whole element
        if f in layout.parts:
            ok = (_signature(layout, f) == _signature(layout, v.field) if kind is From
                  else kind is int and v == 0 and f in slots)
        elif kind is From:
            ok = sort[v.field] == s and renames(v.field, full) and renames(f, filled)
        else:
            ok = renames(f, filled) and (
                not s or kind is int or kind in (Raise, Drop) and s in ("pmask", "tmask"))
        if not ok:
            return None
        if kind is From:
            v = From(image[v.field])
        elif s:
            v = maps[s][v] if kind is int else kind(maps[s][v.bits])
        moved.append((image[f], kind, v))
    return out, frozenset(moved)


def _rule_findings(
    kernel: FrontierKernel, group: Sequence[Permutation]
) -> list[Finding]:
    """JKL302 where a nontrivial ``g`` of ``group`` does not map
    ``kernel``'s rule table onto itself: its element map joins elements
    of different field lists, or the instances of some label ``L``,
    renamed by ``g``, are not those of ``g(L)``."""
    layout = kernel.layout
    by_label: dict[str, set] = {}
    for rule in kernel.table.rules:
        by_label.setdefault(rule.label, set()).add(_normal(rule))
    for g in group:
        image = layout.image(g)
        broken = sorted(
            e.name for e in layout.parts
            if e not in image or _signature(layout, e) != _signature(layout, image[e])
        )
        if broken:
            return [Finding(
                "JKL302",
                Severity.ERROR,
                "model/layout",
                f"pid_map={list(g.pid_map)} tid_map={list(g.tid_map)} "
                f"moves elements {broken[:4]} onto elements with other "
                "fields: the packed layout does not respect the "
                "permutation action",
                data={"permutation": g.as_dict(), "elements": broken[:4]},
            )]
        maps = {s: g.renaming(s) for s in set(layout.sort.values()) if s}
        for label, instances in by_label.items():
            target = g.apply_label(label)
            renamed = {_renamed(inst, layout, image, maps) for inst in instances}
            if renamed != by_label.get(target, set()):
                return [Finding(
                    "JKL302",
                    Severity.ERROR,
                    "model/rules",
                    f"the rule instances emitting {label!r}, renamed by "
                    f"pid_map={list(g.pid_map)} tid_map={list(g.tid_map)}, "
                    f"are not those emitting {target!r}: the rule table "
                    "is not equivariant",
                    data={"permutation": g.as_dict(), "label": label, "image": target},
                )]
    return []


# -- the certifier -------------------------------------------------------


def certify(
    config: Config,
    variant: ProtocolVariant,
    *,
    model: Any = None,
) -> tuple[ReductionCertificate | None, list[Finding]]:
    """Attempt to certify symmetry + independence for ``config``.

    Returns ``(certificate, findings)``: a
    :class:`~repro.staticcheck.certificates.ReductionCertificate` and
    the (possibly empty) list of findings. On any ERROR finding the
    certificate is ``None`` — certification is refused, never degraded.

    ``model`` defaults to the probe-enabled model of the configuration
    (probes are part of the Requirement-3 vocabulary, so the proof
    covers their rules); pass a model instance to certify a mutated
    build, as the CI mutation smoke does. The proof and the slice are
    read off that model's kernel. The work is a ``certify`` span of the
    active tracer.
    """
    with _current_tracer().span("certify"):
        from repro.staticcheck.certificates import ReductionCertificate
        from repro.staticcheck.formulasym import (
            formulas_section,
            vocabulary_findings,
        )
        from repro.staticcheck.slicing import _slices_section

        group = admissible_group(config)
        nontrivial = tuple(g for g in group if not g.is_identity)
        if not nontrivial:
            return None, [
                Finding(
                    "JKL301",
                    Severity.ERROR,
                    f"config/{config.describe()}",
                    "only the identity permutation is admissible for this "
                    "topology: there is no symmetry to reduce by",
                )
            ]
        if model is None:
            model = JackalModel(replace(config, with_probes=True), variant)
        kernel = model.kernel()
        # every pass below emits ERRORs only: any finding refuses
        findings = _rule_findings(kernel, nontrivial)
        if findings:
            return None, findings
        # formula-directed passes: the requirement formulas must be
        # closed under the certified group, and the cone-of-influence
        # field slice must be a congruence, each with its own refusals
        findings = formulas_section(config)
        if not findings:
            findings = vocabulary_findings(model, config, nontrivial)
        dropped, slice_findings = _slices_section(kernel)
        findings.extend(slice_findings)
        if findings:
            return None, findings
        cert = ReductionCertificate(
            replace(config, with_probes=False), variant, nontrivial, dropped
        )
        return cert, findings


def certified(
    config: Config, variant: ProtocolVariant
) -> ReductionCertificate:
    """:func:`certify`'s certificate, or :class:`~repro.errors.ReproError`
    naming the findings that refused it: for callers that reduce or
    fail, never sweep unreduced instead."""
    cert, findings = certify(config, variant)
    if cert is None:
        raise ReproError(
            f"{config.describe()} ({variant.describe()}) cannot be "
            "certified: " + "; ".join(f.render() for f in findings)
        )
    return cert
