"""Cone-of-influence slicing over packed state fields.

The independence pass (:mod:`repro.staticcheck.independence`) already
assigns every label class a read/write footprint over *coarse* atoms —
whole structures like ``copy[p]`` or ``rq[p]``. This pass refines each
structure into its packed sub-fields (the bit fields of the frontier
kernel's :class:`~repro.jackal.kernel.Layout`) and builds a
field-level dependency graph:

* the **guard set** of a class — the fine fields its enabling condition
  and emitted label can observe;
* its **flows** — for each fine field the class writes, the fine fields
  the written value is computed from.

The backward closure from the fields observable by a requirement's
formulas then yields the *cone of influence*: every field that can ever
influence an observable label or a field in the cone. Whatever falls
outside is sliceable — projecting it to a fixed value is a congruence
of the transition system (projection commutes with stepping), hence a
strong bisimulation: verdicts of *all* µ-calculus requirements,
liveness included, are preserved on the projected system.

For the Jackal spec the analysis finds exactly the ``rstate`` family
(``copy.rstate``, ``rq.rstate``, ``rqa.rstate``, ``mig.rstate``):
read-state bookkeeping the protocol threads through messages and copy
rows but that no guard ever reads and no kept field is ever computed
from — it only flows into itself. Every requirement formula closes
over ``T*`` (any-action paths), and Requirements 1 and 2 observe the
whole transition relation, so every label class is observable for
every requirement: one cone over all classes is every requirement's
slice, and the certificate's ``slice_fields`` are what the backends
project by.

Trust chain (all refusals are **JKL403**):

* :func:`_refutations` statically checks the dropped set against the
  flow table — a guard reading a dropped field, or a dropped
  field flowing into a kept one, refuses the slice;
* :func:`selftest_findings` replays the congruence on a bounded
  breadth-first sample: ``successors(project(s))`` must equal
  ``project(successors(s))`` label-for-label (static analysis never
  builds an LTS — this samples exactly like the equivariance
  self-test).
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Iterable

from repro.staticcheck.findings import Finding, Severity
from repro.staticcheck.independence import STAR, parse_label

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.jackal.params import Config

#: every packed sub-field, index-uniform (a slice drops a field at
#: every processor/thread index, so projection commutes with the
#: certified permutations by construction)
UNIVERSE: tuple[str, ...] = (
    "thr.phase",
    "thr.reg",
    "thr.aho",
    "thr.wdone",
    "thr.rounds",
    "thr.dirty",
    "copy.home",
    "copy.rstate",
    "copy.wl",
    "copy.lt",
    "hq.slot",
    "hqa.slot",
    "rq.core",
    "rq.wl",
    "rq.rstate",
    "rqa.core",
    "rqa.wl",
    "rqa.rstate",
    "lock.srv",
    "lock.flt",
    "lock.fls",
    "mig.wl",
    "mig.rstate",
)

#: the read-state bookkeeping family — candidates the flow analysis
#: may prove sliceable (and, for the shipped spec, does)
RSTATE_FIELDS = frozenset(
    ("copy.rstate", "rq.rstate", "rqa.rstate", "mig.rstate")
)

#: coarse structure -> the fine fields a *guard* over that structure
#: can observe. ``rstate`` members are deliberately absent: no Jackal
#: guard reads them (the dynamic self-test would expose a lie here as
#: a JKL403 congruence counterexample). ``migpend`` is the pending-
#: migration predicate, a disjunction over mig/rq/rqa cores.
_COARSE_FIELDS: dict[str, tuple[str, ...]] = {
    "thr": (
        "thr.phase",
        "thr.reg",
        "thr.aho",
        "thr.wdone",
        "thr.rounds",
        "thr.dirty",
    ),
    "copy": ("copy.home", "copy.wl", "copy.lt"),
    "hq": ("hq.slot",),
    "hqa": ("hqa.slot",),
    "rq": ("rq.core", "rq.wl"),
    "rqa": ("rqa.core", "rqa.wl"),
    "lock": ("lock.srv", "lock.flt", "lock.fls"),
    "mig": ("mig.wl",),
    "migpend": ("mig.wl", "rq.core", "rqa.core"),
}

#: structure -> its rstate member (for the generic self-flow)
_STRUCT_RSTATE = {
    "copy": "copy.rstate",
    "rq": "rq.rstate",
    "rqa": "rqa.rstate",
    "mig": "mig.rstate",
}

#: where rstate values *cross* structures: class -> {dst: extra srcs}.
#: These document the real dataflow — a data return carries the home
#: copy's rstate, queue moves and signals thread it onward — and let
#: :func:`_refutations` prove the family closed: rstate flows only
#: into rstate.
_RSTATE_XFLOWS: dict[str, dict[str, tuple[str, ...]]] = {
    "send_dataret": {"rq.rstate": ("copy.rstate",)},
    "send_dataret_mig": {"rq.rstate": ("copy.rstate",)},
    "flush_home_migrate": {"mig.rstate": ("copy.rstate",)},
    "flush_recv_migrate": {"mig.rstate": ("copy.rstate",)},
    "lock_remotequeue": {"rqa.rstate": ("rq.rstate",)},
    "signal": {"copy.rstate": ("rqa.rstate",)},
    "recv_sponmigrate": {"copy.rstate": ("mig.rstate",)},
}

_FULL = frozenset(UNIVERSE)


def _expand(atoms: Iterable[tuple[str, int]]) -> frozenset[str]:
    out: set[str] = set()
    for kind, _idx in atoms:
        out.update(_COARSE_FIELDS.get(kind, ()))
    return frozenset(out)


def fine_footprint(
    label: str, config: "Config"
) -> tuple[frozenset[str], frozenset[str]]:
    """``(guard, writes)`` fine-field sets of one label class.

    The guard set covers everything the enabling condition *and* the
    emitted label parameters can observe; writes cover every field a
    transition of the class may assign. Indices are dropped — the
    slice is index-uniform. Assertion checks read every non-rstate
    field (their guards compare phases, regions, owners and counters,
    never read-state bookkeeping — verified by the congruence
    self-test); unknown classes fail safe with the full universe,
    which forces the closure to keep everything.
    """
    from repro.staticcheck.independence import label_footprint

    name = parse_label(label)[0]
    reads, writes = label_footprint(label, config)
    if STAR in reads or STAR in writes:
        if name == "assertion_violation":
            return _FULL - RSTATE_FIELDS, frozenset()
        return _FULL, _FULL
    fine_reads = _expand(reads)
    fine_writes = set(_expand(writes))
    for kind, _idx in writes:
        rs = _STRUCT_RSTATE.get(kind)
        if rs is not None:
            fine_writes.add(rs)
    return fine_reads, frozenset(fine_writes)


def class_flows(
    label: str, config: "Config"
) -> dict[str, frozenset[str]]:
    """``{written field: fields its new value is computed from}``.

    Kept fields are conservatively computed from the whole guard set
    (control dependence included); rstate fields only from their own
    family (self-flow plus the documented cross-flows).
    """
    name = parse_label(label)[0]
    guard, writes = fine_footprint(label, config)
    xflows = _RSTATE_XFLOWS.get(name, {})
    flows: dict[str, frozenset[str]] = {}
    for dst in writes:
        if dst in RSTATE_FIELDS and guard.isdisjoint(RSTATE_FIELDS):
            flows[dst] = frozenset((dst,)) | frozenset(xflows.get(dst, ()))
        else:
            flows[dst] = guard | frozenset(xflows.get(dst, ()))
    return flows


def _label_classes(config: "Config") -> tuple[str, ...]:
    """One representative label per class of ``config``'s vocabulary
    (the union over both Error-1 spellings, probe labels included)."""
    from repro.jackal.model import JackalModel
    from repro.jackal.params import ProtocolVariant
    from repro.staticcheck.labelcheck import model_labels

    labels: set[str] = set()
    for variant in (ProtocolVariant.fixed(), ProtocolVariant.error1()):
        labels |= model_labels(
            JackalModel(replace(config, with_probes=True), variant)
        )
    seen: dict[str, str] = {}
    for label in sorted(labels):
        seen.setdefault(parse_label(label)[0], label)
    return tuple(seen[name] for name in sorted(seen))


def _cone(config, classes):
    """``(kept, dropped)`` fine fields of ``config``'s label ``classes``.

    Seeds the closure with the guard sets of every class (all are
    observable) and saturates over the flow graph: a field in the cone
    pulls in every field it is computed from.
    """
    guards = {c: fine_footprint(c, config)[0] for c in classes}
    flows = {c: class_flows(c, config) for c in classes}
    relevant: set[str] = set()
    for c in classes:
        relevant |= guards[c]
    changed = True
    while changed:
        changed = False
        for c in classes:
            for dst, srcs in flows[c].items():
                if dst in relevant and not srcs <= relevant:
                    relevant |= srcs
                    changed = True
    kept = frozenset(relevant)
    return kept, _FULL - kept


def _refutations(config, classes, dropped) -> list[Finding]:
    """JKL403 findings refuting a dropped-field set.

    A slice is sound iff no guard of ``classes`` observes a dropped
    field and no dropped field flows into a kept one, both read off
    the flow table (:func:`fine_footprint`, :func:`class_flows`).
    """
    dropped = frozenset(dropped)
    findings: list[Finding] = []
    unknown = dropped - _FULL
    if unknown:
        findings.append(
            Finding(
                "JKL403",
                Severity.ERROR,
                "slice/fields",
                f"dropped fields {sorted(unknown)} are not packed state "
                "fields of this spec",
                data={"expected": sorted(_FULL), "found": sorted(unknown)},
            )
        )
        return findings
    for cls in classes:
        name = parse_label(cls)[0]
        guard, _writes = fine_footprint(cls, config)
        hit = sorted(guard & dropped)
        if hit:
            findings.append(
                Finding(
                    "JKL403",
                    Severity.ERROR,
                    f"slice/{name}",
                    f"guard of class {name!r} observes dropped "
                    f"field(s) {hit}: projecting them changes "
                    "enabledness, the slice is not a congruence",
                    data={"class": name, "expected": [], "found": hit},
                )
            )
            continue
        for dst, srcs in class_flows(cls, config).items():
            if dst in dropped:
                continue
            leak = sorted(srcs & dropped)
            if leak:
                findings.append(
                    Finding(
                        "JKL403",
                        Severity.ERROR,
                        f"slice/{name}",
                        f"class {name!r} computes kept field {dst!r} "
                        f"from dropped field(s) {leak}: the projection "
                        "loses information the transition relation "
                        "depends on",
                        data={
                            "class": name,
                            "field": dst,
                            "expected": [],
                            "found": leak,
                        },
                    )
                )
    return findings


def _slices_section(
    config: "Config",
) -> tuple[frozenset[str], list[Finding]]:
    """``(dropped, findings)``: the fields outside the cone of influence
    of ``config``'s label classes, and the JKL403 refutations of
    dropping them (none on the shipped spec)."""
    classes = _label_classes(config)
    _kept, dropped = _cone(config, classes)
    return dropped, _refutations(config, classes, dropped)


def selftest_findings(
    model: object,
    dropped: Iterable[str],
    *,
    max_states: int = 200,
    max_findings: int = 3,
) -> list[Finding]:
    """JKL403 congruence counterexamples on a bounded state sample.

    For sampled ``s``, stepping then projecting must equal projecting
    then stepping, label-for-label — the dynamic witness that the
    static flow table told the truth. Samples via the model's
    successor function only (never the exploration machinery).
    """
    from repro.staticcheck.symmetry import _sample_states

    dropped = frozenset(dropped)
    if not dropped:
        return []
    codec = model.codec()  # type: ignore[attr-defined]
    project = codec.projector(dropped)
    findings: list[Finding] = []
    for state in _sample_states(model, max_states):
        if len(state) != 8:
            continue
        projected = project(state)
        expected = sorted(
            (lbl, codec.encode(project(ns)))
            for lbl, ns in model.successors(state)  # type: ignore[attr-defined]
        )
        actual = sorted(
            (lbl, codec.encode(project(ns)))
            for lbl, ns in model.successors(projected)  # type: ignore[attr-defined]
        )
        if expected != actual:
            exp_labels = [lbl for lbl, _ in expected]
            act_labels = [lbl for lbl, _ in actual]
            diff = sorted(
                set(exp_labels).symmetric_difference(act_labels)
            ) or ["<same labels, different targets>"]
            findings.append(
                Finding(
                    "JKL403",
                    Severity.ERROR,
                    "slice/congruence",
                    "slice projection is not a congruence: stepping a "
                    "projected state and projecting the successors "
                    f"disagree at a sampled state (dropped="
                    f"{sorted(dropped)}, mismatched labels: {diff[:4]})",
                    data={
                        "dropped": sorted(dropped),
                        "mismatched_labels": diff[:4],
                    },
                )
            )
            if len(findings) >= max_findings:
                return findings
    return findings
