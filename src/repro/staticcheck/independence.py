"""Static independence analysis over summand read/write footprints.

Every transition label of :class:`~repro.jackal.model.JackalModel`
belongs to a *class* (the rule that emits it) whose read and write
footprint over the packed state fields is known statically — the
frontier kernel's :class:`~repro.jackal.kernel.Layout` is the ground
truth for what a "field" is. Two transitions *may commute* when
neither writes an atom the other reads or writes; that relation is
what the ample-set pruner in :mod:`repro.lts.certreduce` consults,
computing each footprint from the label itself
(:func:`label_footprint`).

Atoms are per-index field slots: ``thr[t]``, ``copy[p]`` (one
processor's whole copy row — regions are few and rules touch one row
at a time), ``hq[p]``, ``hqa[p]``, ``rq[p]``, ``rqa[p]``, ``lock[p]``,
``mig[p]``, plus one *predicate atom*:

``migpend[p]``
    "a migration is pending at ``p``" — the disjunction the home-queue
    take guards on (a mig-flagged Data Return in ``rq[p]``/``rqa[p]``
    or a loaded migration slot). It is its own atom so that
    ``lock_remotequeue(p)``, which moves a message from ``rq[p]`` to
    ``rqa[p]`` *preserving the predicate*, is independent of the
    home-queue take that reads it. Only rules that can flip the
    predicate write it.

Unknown labels and assertion violations get the conservative ``TOP``
footprint (conflicts with everything), so new rules fail safe: they
are never pruned against until given an explicit footprint here.

Safe classes (candidates for singleton ample sets) are the two queue
takes. ``lock_remotequeue(p)`` is *persistent*: nothing can disable
``rqa[p] == 0 ∧ rq[p] ≠ 0`` (a Data Return only enters an *empty*
``rq``, and only ``signal`` — which requires ``rqa ≠ 0`` — consumes
one). ``lock_homequeue(p)`` additionally guards on ``¬migpend[p]``,
which a remote ``send_dataret_mig`` can flip, so its soundness as an
ample candidate is gated empirically: the test suite checks verdict
equality between reduced and unreduced sweeps on fixed *and* error
variants, and the class must be dropped here if any verdict drifts.
"""

from __future__ import annotations

import re

from repro.jackal.params import Config

#: the conflicts-with-everything atom (assertions, unknown labels)
STAR = ("*", 0)
TOP = frozenset((STAR,))

#: classes eligible as singleton ample sets, in priority order
SAFE_CLASSES = ("lock_remotequeue", "lock_homequeue")

_LABEL = re.compile(r"^([a-z0-9_]+)(?:\((.*)\))?$")

#: a field slot — ``("thr", 1)``; the index is ``None`` for the rare
#: thread-indexed atoms of a label that carries no thread argument
Atom = tuple[str, "int | None"]

#: ``(reads, writes)`` atom sets of one transition label
Footprint = tuple[frozenset[Atom], frozenset[Atom]]


def parse_label(label: str) -> tuple[str, list[int], list[int]]:
    """``(class, thread_args, processor_args)`` of a model label.

    ``signal(t1,p0)`` → ``("signal", [1], [0])``. Non-index arguments
    (assertion names) yield no indices; the class still resolves.
    """
    m = _LABEL.match(label)
    if m is None:
        return label, [], []
    name, args = m.group(1), m.group(2)
    ts: list[int] = []
    ps: list[int] = []
    for arg in (args or "").split(","):
        arg = arg.strip()
        if re.fullmatch(r"t\d+", arg):
            ts.append(int(arg[1:]))
        elif re.fullmatch(r"p\d+", arg):
            ps.append(int(arg[1:]))
    return name, ts, ps


def label_footprint(label: str, config: Config) -> Footprint:
    """``(reads, writes)`` atom sets of one concrete label.

    Conservative by construction: a superset footprint is always
    sound (it can only suppress pruning), so rules with variant- or
    phase-dependent behaviour carry the union of their paths.
    """
    name, ts, ps = parse_label(label)
    t = ts[0] if ts else None
    tp = config.processor_of(t) if t is not None else None

    def thr(i: int | None) -> Atom:
        return ("thr", i)

    def copy(i: int | None) -> Atom:
        return ("copy", i)

    if name in ("write", "flush"):
        # thread starts a write/flush: phase change + lock enqueue
        return (
            frozenset((thr(t), copy(tp), ("lock", tp))),
            frozenset((thr(t), ("lock", tp))),
        )
    if name in ("writeover", "flushover"):
        fp = frozenset((thr(t), copy(tp), ("lock", tp)))
        return fp, fp
    if name in ("restart_write", "fault_to_server"):
        return (
            frozenset((thr(t), copy(tp), ("lock", tp))),
            frozenset((thr(t), ("lock", tp))),
        )
    if name == "stale_remote_wait":
        return frozenset((thr(t), copy(tp))), frozenset((thr(t),))
    if name in ("lock_server", "lock_fault"):
        p = ps[0]
        return (
            frozenset((thr(t), ("lock", p))),
            frozenset((thr(t), ("lock", p))),
        )
    if name == "lock_flush":
        p = ps[0]
        return (
            frozenset(
                (
                    thr(t),
                    ("lock", p),
                    ("hq", p),
                    ("rq", p),
                    ("hqa", p),
                    ("rqa", p),
                    ("mig", p),
                )
            ),
            frozenset((thr(t), ("lock", p))),
        )
    if name == "send_datareq":
        s, d = ps
        return (
            frozenset((thr(t), copy(s), ("hq", d))),
            frozenset((thr(t), ("hq", d))),
        )
    if name == "send_flush":
        s, d = ps
        return (
            frozenset((thr(t), copy(s), ("hq", d))),
            frozenset((thr(t), copy(s), ("hq", d))),
        )
    if name == "flush_home":
        p = ps[0]
        fp = frozenset((thr(t), copy(p)))
        return fp, fp
    if name == "flush_home_migrate":
        p, d = ps
        return (
            frozenset((thr(t), copy(p), ("mig", d))),
            frozenset((thr(t), copy(p), ("mig", d), ("migpend", d))),
        )
    if name == "lock_homequeue":
        p = ps[0]
        return (
            frozenset((("hq", p), ("hqa", p), ("migpend", p))),
            frozenset((("hq", p), ("hqa", p))),
        )
    if name == "lock_remotequeue":
        p = ps[0]
        fp = frozenset((("rq", p), ("rqa", p)))
        return fp, fp
    if name in ("forward_req", "forward_flush"):
        p, d = ps
        return (
            frozenset((("hqa", p), copy(p), ("hq", d))),
            frozenset((("hqa", p), ("hq", d))),
        )
    if name == "send_dataret":
        p, d = ps
        return (
            frozenset((("hqa", p), copy(p), ("rq", d))),
            frozenset((("hqa", p), copy(p), ("rq", d))),
        )
    if name == "send_dataret_mig":
        p, d = ps
        return (
            frozenset((("hqa", p), copy(p), ("rq", d))),
            frozenset((("hqa", p), copy(p), ("rq", d), ("migpend", d))),
        )
    if name == "flush_recv":
        p = ps[0]
        fp = frozenset((("hqa", p), copy(p)))
        return fp, fp
    if name == "flush_recv_migrate":
        p, d = ps
        return (
            frozenset((("hqa", p), copy(p), ("mig", d))),
            frozenset((("hqa", p), copy(p), ("mig", d), ("migpend", d))),
        )
    if name == "recv_sponmigrate":
        p = ps[0]
        local = tuple(thr(i) for i in config.thread_ids_of(p))
        fp = frozenset((("mig", p), copy(p), ("migpend", p)) + local)
        return fp, fp
    if name == "signal":
        p = ps[0]
        return (
            frozenset((thr(t), copy(p), ("rqa", p))),
            frozenset((thr(t), copy(p), ("rqa", p), ("migpend", p))),
        )
    if name in ("c_home", "c_copy"):
        reads = frozenset(copy(p) for p in range(config.n_processors))
        return reads, frozenset()
    if name == "lock_empty":
        reads = frozenset(
            (kind, p)
            for p in range(config.n_processors)
            for kind in ("lock", "hqa", "rqa")
        )
        return reads, frozenset()
    if name == "homequeue_empty":
        reads = frozenset(
            (kind, p)
            for p in range(config.n_processors)
            for kind in ("hq", "mig")
        )
        return reads, frozenset()
    if name == "remotequeue_empty":
        return (
            frozenset(("rq", p) for p in range(config.n_processors)),
            frozenset(),
        )
    # assertion_violation(...) and anything unrecognised
    return TOP, TOP


def may_commute(fp_a: Footprint, fp_b: Footprint) -> bool:
    """Whether two footprints prove their transitions independent:
    neither writes an atom the other reads or writes."""
    reads_a, writes_a = fp_a
    reads_b, writes_b = fp_b
    if STAR in writes_a or STAR in writes_b:
        return False
    return not (
        writes_a & (reads_b | writes_b) or writes_b & reads_a
    )


def is_safe(label: str) -> bool:
    """Eligible as a singleton ample set (invisible by construction)."""
    return parse_label(label)[0] in SAFE_CLASSES
