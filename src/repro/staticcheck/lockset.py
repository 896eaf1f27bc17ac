"""Lockset dataflow over the thread phase graph of the rule table.

A thread moves through the phases of :class:`~repro.jackal.model.Phase`;
each move acquires, releases or waits on some of the protocol lock
slots of its processor. :func:`phase_graph` projects the frontier
kernel's rule table (:mod:`repro.jackal.kernel`) — the relation every
sweep runs — onto that thread-local view: nodes are phases, edges are
rule instances annotated with their lock effects. The projection reads
guards and updates, never states, which is what lets ``repro lint``
reason about lock discipline in milliseconds where the LTS takes
minutes.

A forward fixpoint from IDLE computes, for every reachable phase, the
*may*-held and *must*-held sets of protocol lock slots (union / meet
over all paths, the classic gen-kill lattice). The checks then read the
fixpoint:

* **JKL001** — a rule acquires a slot its thread must already hold;
* **JKL002** — a rule releases a slot that may (or must) be free;
* **JKL003** — IDLE is reachable with a lock possibly still held
  (acquire/release imbalance around the write/flush cycle);
* **JKL004** — a rule enqueues the thread on a lock while it still
  holds a slot whose holder that lock's grant instances require free
  (self-deadlock by the lock manager's own exclusion rules);
* **JKL005** — a home-side operation fires in a phase where the thread
  must hold the *fault* lock and cannot hold the server or flush lock.
  This is the static signature of the paper's **Error 1**: the thread
  took the fault lock for a remote write, the region's home migrated to
  its own processor underneath it, and it continues down the
  remote-write path — at-home work under the wrong lock;
* **JKL006** — a phase no rule path can reach from IDLE (dead phase).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import IntEnum
from typing import Mapping

from repro.jackal.kernel import Bits, Raise
from repro.jackal.model import Phase
from repro.staticcheck.findings import Finding, Severity


class LockSlot(IntEnum):
    """The three per-processor protocol locks a thread can hold: the
    ``srv``, ``flt`` and ``fls`` holders of the kernel's ``locks{p}``
    element (their waiter masks are what :attr:`PhaseRule.waits`
    tracks)."""

    SERVER = 0
    FAULT = 1
    FLUSH = 2

    def __str__(self) -> str:
        return self.name.lower()


#: the lock slot of each ``locks{p}`` field's prefix
_SLOTS = {"srv": LockSlot.SERVER, "flt": LockSlot.FAULT, "fls": LockSlot.FLUSH}


@dataclass(frozen=True)
class PhaseRule:
    """One rule as seen by a single thread.

    Attributes
    ----------
    name:
        The rule's :attr:`~repro.jackal.kernel.Rule.name`.
    src, dst:
        Thread phase before and after the rule fires.
    acquires, releases:
        Lock slots whose *holder* field this rule takes or frees.
    waits:
        Lock slots this rule enqueues the thread on (the grant arrives
        later through a separate lock-manager rule).
    home_side:
        True when the rule's guard finds the thread's processor the
        home of one of its copies and the rule keeps the fault lock:
        work the protocol serialises through the server lock (or the
        flush lock, whose grant excludes every other lock holder).
    """

    name: str
    src: Phase
    dst: Phase
    acquires: frozenset = frozenset()
    releases: frozenset = frozenset()
    waits: frozenset = frozenset()
    home_side: bool = False

    def describe(self) -> str:
        return f"{self.src.name} -[{self.name}]-> {self.dst.name}"


@dataclass(frozen=True)
class PhaseGraph:
    """The per-thread phase graph of one rule table, and per lock slot
    the held slots that keep its grant from firing."""

    rules: tuple[PhaseRule, ...]
    blockers: Mapping[LockSlot, frozenset]

    @property
    def phases(self) -> frozenset:
        out = {r.src for r in self.rules} | {r.dst for r in self.rules}
        return frozenset(out)

    def rules_from(self, phase: Phase) -> tuple[PhaseRule, ...]:
        return tuple(r for r in self.rules if r.src == phase)


def phase_graph(kernel) -> PhaseGraph:
    """The thread phase graph of ``kernel``'s rule table.

    For each thread ``t`` on processor ``p``, an instance whose guard
    fixes ``t``'s phase to ``s`` is an edge from ``s`` to the phase it
    writes (``s`` where it writes none). Its lock effects are its
    writes to ``locks{p}``: a holder set to 0 is released, set to
    ``t + 1`` acquired, and a waiter mask raising ``t``'s bit is waited
    on. A lock grant tests the waiter bit, not the phase: its sources
    are the destinations of the edges that raise that bit, and the
    holders its guard requires free block that slot. An edge is
    home-side when its guard holds one of ``p``'s copies at home on
    ``p`` and it keeps the fault lock. The edges are the union over the
    threads, without duplicates, in rank order.
    """
    edges: dict[PhaseRule, None] = {}
    blockers: dict[LockSlot, frozenset] = {}
    for t, th in enumerate(kernel.th):
        p = kernel.model.pid_of[t]
        locks: dict = {}  # field -> (slot, "h" holder | "w" waiter mask)
        for f in kernel.layout.parts[kernel.lk[p].all]:
            kind, _, role = f.name.rpartition(".")[2].partition("_")
            locks[f] = _SLOTS[kind], role
        home = {(cp.home, "==", p) for cp in kernel.cp[p]}
        waited: dict[LockSlot, set] = {slot: set() for slot in LockSlot}
        grants: list = []
        for rule in kernel.table.rules:
            if type(rule.updates) is not tuple:
                continue  # a Fail raises and a sink ends the run
            acq, rel, wait = set(), set(), set()
            dst: Phase | None = None
            for f, value in rule.updates:
                if f is th.phase:
                    dst = Phase(value)
                elif f in locks:
                    slot, role = locks[f]
                    if role == "w":
                        if isinstance(value, Raise) and value.bits == 1 << t:
                            wait.add(slot)
                    elif value == t + 1:
                        acq.add(slot)
                    elif value == 0:
                        rel.add(slot)
            edge = PhaseRule(
                rule.name, Phase.IDLE, Phase.IDLE, frozenset(acq),
                frozenset(rel), frozenset(wait),
                bool(home.intersection(rule.guard)) and LockSlot.FAULT not in rel,
            )
            for lhs, op, value in rule.guard:
                if lhs is th.phase and op == "==":
                    src = Phase(value)
                    edge = replace(edge, src=src, dst=src if dst is None else dst)
                    edges[edge] = None
                    for slot in wait:
                        waited[slot].add(edge.dst)
                elif (isinstance(lhs, Bits) and lhs.field in locks
                      and lhs.mask == value == 1 << t and dst is not None):
                    slot = locks[lhs.field][0]
                    grants.append((slot, replace(edge, dst=dst)))
                    blockers[slot] = blockers.get(slot, frozenset()) | {
                        locks[f][0] for f, op, v in rule.guard
                        if f in locks and locks[f][1] == "h" and op == "==" and v == 0
                    }
        for slot, edge in grants:
            for src in sorted(waited[slot]):
                edges[replace(edge, src=src)] = None
    return PhaseGraph(rules=tuple(edges), blockers=blockers)


def _fmt(slots: frozenset[LockSlot]) -> str:
    if not slots:
        return "{}"
    return "{" + ", ".join(str(s) for s in sorted(slots)) + "}"


@dataclass(frozen=True)
class LocksetResult:
    """The dataflow fixpoint: per-phase may/must locksets."""

    may: dict
    must: dict

    def reachable(self) -> frozenset:
        return frozenset(self.may)


def compute_locksets(graph: PhaseGraph) -> LocksetResult:
    """Forward fixpoint from ``Phase.IDLE`` with empty locksets.

    Transfer of a rule: ``out = (in - releases) | acquires``. Waits do
    not change held slots (the matching grant rule performs the
    acquire). ``may`` joins by union, ``must`` by intersection.
    """
    may: dict = {Phase.IDLE: frozenset()}
    must: dict = {Phase.IDLE: frozenset()}
    work = [Phase.IDLE]
    while work:
        p = work.pop()
        for rule in graph.rules_from(p):
            out_may = (may[p] - rule.releases) | rule.acquires
            out_must = (must[p] - rule.releases) | rule.acquires
            q = rule.dst
            if q not in may:
                may[q], must[q] = out_may, out_must
                work.append(q)
                continue
            new_may = may[q] | out_may
            new_must = must[q] & out_must
            if new_may != may[q] or new_must != must[q]:
                may[q], must[q] = new_may, new_must
                work.append(q)
    return LocksetResult(may=may, must=must)


def _check_rule(
    rule: PhaseRule, may_in: frozenset, must_in: frozenset, blockers: Mapping
) -> list[Finding]:
    out: list[Finding] = []
    loc = rule.describe()
    for s in sorted(rule.acquires):
        if s in must_in:
            out.append(
                Finding(
                    "JKL001",
                    Severity.ERROR,
                    loc,
                    f"acquires the {s} lock while already holding it "
                    f"(held on every path: {_fmt(must_in)})",
                )
            )
    for s in sorted(rule.releases):
        if s not in may_in:
            out.append(
                Finding(
                    "JKL002",
                    Severity.ERROR,
                    loc,
                    f"releases the {s} lock, which is free on every path "
                    f"into {rule.src.name}",
                )
            )
        elif s not in must_in:
            out.append(
                Finding(
                    "JKL002",
                    Severity.WARNING,
                    loc,
                    f"releases the {s} lock, which some path into "
                    f"{rule.src.name} arrives without "
                    f"(may={_fmt(may_in)}, must={_fmt(must_in)})",
                )
            )
    held_after = (must_in - rule.releases) | rule.acquires
    for w in sorted(rule.waits):
        blocked = blockers.get(w, frozenset()) & held_after
        if blocked:
            out.append(
                Finding(
                    "JKL004",
                    Severity.ERROR,
                    loc,
                    f"waits for the {w} lock while still holding "
                    f"{_fmt(blocked)}, which block(s) its grant: the "
                    "thread deadlocks against its own processor's lock "
                    "manager",
                )
            )
    if rule.home_side:
        safe = {LockSlot.SERVER, LockSlot.FLUSH}
        if LockSlot.FAULT in must_in and not (safe & must_in):
            out.append(
                Finding(
                    "JKL005",
                    Severity.ERROR,
                    loc,
                    "home-side operation with only the fault lock held "
                    f"(must={_fmt(must_in)}): the home migrated here "
                    "while the thread queued for a remote write and it "
                    "continues down the remote path — the paper's "
                    "Error 1 (the thread will wait for a Data Return "
                    "no one sends)",
                )
            )
    return out


def lint_locksets(graph: PhaseGraph) -> list[Finding]:
    """Run the dataflow and all JKL0xx checks over ``graph``."""
    result = compute_locksets(graph)
    findings: list[Finding] = []
    for rule in graph.rules:
        if rule.src not in result.may:
            continue  # only reachable rules are judged
        findings.extend(
            _check_rule(rule, result.may[rule.src], result.must[rule.src],
                        graph.blockers)
        )
    leftover = result.may.get(Phase.IDLE, frozenset())
    if leftover:
        findings.append(
            Finding(
                "JKL003",
                Severity.ERROR,
                Phase.IDLE.name,
                f"a write/flush cycle can return to IDLE still holding "
                f"{_fmt(leftover)} — acquire/release imbalance",
            )
        )
    reachable = result.reachable()
    for phase in sorted(graph.phases, key=int):
        if phase not in reachable:
            findings.append(
                Finding(
                    "JKL006",
                    Severity.WARNING,
                    phase.name,
                    "phase is unreachable from IDLE in the phase graph "
                    "(dead rule set)",
                )
            )
    return findings
