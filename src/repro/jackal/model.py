"""Executable state machine of the Jackal cache coherence protocol.

This module is the reproduction of the paper's 1800-line muCRL
specification: the parallel composition of threads, per-processor region
copies, home/remote message queues (capacity one), and protocol lock
managers, with automatic home node migration. It implements the
:class:`~repro.lts.explore.TransitionSystem` protocol, so all the
generation, reduction and model checking machinery applies directly.

State layout (all nested tuples of small ints, chosen for cheap hashing
during explicit-state exploration)::

    state = (threads, copies, hq, rq, hqa, rqa, locks, migs)

    threads[tid]   = (phase, reg, aho, writes_done, rounds_left, dirty)
    copies[p][r]   = (home, rstate, writer_mask, localthreads)
    hq[p] / rq[p]  = 0 or a message tuple
    hqa[p]/rqa[p]  = 0 (handler idle) or the message the handler took
                     out of its queue (it then holds the queue lock)
    locks[p]       = (srv_holder, srv_wait, flt_holder, flt_wait,
                      fls_holder, fls_wait)
    migs[p][r]     = 0 or (writer_mask, rstate): a Region Sponmigrate
                     in flight to processor p for region r. Migrations
                     travel in this dedicated control slot rather than
                     the home queue: at most one migration per region
                     can ever be in flight (only the home starts one,
                     and it stops being the home by doing so), so the
                     slot never blocks — which is what makes the
                     store-and-forward deadlock of blocking in-queue
                     migrations impossible (see docs/protocol.md).

Lock holders are ``tid + 1`` (0 = free); waiter sets are thread
bitmasks. Messages::

    (Msg.REQ,   tid, src, r)                       -> home queue
    (Msg.RET,   tid, sender, mig, wl, rstate, r)   -> remote queue
    (Msg.FLUSH, tid, src, r)                       -> home queue
    (Msg.MIG,   r, wl, rstate)                     -> migration slot

Protocol assertion violations (Requirement 2) are modelled as
transitions labelled ``assertion_violation(<name>)`` into a terminal
violation state, so that "no assertion is violated" is a plain
reachability question.
"""

from __future__ import annotations

from enum import IntEnum

from repro.errors import ModelError
from repro.jackal.actions import (
    C_COPY,
    C_HOME,
    HOMEQUEUE_EMPTY,
    LOCK_EMPTY,
    REMOTEQUEUE_EMPTY,
    Labels,
)
from repro.jackal.params import Config, ProtocolVariant


class Phase(IntEnum):
    """Thread phases."""

    IDLE = 0
    WANT_SERVER = 1
    HAVE_SERVER = 2
    WANT_FAULT = 3
    HAVE_FAULT = 4
    WAIT_DATA = 5
    REMOTE_READY = 6
    WANT_FLUSH = 7
    HAVE_FLUSH = 8
    LOCAL = 9
    #: adaptive-lazy-flushing fast paths (variant extension, paper §4.5)
    ALF_WRITE = 10
    ALF_FLUSH = 11


class RegionState(IntEnum):
    """Region states after the paper's abstraction (Section 5.2.2)."""

    UNUSED = 0
    USED = 1


class Msg(IntEnum):
    """Message kinds (Section 5.2.3 of the paper)."""

    REQ = 0  # Data Request
    RET = 1  # Data Return
    FLUSH = 2  # Flush
    MIG = 3  # Region Sponmigrate


#: terminal state reached by assertion violations
VIOLATION = ("VIOLATION",)

# lock tuple slots
_SRV_H, _SRV_W, _FLT_H, _FLT_W, _FLS_H, _FLS_W = range(6)


def _set(t: tuple, i: int, v) -> tuple:
    """Functional update of tuple ``t`` at index ``i``."""
    return t[:i] + (v,) + t[i + 1 :]


def _is_pow2(x: int) -> bool:
    return x != 0 and (x & (x - 1)) == 0


class JackalModel:
    """The protocol as an explorable transition system.

    Parameters
    ----------
    config:
        Processor/thread/region topology and exploration options.
    variant:
        Which bug fixes are active (default: the repaired protocol).
    check_assertions:
        Emit ``assertion_violation(...)`` transitions (Requirement 2).
        Disable to reproduce the paper's pre-assertion state counts.
    """

    def __init__(
        self,
        config: Config = Config(),
        variant: ProtocolVariant = ProtocolVariant.fixed(),
        *,
        check_assertions: bool = True,
    ):
        self.config = config
        self.variant = variant
        self.check_assertions = check_assertions
        self.n_proc = config.n_processors
        self.n_threads = config.n_threads
        self.n_regions = config.n_regions
        self.pid_of = tuple(config.processor_of(t) for t in range(self.n_threads))
        self.threads_on = tuple(
            tuple(config.thread_ids_of(p)) for p in range(self.n_proc)
        )
        self._rounds0 = -1 if config.rounds is None else config.rounds
        self._W = config.writes_per_round
        self._precompute_labels()

    # -- label tables ------------------------------------------------------

    def _precompute_labels(self) -> None:
        T, P = self.n_threads, self.n_proc
        L = Labels
        self.lbl_write = [L.write(t) for t in range(T)]
        self.lbl_writeover = [L.writeover(t) for t in range(T)]
        self.lbl_flush = [L.flush(t) for t in range(T)]
        self.lbl_flushover = [L.flushover(t) for t in range(T)]
        self.lbl_restart = [L.restart_write(t) for t in range(T)]
        self.lbl_f2s = [L.fault_to_server(t) for t in range(T)]
        self.lbl_stale = [L.stale_remote_wait(t) for t in range(T)]
        self.lbl_lock_srv = [[L.lock_server(t, p) for p in range(P)] for t in range(T)]
        self.lbl_lock_flt = [[L.lock_fault(t, p) for p in range(P)] for t in range(T)]
        self.lbl_lock_fls = [[L.lock_flush(t, p) for p in range(P)] for t in range(T)]
        self.lbl_sreq = [
            [[L.send_datareq(t, s, d) for d in range(P)] for s in range(P)]
            for t in range(T)
        ]
        self.lbl_sret = [[L.send_dataret(p, d) for d in range(P)] for p in range(P)]
        self.lbl_sretm = [
            [L.send_dataret_mig(p, d) for d in range(P)] for p in range(P)
        ]
        self.lbl_sflush = [
            [[L.send_flush(t, s, d) for d in range(P)] for s in range(P)]
            for t in range(T)
        ]
        self.lbl_fwd_req = [[L.forward_req(p, d) for d in range(P)] for p in range(P)]
        self.lbl_fwd_flush = [
            [L.forward_flush(p, d) for d in range(P)] for p in range(P)
        ]
        self.lbl_signal = [[L.signal(t, p) for p in range(P)] for t in range(T)]
        self.lbl_mig = [L.recv_sponmigrate(p) for p in range(P)]
        self.lbl_frecv = [L.flush_recv(p) for p in range(P)]
        self.lbl_frecv_mig = [
            [L.flush_recv_migrate(p, d) for d in range(P)] for p in range(P)
        ]
        self.lbl_fhome = [[L.flush_home(t, p) for p in range(P)] for t in range(T)]
        self.lbl_fhome_mig = [
            [[L.flush_home_migrate(t, p, d) for d in range(P)] for p in range(P)]
            for t in range(T)
        ]
        self.lbl_hql = [L.lock_homequeue(p) for p in range(P)]
        self.lbl_rql = [L.lock_remotequeue(p) for p in range(P)]
        self.lbl_viol_lt = L.assertion("localthreads_negative")
        self.lbl_viol_ret = L.assertion("unexpected_data_return")

    # -- initial state ------------------------------------------------------

    def initial_state(self):
        """All threads idle, region(s) unused at ``config.initial_home``."""
        threads = tuple(
            (int(Phase.IDLE), 0, 0, 0, self._rounds0, 0)
            for _ in range(self.n_threads)
        )
        home = self.config.initial_home
        copies = tuple(
            tuple((home, int(RegionState.UNUSED), 0, 0) for _ in range(self.n_regions))
            for _ in range(self.n_proc)
        )
        z = (0,) * self.n_proc
        locks = tuple((0, 0, 0, 0, 0, 0) for _ in range(self.n_proc))
        migs = ((0,) * self.n_regions,) * self.n_proc
        return (threads, copies, z, z, z, z, locks, migs)

    # -- helpers -------------------------------------------------------------

    def is_done_state(self, state) -> bool:
        """Proper termination: every thread finished all rounds, no
        pending messages, no held locks."""
        if state == VIOLATION:
            return False
        threads, _copies, hq, rq, hqa, rqa, locks, migs = state
        for ph, _r, _a, _w, rounds, dirty in threads:
            if ph != Phase.IDLE or rounds != 0 or dirty:
                return False
        if any(hq) or any(rq) or any(hqa) or any(rqa):
            return False
        if any(m != 0 for row in migs for m in row):
            return False
        return all(lab == (0, 0, 0, 0, 0, 0) for lab in locks)

    def _violate(self, name: str):
        return (Labels.assertion(name), VIOLATION)

    # -- the successor relation ------------------------------------------------

    def successors(self, state):  # noqa: C901 - the protocol is one big rule set
        """All outgoing ``(label, state)`` transitions of ``state``."""
        if state == VIOLATION:
            return []
        out: list[tuple[str, tuple]] = []
        self._thread_moves(state, out)
        self._lock_grant_moves(state, out)
        self._homequeue_moves(state, out)
        self._remotequeue_moves(state, out)
        if self.config.with_probes:
            self._probe_moves(state, out)
        return out

    # kept only for the benchmark's successor micro-pass, which still
    # calls it; the benchmark PR that re-bases that pass on the trace
    # (ROADMAP item 1(a)) deletes this line
    successors_fast = successors

    def codec(self):
        """The :class:`~repro.jackal.codec.StateCodec` for this topology:
        one state's canonical key, a view of :meth:`kernel`'s layout
        (built on first use, then cached)."""
        codec = getattr(self, "_codec", None)
        if codec is None:
            from repro.jackal.codec import StateCodec

            codec = self._codec = StateCodec(self)
        return codec

    def kernel(self):
        """The :class:`~repro.jackal.kernel.FrontierKernel` of this model
        — the same relation over packed rows, a whole BFS level per
        call (built on first use, then cached)."""
        kernel = getattr(self, "_kernel", None)
        if kernel is None:
            from repro.jackal.kernel import FrontierKernel

            kernel = self._kernel = FrontierKernel(self)
        return kernel

    # -- threads -----------------------------------------------------------------

    def _thread_moves(self, state, out) -> None:
        threads, copies, hq, rq, hqa, rqa, locks, migs = state
        W = self._W
        for tid in range(self.n_threads):
            ph, reg, aho, wdone, rounds, dirty = threads[tid]
            pid = self.pid_of[tid]

            if ph == Phase.IDLE:
                if rounds == 0:
                    continue  # finished all rounds (proper termination)
                if wdone < W:
                    # start a write to a chosen region (the access check)
                    for r in range(self.n_regions):
                        if dirty >> r & 1:
                            # valid cached copy: purely local write
                            nt = (int(Phase.LOCAL), r, aho, wdone, rounds, dirty)
                            out.append(
                                (
                                    self.lbl_write[tid],
                                    self._with_thread(state, tid, nt),
                                )
                            )
                        elif copies[pid][r][0] == pid:
                            home_copy = copies[pid][r]
                            if self.variant.adaptive_lazy_flushing and (
                                home_copy[2] in (0, 1 << pid)
                            ):
                                # exclusive at-home region: lock-free
                                # fast path (adaptive lazy flushing)
                                nt = (int(Phase.ALF_WRITE), r, 0, wdone, rounds, dirty)
                                out.append(
                                    (
                                        self.lbl_write[tid],
                                        self._with_thread(state, tid, nt),
                                    )
                                )
                                continue
                            # at home: request the server lock
                            nt = (int(Phase.WANT_SERVER), r, 0, wdone, rounds, dirty)
                            ns = self._with_thread(state, tid, nt)
                            ns = self._lock_wait(ns, pid, _SRV_W, tid)
                            out.append((self.lbl_write[tid], ns))
                        else:
                            # remote: request the fault lock
                            nt = (int(Phase.WANT_FAULT), r, 0, wdone, rounds, dirty)
                            ns = self._with_thread(state, tid, nt)
                            ns = self._lock_wait(ns, pid, _FLT_W, tid)
                            out.append((self.lbl_write[tid], ns))
                elif dirty:
                    if self.variant.adaptive_lazy_flushing and self._alf_flushable(
                        copies, pid, dirty
                    ):
                        # every dirty region is exclusive at home: skip
                        # the flush lock (adaptive lazy flushing)
                        nt = (int(Phase.ALF_FLUSH), reg, 0, wdone, rounds, dirty)
                        out.append(
                            (self.lbl_flush[tid], self._with_thread(state, tid, nt))
                        )
                        continue
                    # synchronisation point: request the flush lock
                    nt = (int(Phase.WANT_FLUSH), reg, 0, wdone, rounds, dirty)
                    ns = self._with_thread(state, tid, nt)
                    ns = self._lock_wait(ns, pid, _FLS_W, tid)
                    out.append((self.lbl_flush[tid], ns))
                else:
                    # wrote W times but nothing dirty cannot happen
                    raise ModelError(f"thread {tid}: wdone={wdone} but clean")
                continue

            if ph == Phase.LOCAL:
                # complete the local (valid-copy) write; completion is
                # writeover(t) like every other write path, so the
                # paper's Requirement-4 formula covers cached writes too
                nt = (int(Phase.IDLE), reg, aho, wdone + 1, rounds, dirty)
                out.append(
                    (self.lbl_writeover[tid], self._with_thread(state, tid, nt))
                )
                continue

            if ph == Phase.ALF_WRITE:
                h, rs, wl, lt = copies[pid][reg]
                if h == pid and wl in (0, 1 << pid):
                    # still exclusive: complete without the server lock
                    nc = (pid, int(RegionState.USED), wl | (1 << pid), lt + 1)
                    ns = self._with_copy(state, pid, reg, nc)
                    nt = (
                        int(Phase.IDLE),
                        reg,
                        0,
                        wdone + 1,
                        rounds,
                        dirty | (1 << reg),
                    )
                    out.append(
                        (self.lbl_writeover[tid], self._with_thread(ns, tid, nt))
                    )
                else:
                    # a remote writer (or migration) intervened: retry
                    # through the regular locked path
                    nt = (int(Phase.IDLE), reg, 0, wdone, rounds, dirty)
                    out.append(
                        (self.lbl_restart[tid], self._with_thread(state, tid, nt))
                    )
                continue

            if ph == Phase.ALF_FLUSH:
                if self._alf_flushable(copies, pid, dirty):
                    ns = state
                    for r in range(self.n_regions):
                        if not (dirty >> r & 1):
                            continue
                        h, rs, wl, lt = ns[1][pid][r]
                        if self.check_assertions and lt <= 0:
                            ns = None
                            break
                        nlt = lt - 1
                        nwl = wl if nlt > 0 else wl & ~(1 << pid)
                        nrs = (
                            int(RegionState.USED)
                            if (nwl or nlt > 0)
                            else int(RegionState.UNUSED)
                        )
                        ns = self._with_copy(ns, pid, r, (pid, nrs, nwl, nlt))
                    if ns is None:
                        out.append(self._violate("localthreads_negative"))
                        continue
                    nr = rounds - 1 if rounds > 0 else rounds
                    nt = (int(Phase.IDLE), reg, 0, 0, nr, 0)
                    out.append(
                        (self.lbl_flushover[tid], self._with_thread(ns, tid, nt))
                    )
                else:
                    # eligibility broken: fall back to the flush lock
                    nt = (int(Phase.WANT_FLUSH), reg, 0, wdone, rounds, dirty)
                    ns = self._with_thread(state, tid, nt)
                    ns = self._lock_wait(ns, pid, _FLS_W, tid)
                    out.append((self.lbl_restart[tid], ns))
                continue

            if ph == Phase.HAVE_SERVER:
                home = copies[pid][reg][0]
                if home == pid:
                    # write at home
                    h, rs, wl, lt = copies[pid][reg]
                    nc = (pid, int(RegionState.USED), wl | (1 << pid), lt + 1)
                    ns = self._with_copy(state, pid, reg, nc)
                    nt = (
                        int(Phase.IDLE),
                        reg,
                        0,
                        wdone + 1,
                        rounds,
                        dirty | (1 << reg),
                    )
                    ns = self._with_thread(ns, tid, nt)
                    ns = self._lock_release(ns, pid, _SRV_H)
                    out.append((self.lbl_writeover[tid], ns))
                else:
                    # the home migrated away while we waited: retry remotely
                    nt = (int(Phase.WANT_FAULT), reg, 0, wdone, rounds, dirty)
                    ns = self._with_thread(state, tid, nt)
                    ns = self._lock_release(ns, pid, _SRV_H)
                    ns = self._lock_wait(ns, pid, _FLT_W, tid)
                    out.append((self.lbl_restart[tid], ns))
                continue

            if ph == Phase.HAVE_FAULT:
                home = copies[pid][reg][0]
                if home == pid:
                    if self.variant.fault_lock_recheck:
                        # Error-1 fix: switch to the server lock
                        nt = (int(Phase.WANT_SERVER), reg, 0, wdone, rounds, dirty)
                        ns = self._with_thread(state, tid, nt)
                        ns = self._lock_release(ns, pid, _FLT_H)
                        ns = self._lock_wait(ns, pid, _SRV_W, tid)
                        out.append((self.lbl_f2s[tid], ns))
                    else:
                        # Error-1 bug: the access check inside the fault
                        # handler finds a valid local copy, so no Data
                        # Request is sent — yet the thread waits for one.
                        nt = (int(Phase.WAIT_DATA), reg, 0, wdone, rounds, dirty)
                        out.append(
                            (
                                self.lbl_stale[tid],
                                self._with_thread(state, tid, nt),
                            )
                        )
                else:
                    if hq[home] == 0:
                        msg = (int(Msg.REQ), tid, pid, reg)
                        ns = self._with_hq(state, home, msg)
                        nt = (int(Phase.WAIT_DATA), reg, 0, wdone, rounds, dirty)
                        ns = self._with_thread(ns, tid, nt)
                        out.append((self.lbl_sreq[tid][pid][home], ns))
                    # else: blocked until the home queue drains
                continue

            if ph == Phase.REMOTE_READY:
                h, rs, wl, lt = copies[pid][reg]
                nc = (h, rs, wl, lt + 1)
                ns = self._with_copy(state, pid, reg, nc)
                nt = (
                    int(Phase.IDLE),
                    reg,
                    0,
                    wdone + 1,
                    rounds,
                    dirty | (1 << reg),
                )
                ns = self._with_thread(ns, tid, nt)
                ns = self._lock_release(ns, pid, _FLT_H)
                out.append((self.lbl_writeover[tid], ns))
                continue

            if ph == Phase.HAVE_FLUSH:
                if dirty == 0:
                    # flush list empty: release and finish the round
                    nr = rounds - 1 if rounds > 0 else rounds
                    nt = (int(Phase.IDLE), reg, 0, 0, nr, 0)
                    ns = self._with_thread(state, tid, nt)
                    ns = self._lock_release(ns, pid, _FLS_H)
                    out.append((self.lbl_flushover[tid], ns))
                    continue
                r = (dirty & -dirty).bit_length() - 1  # lowest dirty region
                home = copies[pid][r][0]
                if home == pid:
                    self._flush_at_home(state, out, tid, pid, r)
                else:
                    if hq[home] == 0:
                        h, rs, wl, lt = copies[pid][r]
                        if self.check_assertions and lt <= 0:
                            out.append(self._violate("localthreads_negative"))
                            continue
                        nc = (h, rs, wl, lt - 1)
                        ns = self._with_copy(state, pid, r, nc)
                        msg = (int(Msg.FLUSH), tid, pid, r)
                        ns = self._with_hq(ns, home, msg)
                        nt = (
                            int(Phase.HAVE_FLUSH),
                            reg,
                            0,
                            wdone,
                            rounds,
                            dirty & ~(1 << r),
                        )
                        ns = self._with_thread(ns, tid, nt)
                        out.append((self.lbl_sflush[tid][pid][home], ns))
                    # else: blocked until the home queue drains
                continue

            # WANT_* and WAIT_DATA phases move via other components

    def _flush_at_home(self, state, out, tid: int, pid: int, r: int) -> None:
        threads, copies, hq, rq, hqa, rqa, locks, migs = state
        ph, reg, aho, wdone, rounds, dirty = threads[tid]
        h, rs, wl, lt = copies[pid][r]
        if self.check_assertions and lt <= 0:
            out.append(self._violate("localthreads_negative"))
            return
        nlt = lt - 1
        nwl = wl if nlt > 0 else wl & ~(1 << pid)
        migrate = (
            self.variant.home_migration
            and nwl != 0
            and _is_pow2(nwl)
            and nwl != (1 << pid)
        )
        ndirty = dirty & ~(1 << r)
        nt = (int(Phase.HAVE_FLUSH), reg, 0, wdone, rounds, ndirty)
        if migrate:
            dst = nwl.bit_length() - 1
            # In the fixed protocol the slot is always free: only the
            # home starts a migration, and it stops being the home by
            # doing so. Buggy variants can break that bookkeeping, so an
            # occupied slot blocks the flush step instead of crashing.
            if migs[dst][r] != 0:
                return
            nc = (dst, int(RegionState.USED), 0, nlt)
            ns = self._with_copy(state, pid, r, nc)
            ns = self._with_mig(ns, dst, r, (nwl, int(RegionState.USED)))
            ns = self._with_thread(ns, tid, nt)
            out.append((self.lbl_fhome_mig[tid][pid][dst], ns))
        else:
            nrs = (
                int(RegionState.USED)
                if (nwl or nlt > 0)
                else int(RegionState.UNUSED)
            )
            nc = (pid, nrs, nwl, nlt)
            ns = self._with_copy(state, pid, r, nc)
            ns = self._with_thread(ns, tid, nt)
            out.append((self.lbl_fhome[tid][pid], ns))

    # -- protocol lock manager -----------------------------------------------

    def _lock_grant_moves(self, state, out) -> None:
        threads, copies, hq, rq, hqa, rqa, locks, migs = state
        for pid in range(self.n_proc):
            sh, sw, fh, fw, lh, lw = locks[pid]
            # server lock: mutually exclusive with the flush lock
            if sw and sh == 0 and lh == 0:
                for tid in self._bits(sw):
                    ns = self._lock_grant(state, pid, _SRV_H, _SRV_W, tid)
                    ns = self._set_phase(ns, tid, Phase.HAVE_SERVER)
                    out.append((self.lbl_lock_srv[tid][pid], ns))
            # fault lock: mutually exclusive with the flush lock
            if fw and fh == 0 and lh == 0:
                for tid in self._bits(fw):
                    ns = self._lock_grant(state, pid, _FLT_H, _FLT_W, tid)
                    ns = self._set_phase(ns, tid, Phase.HAVE_FAULT)
                    out.append((self.lbl_lock_flt[tid][pid], ns))
            # flush lock: excluded by server, fault, and pending queue work
            if (
                lw
                and lh == 0
                and sh == 0
                and fh == 0
                and hq[pid] == 0
                and rq[pid] == 0
                and hqa[pid] == 0
                and rqa[pid] == 0
                and not any(migs[pid])
            ):
                for tid in self._bits(lw):
                    ns = self._lock_grant(state, pid, _FLS_H, _FLS_W, tid)
                    ns = self._set_phase(ns, tid, Phase.HAVE_FLUSH)
                    out.append((self.lbl_lock_fls[tid][pid], ns))

    # -- home queue handler ------------------------------------------------------

    def _homequeue_moves(self, state, out) -> None:
        threads, copies, hq, rq, hqa, rqa, locks, migs = state
        for pid in range(self.n_proc):
            # A Region Sponmigrate is absorbed eagerly from its control
            # slot, regardless of what the handler is doing: it is pure
            # control information (a local copy update, no sends), and
            # letting it wait behind a handler whose forward is blocked
            # can wedge processors against each other — each holding a
            # request the other's stale home pointer bounces back, with
            # the resolving migration stuck behind blocked data traffic.
            for r in range(self.n_regions):
                if migs[pid][r] != 0:
                    self._dispatch_mig(state, out, pid, r)
            held = hqa[pid]
            if held == 0:
                msg = hq[pid]
                if msg == 0:
                    continue
                # Acquire the homequeue lock and take the message out of
                # the queue (the muCRL spec's "the processor takes this
                # message") — freeing the slot before processing is what
                # prevents two capacity-one queues from wedging each
                # other during forwarding. Migration replies have
                # priority: a pending migration Data Return makes this
                # very processor the home, and popping a request before
                # learning that lets the request chase the migrating
                # home around the network forever — the bounce the
                # paper's Requirement 4 forbids. Plain replies carry no
                # home transfer and need no such ordering (and must not
                # get priority, or the Region Sponmigrate race of
                # Error 2 could never fire).
                mig_pending = any(
                    m != 0 and m[3] == 1 for m in (rq[pid], rqa[pid])
                ) or any(migs[pid])
                if not mig_pending:
                    ns = (
                        threads,
                        copies,
                        _set(hq, pid, 0),
                        rq,
                        _set(hqa, pid, msg),
                        rqa,
                        locks,
                        migs,
                    )
                    out.append((self.lbl_hql[pid], ns))
                continue
            kind = held[0]
            if kind == Msg.REQ:
                self._dispatch_req(state, out, pid, held)
            elif kind == Msg.FLUSH:
                self._dispatch_flush(state, out, pid, held)
            else:  # pragma: no cover - defensive
                raise ModelError(f"bad home-queue message {held!r}")

    def _dispatch_req(self, state, out, pid: int, msg) -> None:
        _k, tid, src, r = msg
        threads, copies, hq, rq, hqa, rqa, locks, migs = state
        home, rs, wl, lt = copies[pid][r]
        if home != pid:
            # stale destination: forward to where we believe the home is
            if hq[home] == 0:
                ns = self._hq_consumed(state, pid)
                ns = self._with_hq(ns, home, msg)
                out.append((self.lbl_fwd_req[pid][home], ns))
            return
        nwl = wl | (1 << src)
        case1 = (
            self.variant.home_migration and nwl == (1 << src) and src != pid
        )
        if rq[src] != 0:
            return  # blocked until the requester's remote queue drains
        if case1:
            # home migrates to the only writing processor
            nc = (src, int(RegionState.USED), 0, lt)
            ret = (int(Msg.RET), tid, pid, 1, nwl, int(RegionState.USED), r)
            label = self.lbl_sretm[pid][src]
        else:
            nc = (pid, int(RegionState.USED), nwl, lt)
            ret = (int(Msg.RET), tid, pid, 0, 0, 0, r)
            label = self.lbl_sret[pid][src]
        ns = self._with_copy(state, pid, r, nc)
        ns = self._hq_consumed(ns, pid)
        ns = self._with_rq(ns, src, ret)
        out.append((label, ns))

    def _dispatch_flush(self, state, out, pid: int, msg) -> None:
        _k, tid, src, r = msg
        threads, copies, hq, rq, hqa, rqa, locks, migs = state
        home, rs, wl, lt = copies[pid][r]
        if home != pid:
            if hq[home] == 0:
                ns = self._hq_consumed(state, pid)
                ns = self._with_hq(ns, home, msg)
                out.append((self.lbl_fwd_flush[pid][home], ns))
            return
        # Removing an absent writer is a no-op: a Flush can legitimately
        # arrive after its sender re-wrote at (migrated-to-it) home and
        # flushed again, so the WriterList entry may already be gone.
        nwl = wl & ~(1 << src)
        migrate = (
            self.variant.home_migration
            and nwl != 0
            and _is_pow2(nwl)
            and nwl != (1 << pid)
        )
        if migrate:
            dst = nwl.bit_length() - 1
            if migs[dst][r] != 0:
                return  # see _flush_at_home: only buggy variants get here
            nc = (dst, int(RegionState.USED), 0, lt)
            ns = self._with_copy(state, pid, r, nc)
            ns = self._hq_consumed(ns, pid)
            ns = self._with_mig(ns, dst, r, (nwl, int(RegionState.USED)))
            out.append((self.lbl_frecv_mig[pid][dst], ns))
        else:
            nrs = (
                int(RegionState.USED)
                if (nwl or lt > 0)
                else int(RegionState.UNUSED)
            )
            nc = (pid, nrs, nwl, lt)
            ns = self._with_copy(state, pid, r, nc)
            ns = self._hq_consumed(ns, pid)
            out.append((self.lbl_frecv[pid], ns))

    def _dispatch_mig(self, state, out, pid: int, r: int) -> None:
        wl, rstate = state[7][pid][r]
        copies = state[1]
        _h, _rs, _wl, lt = copies[pid][r]
        nc = (pid, rstate, wl, lt)
        ns = self._with_copy(state, pid, r, nc)
        if self.variant.sponmigrate_informs_threads:
            # Error-2 fix: local threads writing this region at the old
            # home will complete as at-home writers
            nthreads = list(ns[0])
            for tid in self.threads_on[pid]:
                ph, reg, aho, wdone, rounds, dirty = nthreads[tid]
                if ph == Phase.WAIT_DATA and reg == r:
                    nthreads[tid] = (ph, reg, 1, wdone, rounds, dirty)
            ns = _set(ns, 0, tuple(nthreads))
        ns = self._mig_consumed(ns, pid, r)
        out.append((self.lbl_mig[pid], ns))

    # -- remote queue handler ---------------------------------------------------

    def _remotequeue_moves(self, state, out) -> None:
        threads, copies, hq, rq, hqa, rqa, locks, migs = state
        for pid in range(self.n_proc):
            held = rqa[pid]
            if held == 0:
                msg = rq[pid]
                if msg == 0:
                    continue
                ns = (
                    threads,
                    copies,
                    hq,
                    _set(rq, pid, 0),
                    hqa,
                    _set(rqa, pid, msg),
                    locks,
                    migs,
                )
                out.append((self.lbl_rql[pid], ns))
                continue
            _k, tid, sender, mig, wl, rstate, r = held
            ph, reg, aho, wdone, rounds, dirty = threads[tid]
            if self.check_assertions and (
                ph != Phase.WAIT_DATA or reg != r or self.pid_of[tid] != pid
            ):
                out.append(self._violate("unexpected_data_return"))
                continue
            if mig:
                # migration reply: this processor becomes the home
                nc = (pid, rstate, wl, copies[pid][r][3])
                ns = self._with_copy(state, pid, r, nc)
            elif aho:
                # Error-2 fix active and a sponmigrate arrived meanwhile:
                # keep the home we already maintain
                ns = state
            else:
                # plain refresh: the home is the sender of the reply.
                # (Without the Error-2 fix this clobbers a home received
                # through a racing Region Sponmigrate.)
                nc = (sender, int(RegionState.USED), 0, copies[pid][r][3])
                ns = self._with_copy(state, pid, r, nc)
            nt = (int(Phase.REMOTE_READY), reg, aho, wdone, rounds, dirty)
            ns = self._with_thread(ns, tid, nt)
            ns = self._rq_consumed(ns, pid)
            out.append((self.lbl_signal[tid][pid], ns))

    # -- probes -------------------------------------------------------------------

    def _probe_moves(self, state, out) -> None:
        threads, copies, hq, rq, hqa, rqa, locks, migs = state
        any_home = False
        any_copy = False
        for r in range(self.n_regions):
            homes = sum(1 for p in range(self.n_proc) if copies[p][r][0] == p)
            if homes >= 2:
                any_home = True
            non_home = sum(1 for p in range(self.n_proc) if copies[p][r][0] != p)
            if non_home >= 2:
                any_copy = True
        if any_home:
            out.append((C_HOME, state))
        if any_copy:
            out.append((C_COPY, state))
        if (
            all(lab[_SRV_H] == 0 and lab[_FLT_H] == 0 and lab[_FLS_H] == 0 for lab in locks)
            and not any(hqa)
            and not any(rqa)
        ):
            out.append((LOCK_EMPTY, state))
        if not any(hq) and not any(m for row in migs for m in row):
            out.append((HOMEQUEUE_EMPTY, state))
        if not any(rq):
            out.append((REMOTEQUEUE_EMPTY, state))

    # -- state update helpers ------------------------------------------------------

    def _alf_flushable(self, copies, pid: int, dirty: int) -> bool:
        """Every dirty region is exclusive at home on ``pid``."""
        for r in range(self.n_regions):
            if dirty >> r & 1:
                h, _rs, wl, _lt = copies[pid][r]
                if h != pid or wl not in (0, 1 << pid):
                    return False
        return True

    @staticmethod
    def _bits(mask: int):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def _with_thread(self, state, tid: int, nt):
        return _set(state, 0, _set(state[0], tid, nt))

    def _set_phase(self, state, tid: int, phase: Phase):
        threads = state[0]
        ph, reg, aho, wdone, rounds, dirty = threads[tid]
        return self._with_thread(state, tid, (int(phase), reg, aho, wdone, rounds, dirty))

    def _with_copy(self, state, pid: int, r: int, nc):
        copies = state[1]
        return _set(state, 1, _set(copies, pid, _set(copies[pid], r, nc)))

    def _with_hq(self, state, pid: int, msg):
        hq = state[2]
        if hq[pid] != 0:
            raise ModelError(f"home queue of p{pid} overrun")
        return _set(state, 2, _set(hq, pid, msg))

    def _with_rq(self, state, pid: int, msg):
        rq = state[3]
        if rq[pid] != 0:
            raise ModelError(f"remote queue of p{pid} overrun")
        return _set(state, 3, _set(rq, pid, msg))

    def _with_mig(self, state, pid: int, r: int, payload):
        migs = state[7]
        if migs[pid][r] != 0:
            raise ModelError(
                f"two migrations of region r{r} in flight to p{pid}"
            )
        return _set(state, 7, _set(migs, pid, _set(migs[pid], r, payload)))

    def _mig_consumed(self, state, pid: int, r: int):
        migs = state[7]
        return _set(state, 7, _set(migs, pid, _set(migs[pid], r, 0)))

    def _hq_consumed(self, state, pid: int):
        # the message was already taken out of the queue at lock grant;
        # consuming it releases the handler (and its homequeue lock)
        return _set(state, 4, _set(state[4], pid, 0))

    def _rq_consumed(self, state, pid: int):
        return _set(state, 5, _set(state[5], pid, 0))

    def _lock_wait(self, state, pid: int, slot: int, tid: int):
        locks = state[6]
        lp = locks[pid]
        return _set(state, 6, _set(locks, pid, _set(lp, slot, lp[slot] | (1 << tid))))

    def _lock_grant(self, state, pid: int, hslot: int, wslot: int, tid: int):
        locks = state[6]
        lp = locks[pid]
        lp = _set(lp, hslot, tid + 1)
        lp = _set(lp, wslot, lp[wslot] & ~(1 << tid))
        return _set(state, 6, _set(locks, pid, lp))

    def _lock_release(self, state, pid: int, hslot: int):
        locks = state[6]
        lp = locks[pid]
        if lp[hslot] == 0:
            raise ModelError(f"releasing free lock slot {hslot} on p{pid}")
        return _set(state, 6, _set(locks, pid, _set(lp, hslot, 0)))

    # -- decoding -------------------------------------------------------------------

    def decode_state(self, state) -> dict:
        """Render a state as a nested dict for humans and the trace
        explainer."""
        if state == VIOLATION:
            return {"violation": True}
        threads, copies, hq, rq, hqa, rqa, locks, migs = state
        kinds = {0: "REQ", 1: "RET", 2: "FLUSH", 3: "MIG"}

        def fmt_msg(m):
            if m == 0:
                return None
            return (kinds[m[0]],) + tuple(m[1:])

        return {
            "threads": [
                {
                    "tid": t,
                    "pid": self.pid_of[t],
                    "phase": Phase(th[0]).name,
                    "region": th[1],
                    "at_home_override": bool(th[2]),
                    "writes_done": th[3],
                    "rounds_left": th[4],
                    "dirty": [r for r in range(self.n_regions) if th[5] >> r & 1],
                }
                for t, th in enumerate(threads)
            ],
            "copies": [
                [
                    {
                        "home": c[0],
                        "state": RegionState(c[1]).name,
                        "writers": [q for q in range(self.n_proc) if c[2] >> q & 1],
                        "localthreads": c[3],
                    }
                    for c in copies[p]
                ]
                for p in range(self.n_proc)
            ],
            "homequeue": [fmt_msg(m) for m in hq],
            "migrations": [
                [
                    None
                    if migs[p][r] == 0
                    else {"writers": [q for q in range(self.n_proc)
                                      if migs[p][r][0] >> q & 1],
                          "state": RegionState(migs[p][r][1]).name}
                    for r in range(self.n_regions)
                ]
                for p in range(self.n_proc)
            ],
            "remotequeue": [fmt_msg(m) for m in rq],
            "handlers": {
                "home": [fmt_msg(m) for m in hqa],
                "remote": [fmt_msg(m) for m in rqa],
            },
            "locks": [
                {
                    "server": locks[p][_SRV_H],
                    "server_waiters": list(self._bits(locks[p][_SRV_W])),
                    "fault": locks[p][_FLT_H],
                    "fault_waiters": list(self._bits(locks[p][_FLT_W])),
                    "flush": locks[p][_FLS_H],
                    "flush_waiters": list(self._bits(locks[p][_FLS_W])),
                }
                for p in range(self.n_proc)
            ],
        }
