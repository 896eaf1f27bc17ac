"""English narration of protocol traces.

Every label emitted by :class:`~repro.jackal.model.JackalModel` has a
template here (:func:`explain_label`); :func:`narrate_trace` replays a
counterexample with :func:`~repro.lts.trace.replay` and renders it as a
numbered story interleaved with the evolving home/WriterList context —
the "automatic execution and interpretation of long traces" the paper
asks for in its conclusions.
"""

from __future__ import annotations

import re

from repro.lts.trace import Trace, replay

_PATTERNS: list[tuple[re.Pattern, str]] = [
    (re.compile(r"^write\(t(\d+)\)$"), "thread t{0} starts a write (access check)"),
    (re.compile(r"^writeover\(t(\d+)\)$"), "thread t{0} completes its write"),
    (re.compile(r"^flush\(t(\d+)\)$"),
     "thread t{0} reaches a synchronisation point and starts flushing"),
    (re.compile(r"^flushover\(t(\d+)\)$"), "thread t{0} completes its flush"),
    (re.compile(r"^lock_server\(t(\d+),p(\d+)\)$"),
     "processor p{1} grants its server lock to thread t{0}"),
    (re.compile(r"^lock_fault\(t(\d+),p(\d+)\)$"),
     "processor p{1} grants its fault lock to thread t{0}"),
    (re.compile(r"^lock_flush\(t(\d+),p(\d+)\)$"),
     "processor p{1} grants its flush lock to thread t{0}"),
    (re.compile(r"^restart_write\(t(\d+)\)$"),
     "thread t{0} held the server lock but the home migrated away; "
     "it releases the lock and retries as a remote write"),
    (re.compile(r"^fault_to_server\(t(\d+)\)$"),
     "thread t{0} held the fault lock but is now at home (Error-1 fix): "
     "it releases the fault lock and requests the server lock"),
    (re.compile(r"^stale_remote_wait\(t(\d+)\)$"),
     "thread t{0} holds the fault lock, but its processor became the home "
     "meanwhile; the access check finds a valid copy, no Data Request is "
     "sent, and t{0} waits for a reply that will never arrive (Error 1!)"),
    (re.compile(r"^send_datareq\(t(\d+),p(\d+),p(\d+)\)$"),
     "thread t{0} on p{1} sends a Data Request to the home p{2}"),
    (re.compile(r"^send_dataret\(p(\d+),p(\d+)\)$"),
     "home p{0} returns an up-to-date copy to p{1} (Data Return)"),
    (re.compile(r"^send_dataret_mig\(p(\d+),p(\d+)\)$"),
     "home p{0} returns a copy to p{1} and migrates the home to it "
     "(automatic home node migration, case 1)"),
    (re.compile(r"^send_flush\(t(\d+),p(\d+),p(\d+)\)$"),
     "thread t{0} on p{1} sends a Flush message to the home p{2}"),
    (re.compile(r"^forward_req\(p(\d+),p(\d+)\)$"),
     "p{0} is no longer the home: it forwards the Data Request to p{1}"),
    (re.compile(r"^forward_flush\(p(\d+),p(\d+)\)$"),
     "p{0} is no longer the home: it forwards the Flush to p{1}"),
    (re.compile(r"^signal\(t(\d+),p(\d+)\)$"),
     "the remote queue handler of p{1} delivers the Data Return and "
     "wakes thread t{0}"),
    (re.compile(r"^recv_sponmigrate\(p(\d+)\)$"),
     "p{0} processes a Region Sponmigrate message and becomes the home"),
    (re.compile(r"^flush_recv\(p(\d+)\)$"),
     "home p{0} processes a Flush message (WriterList updated)"),
    (re.compile(r"^flush_recv_migrate\(p(\d+),p(\d+)\)$"),
     "home p{0} processes a Flush; only p{1} still writes, so the home "
     "migrates to p{1} (case 2) via a Region Sponmigrate message"),
    (re.compile(r"^flush_home\(t(\d+),p(\d+)\)$"),
     "thread t{0} flushes at home p{1} (local WriterList update)"),
    (re.compile(r"^flush_home_migrate\(t(\d+),p(\d+),p(\d+)\)$"),
     "thread t{0} flushes at home p{1}; only p{2} still writes, so the "
     "home migrates to p{2} (case 2)"),
    (re.compile(r"^lock_homequeue\(p(\d+)\)$"),
     "the home queue handler of p{0} acquires the homequeue lock"),
    (re.compile(r"^lock_remotequeue\(p(\d+)\)$"),
     "the remote queue handler of p{0} acquires the remotequeue lock"),
    (re.compile(r"^assertion_violation\((.+)\)$"),
     "PROTOCOL ASSERTION VIOLATED: {0}"),
    (re.compile(r"^c_home$"), "probe: two processors both claim the home"),
    (re.compile(r"^c_copy$"), "probe: two processors both hold non-home copies"),
    (re.compile(r"^lock_empty$"), "probe: no protocol lock is held"),
    (re.compile(r"^homequeue_empty$"), "probe: all home queues are empty"),
    (re.compile(r"^remotequeue_empty$"), "probe: all remote queues are empty"),
]


def explain_label(label: str) -> str:
    """One-sentence explanation of a protocol action label."""
    for pat, template in _PATTERNS:
        m = pat.match(label)
        if m:
            return template.format(*m.groups())
    return label  # unknown labels pass through unchanged


def _context(model, state) -> str:
    """Compact protocol context: homes, writers, queue occupancy."""
    d = model.decode_state(state)
    if d.get("violation"):
        return "!! assertion-violation state"
    views = []
    for r in range(model.n_regions):
        ptrs = [d["copies"][p][r]["home"] for p in range(model.n_proc)]
        writers = d["copies"][ptrs[0]][r]["writers"] if 0 <= ptrs[0] < model.n_proc else []
        views.append(f"r{r}: home-ptrs={ptrs} writers={writers}")
    q = sum(1 for m in d["homequeue"] + d["remotequeue"] if m)
    return "; ".join(views) + f"; msgs-in-flight={q}"


def narrate_trace(model, trace: Trace | list[str]) -> str:
    """Replay ``trace`` on ``model`` and interleave explanation with
    protocol context after each step."""
    labels = list(trace.labels if isinstance(trace, Trace) else trace)
    replayed = replay(model, labels)
    lines = [f"initial: {_context(model, replayed.states[0])}"]
    width = len(str(len(labels)))
    for i, label in enumerate(labels):
        lines.append(f"{i + 1:>{width}}. {explain_label(label)}")
        lines.append(f"{'':>{width}}  -> {_context(model, replayed.states[i + 1])}")
    return "\n".join(lines)
