"""Structured JSONL event traces.

The flight recorder's one record of a run: every lifecycle event of an
exploration or check — sweep start/end, BFS depth waves, fixpoint
iterations, requirement checks — is one JSON
object per line with a monotonic timestamp::

    {"t": 0.000132, "ev": "sweep_start", "backend": "engine", ...}

``t`` is seconds since the tracer was created, read from
:data:`clock` (monotonic, so it never goes backwards and is immune to
wall-clock jumps); ``ev`` names the event type; all other keys are
event-specific and documented in ``docs/observability.md``. Every
duration is a :meth:`Tracer.span`, whose event is written at the
block's end with ``seconds``, a ``span`` id and the ``parent`` id of
the span around it (``null`` at top level).

Two storage modes:

* **file mode** (``path=...``): events are written to a JSONL file as
  they happen — the black box recovered after a wedged run. The file
  handle is **line buffered**: every emitted event reaches the OS
  before :meth:`emit` returns, so a process killed mid-sweep (even
  SIGKILL) loses at most the event being formatted, never a buffered
  tail;
* **ring mode** (``ring=N``): only the last ``N`` events are kept in a
  bounded in-memory deque, for sweeps too large to trace in full; the
  retained tail can still be dumped with :meth:`Tracer.dump`.

Both can be combined (``path=... , ring=N``): the file then receives
only the retained tail at :meth:`close` instead of a live stream.
"""

from __future__ import annotations

import json
import time
from collections import deque

#: the one clock: every ``t`` and every span's ``seconds``
clock = time.perf_counter


class Span:
    """A block timed by two reads of :data:`clock` (see the module
    docstring); ``fields`` may grow inside it. A block left by an
    exception writes no event."""

    def __init__(self, tracer, ev: str, fields: dict):
        # tracer None: time, record nothing
        self._tracer, self._ev, self.fields = tracer, ev, fields
        self._end: float | None = None
        self.seconds = 0.0

    def __enter__(self) -> "Span":
        tracer = self._tracer
        if tracer is not None:
            tracer._ids += 1
            self._id, self._parent = tracer._ids, tracer._inner
            tracer._inner = self._id
        self._t0 = clock()
        return self

    def lap(self) -> float:
        """Seconds since the block was entered."""
        return clock() - self._t0

    def stop(self) -> float:
        """End the timing here (the event is still written at the exit)."""
        if self._end is None:
            self._end = clock()
            self.seconds = self._end - self._t0
        return self.seconds

    def __exit__(self, exc_type, *exc) -> None:
        self.stop()
        tracer = self._tracer
        if tracer is not None:
            tracer._inner = self._parent
            if exc_type is None:
                tracer._write(self._ev, self._t0 + self.seconds, {
                    **self.fields, "seconds": round(self.seconds, 6),
                    "span": self._id, "parent": self._parent,
                })


class Tracer:
    """An enabled trace sink (see module docstring for the modes)."""

    enabled = True

    def __init__(self, path=None, ring: int | None = None):
        if ring is not None and ring < 1:
            raise ValueError("ring must be >= 1")
        self._t0 = clock()
        self._ids = 0
        self._inner: int | None = None  # the innermost open span's id
        self._path = str(path) if path is not None else None
        self._events: deque = deque(maxlen=ring)
        self._fh = None
        if self._path is not None and ring is None:
            # line buffering: each event line is flushed to the OS as
            # it is written, so a crashed run's trace never loses a
            # buffered tail (the whole point of a flight recorder)
            self._fh = open(self._path, "w", buffering=1)

    def emit(self, ev: str, **fields) -> None:
        """Record one event (timestamped now)."""
        self._write(ev, clock(), fields)

    def span(self, ev: str, **fields) -> Span:
        """A block that records ``ev`` with its ``seconds`` at the end."""
        return Span(self, ev, fields)

    def _write(self, ev: str, now: float, fields: dict) -> None:
        rec = {"t": round(now - self._t0, 6), "ev": ev}
        rec.update(fields)
        if self._fh is not None:
            self._fh.write(json.dumps(rec) + "\n")
        else:
            self._events.append(rec)

    def events(self) -> list[dict]:
        """The in-memory events (ring tail, or everything in memory mode)."""
        return list(self._events)

    def dump(self, path) -> None:
        """Write the retained events to ``path`` as JSONL."""
        with open(path, "w") as fh:
            for rec in self._events:
                fh.write(json.dumps(rec) + "\n")

    def close(self) -> None:
        """Flush and close the file sink (ring mode writes its tail now)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        elif self._path is not None:
            self.dump(self._path)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullTracer:
    """The disabled tracer: :meth:`emit` is a no-op, a span only times."""

    enabled = False

    def emit(self, ev: str, **fields) -> None:
        pass

    def span(self, ev: str, **fields) -> Span:
        return Span(None, ev, fields)


#: the shared disabled tracer
NULL_TRACER = NullTracer()


def read_trace(path) -> list[dict]:
    """Load a JSONL trace file back into a list of event dicts.

    Blank lines are skipped, so traces survive manual editing; a
    malformed line (the torn tail of a crashed writer, say) raises
    ``json.JSONDecodeError`` with the line number attached, which
    ``repro report`` turns into a clean error, never a silent partial
    report.
    """
    events: list[dict] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise json.JSONDecodeError(
                    f"{exc.msg} (trace line {lineno})", exc.doc, exc.pos
                ) from None
            if isinstance(rec, dict):
                events.append(rec)
            else:
                raise json.JSONDecodeError(
                    f"trace line {lineno} is not a JSON object", line, 0
                )
    return events
