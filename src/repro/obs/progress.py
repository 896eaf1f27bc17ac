"""Periodic live progress line on stderr.

Long sweeps are silent by default; with progress enabled the backends
call :meth:`ProgressReporter.maybe` at natural heartbeat points (once
per BFS wave) and at most every ``interval`` seconds one
``\\r``-rewritten status line lands on stderr::

    [repro] 182,340 states | 45,210 st/s | frontier 12,041 | depth 17

The reporter rate-limits itself, so callers never need their own
timers; :meth:`done` finishes the line with a newline so subsequent
output starts clean.

The ``\\r`` + ``\\x1b[K`` rewrite trick only makes sense on a real
terminal. When the stream is not a TTY (CI logs, ``2>file``), the
reporter falls back to plain newline-terminated lines so the log stays
readable instead of accumulating control sequences on one endless line.
"""

from __future__ import annotations

import sys
import time


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, int):
        return f"{v:,}"
    if isinstance(v, float):
        return f"{v:,.0f}"
    return str(v)


class ProgressReporter:
    """Rate-limited single-line status output (see module docstring)."""

    enabled = True

    def __init__(self, stream=None, interval: float = 0.5, _clock=None):
        self._stream = stream if stream is not None else sys.stderr
        self._interval = interval
        self._clock = _clock or time.monotonic
        self._last = 0.0
        self._dirty = False
        try:
            self._ansi = bool(self._stream.isatty())
        except (AttributeError, ValueError):
            self._ansi = False

    def maybe(self, **fields) -> None:
        """Render a status line if ``interval`` has elapsed.

        Field values are formatted with thousands separators; the
        conventional keys are ``states``, ``sps`` (states/second),
        ``frontier`` and ``depth``, but any key renders.
        """
        now = self._clock()
        if now - self._last < self._interval:
            return
        self._last = now
        parts = " | ".join(
            f"{k} {_fmt(v)}" for k, v in fields.items() if v is not None
        )
        if self._ansi:
            self._stream.write(f"\r[repro] {parts}\x1b[K")
            self._dirty = True
        else:
            self._stream.write(f"[repro] {parts}\n")
        self._stream.flush()

    def done(self) -> None:
        """Terminate the status line (no-op if nothing was printed)."""
        if self._dirty:
            self._stream.write("\n")
            self._stream.flush()
            self._dirty = False


class NullProgress:
    """The disabled reporter."""

    enabled = False

    def maybe(self, **fields) -> None:
        pass

    def done(self) -> None:
        pass


#: the shared disabled reporter
NULL_PROGRESS = NullProgress()
