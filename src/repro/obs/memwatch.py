"""Memory-pressure telemetry: RSS sampling, watermarks, byte accounting.

The paper hit the state-space wall as an out-of-memory event — config
3's LTS was "too large for full mu-calculus checking" on the CWI
cluster — and ROADMAP item 3 (the out-of-core tier) needs to know
*when* memory pressure starts so a spill threshold can be wired to it.
This module is that signal source: a :class:`MemWatch` samples the
process's resident set size at the flight recorder's existing
heartbeat points (once per BFS wave — never per state), tracks the
high-watermark, accepts byte-size reports from the big structures
(the visited index), and emits ``mem_pressure`` tracer events when a
configurable threshold is crossed.

RSS is read from ``/proc/self/statm`` (two integer parses, no
dependencies); where ``/proc`` is unavailable it falls back to
``resource.getrusage`` — whose ``ru_maxrss`` is a *peak*, not a
current value, which is still exactly what the watermark needs — and
degrades to ``None`` (sampling disabled) when neither source exists.

Overhead discipline matches the rest of the package: the shared
:data:`NULL_MEMWATCH` is inert (every call a no-op), sampling is
rate-limited by its own clock, and the watermark series is kept at a
bounded length by halving its resolution whenever it fills — a crash
at any point leaves a readable, bounded series behind.
"""

from __future__ import annotations

import os
import time

#: default minimum seconds between two RSS reads (heartbeats arrive
#: much faster than RSS moves; /proc reads are cheap but not free)
DEFAULT_INTERVAL_S = 0.05

#: default watermark-series capacity; when full, resolution halves
DEFAULT_SERIES_MAX = 256

_PAGE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def rss_bytes() -> int | None:
    """Current resident set size in bytes, or ``None`` if unreadable.

    ``/proc/self/statm`` field 1 is resident pages; the
    ``resource.getrusage`` fallback reports the peak RSS (KiB on
    Linux), which over-approximates the current value but keeps the
    watermark exact.
    """
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:  # pragma: no cover - no /proc and no getrusage
        return None


class MemWatch:
    """An enabled memory watcher (see module docstring).

    Parameters
    ----------
    tracer / metrics:
        The sinks samples land in (``mem_pressure`` events; the
        ``repro_mem_*`` gauges). Either may be ``None``.
    threshold_bytes:
        RSS level at which a ``mem_pressure`` event fires. The event is
        edge-triggered: one per excursion above the threshold, re-armed
        once RSS falls back below ``rearm_ratio`` of it — a sweep
        hovering at the limit logs one event, not one per heartbeat.
    interval:
        Minimum seconds between two actual RSS reads; calls arriving
        faster return the cached value.
    """

    enabled = True

    def __init__(
        self,
        tracer=None,
        metrics=None,
        threshold_bytes: int | None = None,
        interval: float = DEFAULT_INTERVAL_S,
        series_max: int = DEFAULT_SERIES_MAX,
        rearm_ratio: float = 0.9,
        _clock=None,
        _rss=rss_bytes,
    ):
        if threshold_bytes is not None and threshold_bytes <= 0:
            raise ValueError("threshold_bytes must be positive")
        if series_max < 2:
            raise ValueError("series_max must be >= 2")
        self._tracer = tracer
        self._metrics = metrics
        self._threshold = threshold_bytes
        self._interval = interval
        self._series_max = series_max
        self._rearm = rearm_ratio
        self._clock = _clock or time.monotonic
        self._rss = _rss
        self._t0 = self._clock()
        self._last = -float("inf")
        self._last_rss: int | None = None
        self._over = False
        #: highest RSS observed (bytes); 0 until the first sample lands
        self.max_rss_bytes = 0
        #: bounded ``(seconds_since_start, rss_bytes)`` watermark series
        self.series: list[tuple[float, int]] = []
        #: seconds between retained series points (doubles as it fills)
        self._stride = 0.0
        #: latest byte-size report per structure name (see :meth:`note`)
        self.structs: dict[str, int] = {}
        self.pressure_events = 0

    def sample(self, force: bool = False) -> int | None:
        """Read RSS (rate-limited), update watermark/gauges/threshold.

        Returns the (possibly cached) RSS in bytes, or ``None`` when
        the platform offers no reading. ``force=True`` bypasses the
        rate limit — used for the first and last sample of a sweep so
        short sweeps still record a watermark.
        """
        now = self._clock()
        if not force and now - self._last < self._interval:
            return self._last_rss
        self._last = now
        rss = self._rss()
        self._last_rss = rss
        if rss is None:
            return None
        t = round(now - self._t0, 6)
        if rss > self.max_rss_bytes:
            self.max_rss_bytes = rss
        if not self.series or t - self.series[-1][0] >= self._stride:
            self.series.append((t, rss))
            if len(self.series) >= self._series_max:
                # halve resolution in place: the series stays bounded
                # and chronologically complete however long the sweep
                self.series = self.series[::2]
                self._stride = max(self._stride * 2.0, self._interval * 2.0)
        if self._metrics is not None:
            self._metrics.gauge("repro_mem_rss_bytes").set(rss)
            self._metrics.gauge("repro_mem_rss_watermark_bytes").set(
                self.max_rss_bytes
            )
        if self._threshold is not None:
            if rss >= self._threshold and not self._over:
                self._over = True
                self.pressure_events += 1
                if self._metrics is not None:
                    self._metrics.counter("repro_mem_pressure_total").inc()
                if self._tracer is not None:
                    self._tracer.emit(
                        "mem_pressure", rss_bytes=rss,
                        threshold_bytes=self._threshold,
                        structs=dict(self.structs),
                    )
            elif self._over and rss < self._threshold * self._rearm:
                self._over = False
        return rss

    def note(self, struct: str, n_bytes: int) -> None:
        """Record the current byte size of a named big structure.

        Callers report what only they can know — the visited index,
        say — so
        ``mem_pressure`` events can say *where* the bytes live. Each
        structure is one gauge time series
        (``repro_mem_struct_bytes{struct=...}``).
        """
        self.structs[struct] = int(n_bytes)
        if self._metrics is not None:
            self._metrics.gauge(
                "repro_mem_struct_bytes", struct=struct
            ).set(int(n_bytes))

    def summary(self) -> dict:
        """The report block embedded into ``BENCH_explore.json``."""
        return {
            "max_rss_bytes": self.max_rss_bytes,
            "samples": len(self.series),
            "watermarks": [[t, b] for t, b in self.series],
            "structs": dict(self.structs),
            "pressure_events": self.pressure_events,
        }

    def close(self) -> None:
        """Take one final forced sample (the sweep's closing watermark)."""
        self.sample(force=True)


class NullMemWatch:
    """The disabled watcher: every method is a no-op."""

    enabled = False
    max_rss_bytes = 0
    series: list[tuple[float, int]] = []
    structs: dict[str, int] = {}
    pressure_events = 0

    def sample(self, force: bool = False) -> None:
        return None

    def note(self, struct: str, n_bytes: int) -> None:
        pass

    def summary(self) -> dict:
        return {
            "max_rss_bytes": 0, "samples": 0, "watermarks": [],
            "structs": {}, "pressure_events": 0,
        }

    def close(self) -> None:
        pass


#: the shared disabled watcher
NULL_MEMWATCH = NullMemWatch()
