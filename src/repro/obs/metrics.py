"""Metrics registry: counters, gauges, histograms.

The flight recorder's aggregate side. Instruments are get-or-created by
name (plus optional Prometheus-style labels) from a
:class:`MetricsRegistry`; a sweep increments counters as it goes and
the registry renders the final values as JSON or Prometheus text
exposition.

Overhead discipline: the whole package defaults to the shared
:data:`NULL_REGISTRY`, whose instruments are inert singletons — a
disabled counter increment is one attribute lookup plus a no-op call,
and hot loops are expected to hoist even that out by checking
``registry.enabled`` (or :attr:`Instrumentation.enabled
<repro.obs.core.Instrumentation.enabled>`) once per wave rather than
once per state.
"""

from __future__ import annotations

import json
import math

#: default histogram bucket upper bounds (seconds-flavoured, but any
#: unit works — buckets are cumulative, Prometheus style)
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: tuple = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        self.value += n

    def snapshot(self):
        return self.value


class Gauge:
    """A value that goes up and down (frontier size, RSS)."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: tuple = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = v

    def inc(self, n: float = 1) -> None:
        self.value += n

    def dec(self, n: float = 1) -> None:
        self.value -= n

    def snapshot(self):
        return self.value


class Histogram:
    """A distribution summarised by cumulative buckets + count/sum/min/max."""

    __slots__ = ("name", "labels", "bounds", "buckets", "count", "sum",
                 "min", "max")
    kind = "histogram"

    def __init__(self, name: str, labels: tuple = (), bounds=DEFAULT_BUCKETS):
        self.name = name
        self.labels = labels
        self.bounds = tuple(bounds)
        self.buckets = [0] * (len(self.bounds) + 1)  # +inf bucket last
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, v: float) -> None:
        self.count += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        for i, bound in enumerate(self.bounds):
            if v <= bound:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    def snapshot(self):
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.sum / self.count if self.count else None,
            "buckets": {
                str(b): n for b, n in zip(self.bounds, self.buckets)
            } | {"+Inf": self.buckets[-1]},
        }


class _NullInstrument:
    """Shared inert instrument: every mutation is a no-op."""

    __slots__ = ()

    def inc(self, n=1):
        pass

    def dec(self, n=1):
        pass

    def set(self, v):
        pass

    def observe(self, v):
        pass


_NULL_INSTRUMENT = _NullInstrument()


def _labels_key(labels: dict | None) -> tuple:
    return tuple(sorted(labels.items())) if labels else ()


def escape_label_value(v) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash, double quote and newline are the three characters the
    spec requires escaped inside quoted label values; anything else
    passes through. Without this, a label value like a Windows path or
    a multi-line spec fingerprint corrupts the whole exposition.
    """
    return (
        str(v)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


class MetricsRegistry:
    """Named instruments, get-or-created on first use.

    ``counter("x", backend="serial")`` and ``counter("x",
    backend="engine")`` are two time series of the same metric family,
    rendered Prometheus-style as ``x{backend="serial"}`` /
    ``x{backend="engine"}``.
    """

    enabled = True

    def __init__(self):
        self._instruments: dict[tuple, Counter | Gauge | Histogram] = {}

    def _get(self, cls, name: str, labels: dict | None, **kw):
        key = (name, _labels_key(labels))
        inst = self._instruments.get(key)
        if inst is None:
            inst = self._instruments[key] = cls(name, key[1], **kw)
        elif not isinstance(inst, cls):
            raise ValueError(
                f"metric {name!r} already registered as {inst.kind}"
            )
        return inst

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, bounds=DEFAULT_BUCKETS, **labels) -> Histogram:
        return self._get(Histogram, name, labels, bounds=bounds)

    # -- exposition ---------------------------------------------------------

    def instruments(self):
        """All instruments in registration order."""
        return list(self._instruments.values())

    def snapshot(self) -> dict:
        """Plain-dict view: ``name`` or ``name{a=1,b=2}`` -> value."""
        out: dict = {}
        for inst in self._instruments.values():
            if inst.labels:
                rendered = ",".join(f"{k}={v}" for k, v in inst.labels)
                key = f"{inst.name}{{{rendered}}}"
            else:
                key = inst.name
            out[key] = inst.snapshot()
        return out

    def render_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def render_prometheus(self) -> str:
        """Prometheus text exposition (one ``# TYPE`` line per family)."""
        lines: list[str] = []
        typed: set[str] = set()
        for inst in self._instruments.values():
            if inst.name not in typed:
                typed.add(inst.name)
                lines.append(f"# TYPE {inst.name} {inst.kind}")
            suffix = ""
            if inst.labels:
                rendered = ",".join(
                    f'{k}="{escape_label_value(v)}"' for k, v in inst.labels
                )
                suffix = f"{{{rendered}}}"
            if isinstance(inst, Histogram):
                cum = 0
                for bound, n in zip(inst.bounds, inst.buckets):
                    cum += n
                    sep = "," if inst.labels else ""
                    inner = (suffix[1:-1] + sep) if inst.labels else ""
                    lines.append(
                        f'{inst.name}_bucket{{{inner}le="{bound}"}} {cum}'
                    )
                cum += inst.buckets[-1]
                inner = (suffix[1:-1] + ",") if inst.labels else ""
                lines.append(f'{inst.name}_bucket{{{inner}le="+Inf"}} {cum}')
                lines.append(f"{inst.name}_sum{suffix} {inst.sum}")
                lines.append(f"{inst.name}_count{suffix} {inst.count}")
            else:
                lines.append(f"{inst.name}{suffix} {inst.value}")
        return "\n".join(lines) + ("\n" if lines else "")


class NullRegistry(MetricsRegistry):
    """The disabled registry: every instrument is the shared no-op.

    The module-level default, so un-instrumented runs pay one attribute
    lookup (``registry.enabled``) and nothing else.
    """

    enabled = False

    def __init__(self):
        super().__init__()

    def counter(self, name: str, **labels):
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels):
        return _NULL_INSTRUMENT

    def histogram(self, name: str, bounds=DEFAULT_BUCKETS, **labels):
        return _NULL_INSTRUMENT


#: the shared disabled registry (see :class:`NullRegistry`)
NULL_REGISTRY = NullRegistry()
