"""Flight recorder: structured tracing, metrics, and live progress.

The observability layer of the package. Four cooperating pieces:

* :mod:`repro.obs.metrics` — a get-or-create registry of counters,
  gauges and histograms with JSON and Prometheus text exposition;
* :mod:`repro.obs.tracer` — structured JSONL event traces with
  monotonic timestamps and a bounded ring-buffer mode;
* :mod:`repro.obs.progress` — a rate-limited live status line on
  stderr (states/s, frontier size, depth);
* :mod:`repro.obs.memwatch` — RSS sampling at heartbeat points, with
  high-watermarks, per-structure byte accounting and edge-triggered
  ``mem_pressure`` events.

They travel together as an :class:`Instrumentation` bundle. The
ambient default (:data:`NULL`) is fully disabled and costs one
attribute lookup at the instrumentation points, so the exploration
engines run un-instrumented at full speed unless a recorder is
activated — typically by the CLI's ``--trace`` / ``--metrics-out`` /
``--progress`` flags, or programmatically::

    from repro import obs

    inst = obs.Instrumentation(
        metrics=obs.MetricsRegistry(),
        tracer=obs.Tracer("sweep.jsonl"),
    )
    with obs.activate(inst):
        explore_fast(model)
    print(inst.metrics.render_prometheus())

``repro report sweep.jsonl`` then renders the trace as a timeline with
depth waves and the per-phase timing breakdown
(:func:`render_report`). The event schema and metric names are
documented in ``docs/observability.md``.
"""

from repro.obs.core import NULL, Instrumentation, activate, current
from repro.obs.memwatch import NULL_MEMWATCH, MemWatch, NullMemWatch, rss_bytes
from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    escape_label_value,
)
from repro.obs.progress import NULL_PROGRESS, NullProgress, ProgressReporter
from repro.obs.report import (
    phase_breakdown,
    render_report,
    report_from_file,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer, read_trace

__all__ = [
    "NULL",
    "NULL_MEMWATCH",
    "NULL_PROGRESS",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "MemWatch",
    "MetricsRegistry",
    "NullMemWatch",
    "NullProgress",
    "NullRegistry",
    "NullTracer",
    "ProgressReporter",
    "Tracer",
    "activate",
    "current",
    "escape_label_value",
    "phase_breakdown",
    "read_trace",
    "render_report",
    "report_from_file",
    "rss_bytes",
]
