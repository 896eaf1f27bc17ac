"""Flight recorder: one structured trace per run, and its report.

:mod:`repro.obs.tracer` writes every lifecycle event of an exploration
or check — sweep start/end, BFS depth waves, fixpoint solves,
requirement checks — as one JSON object per line with a monotonic
timestamp, to a file or a bounded in-memory ring. The ambient default
(:data:`NULL_TRACER`) is disabled and costs one attribute lookup at the
instrumentation points, so the exploration engines run at full speed
unless a tracer is activated — by the CLI's ``--trace`` /
``--trace-ring`` flags, or programmatically::

    from repro import obs

    with obs.Tracer("sweep.jsonl") as tracer, obs.activate(tracer):
        explore_fast(model)

``repro report sweep.jsonl`` (:mod:`repro.obs.report`, imported where
it is used) then renders the trace as a timeline with depth waves, the
per-phase timing breakdown and a whole-run account. The event schema
is documented in ``docs/observability.md``.
"""

from repro.obs.core import activate, current
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer, clock, read_trace

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "activate",
    "clock",
    "current",
    "read_trace",
]
