"""The instrumentation bundle and the ambient default.

All instrumented code in this package takes (or looks up) one
:class:`Instrumentation` — a metrics registry, a tracer, and a progress
reporter travelling together. The module-level default is
:data:`NULL` (everything disabled), so library calls cost one
attribute lookup when nobody is recording; the CLI activates a real
bundle around each command with :func:`activate`, which also reaches
code that is not worth threading a parameter through (the mu-calculus
evaluator's fixpoint loops, the requirement checks).
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.memwatch import NULL_MEMWATCH, MemWatch
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.progress import NULL_PROGRESS, ProgressReporter
from repro.obs.tracer import NULL_TRACER, Tracer


class Instrumentation:
    """A metrics registry + tracer + progress + memory watcher, or no-ops.

    ``enabled`` is true when any component is live — the single flag
    hot loops branch on (per wave, not per state).
    """

    __slots__ = ("metrics", "tracer", "progress", "memwatch", "enabled")

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        progress: ProgressReporter | None = None,
        memwatch: MemWatch | None = None,
    ):
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.progress = progress if progress is not None else NULL_PROGRESS
        self.memwatch = memwatch if memwatch is not None else NULL_MEMWATCH
        self.enabled = bool(
            self.metrics.enabled or self.tracer.enabled
            or self.progress.enabled or self.memwatch.enabled
        )

    def close(self) -> None:
        """Finish the progress line and flush/close the trace sink."""
        self.progress.done()
        self.memwatch.close()
        self.tracer.close()

    def __enter__(self) -> "Instrumentation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: the all-disabled bundle (the ambient default)
NULL = Instrumentation()

_current: Instrumentation = NULL


def current() -> Instrumentation:
    """The ambient instrumentation (``NULL`` unless activated)."""
    return _current


@contextmanager
def activate(inst: Instrumentation):
    """Make ``inst`` the ambient instrumentation within the block."""
    global _current
    saved = _current
    _current = inst
    try:
        yield inst
    finally:
        _current = saved
