"""The ambient tracer and the one memory reading a sweep records.

Instrumented code takes a tracer or looks up the ambient one with
:func:`current`. The module-level default is :data:`NULL_TRACER`, so
library calls cost one attribute lookup when nobody is recording; the
CLI activates a real :class:`~repro.obs.tracer.Tracer` around each
command with :func:`activate`, which also reaches code that is not
worth threading a parameter through (the mu-calculus evaluator's
fixpoint loops, the requirement checks).
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

from repro.obs.tracer import NULL_TRACER

_current = NULL_TRACER


def current():
    """The ambient tracer (``NULL_TRACER`` unless one is activated)."""
    return _current


@contextmanager
def activate(tracer):
    """Make ``tracer`` the ambient tracer within the block."""
    global _current
    saved = _current
    _current = tracer
    try:
        yield tracer
    finally:
        _current = saved


def peak_rss_bytes() -> int:
    """The process's peak resident set size in bytes (0 where unknown).

    ``ru_maxrss`` is the kernel's own high-watermark, so it is exact
    however short the peak was; it is KiB on Linux and bytes on macOS.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - not a POSIX platform
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024
