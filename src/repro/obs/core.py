"""The ambient tracer and the one memory reading a sweep records.

Instrumented code records on :func:`current`, which is
:data:`NULL_TRACER` unless :func:`activate` made a tracer current —
the one way to choose it; the CLI does so around each command.
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
