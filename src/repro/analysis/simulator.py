"""A name kept for the pipeline benchmark, which replays its traces
through ``Simulator(model).run(labels)``.

:func:`repro.lts.trace.replay` is the one replayer: it follows each
label exactly and refuses one that is not enabled. ``repro narrate`` is
the tool that replays and explains a trace. This shim goes when the
benchmark calls :func:`~repro.lts.trace.replay` itself.
"""

from __future__ import annotations

from typing import Sequence

from repro.lts.trace import Trace, replay


class Simulator:
    """``Simulator(system).run(labels)`` is ``replay(system, labels)``."""

    def __init__(self, system):
        self.system = system

    def run(self, labels: Sequence[str]) -> Trace:
        """Replay ``labels`` from the initial state (see :func:`replay`)."""
        return replay(self.system, labels)
