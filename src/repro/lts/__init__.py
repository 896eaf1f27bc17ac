"""Labelled transition system (LTS) toolkit.

This subpackage is the reproduction's stand-in for the LTS side of the
muCRL toolset and CADP used in the paper: explicit-state generation
(the reference BFS, the level-vectorised engine), the certified
symmetry/ample reduction of a sweep, the Aldebaran ``.aut``
interchange format, deadlock detection with shortest counterexample
traces, lassos, and trace replay.
"""

from repro.lts.lts import LTS, Transition
from repro.lts.explore import (
    TransitionSystem,
    explore,
    ExplorationStats,
)
from repro.lts.engine import explore_fast
from repro.lts.statehash import mix64
from repro.lts.deadlock import DeadlockReport, find_deadlocks, shortest_trace_to
from repro.lts.trace import Trace, replay
from repro.lts.aut import read_aut, write_aut
from repro.lts.stats import lts_summary
from repro.lts.cycles import Lasso, find_lasso_avoiding

__all__ = [
    "LTS",
    "Transition",
    "TransitionSystem",
    "explore",
    "explore_fast",
    "ExplorationStats",
    "mix64",
    "DeadlockReport",
    "find_deadlocks",
    "shortest_trace_to",
    "Trace",
    "replay",
    "read_aut",
    "write_aut",
    "lts_summary",
    "Lasso",
    "find_lasso_avoiding",
]
