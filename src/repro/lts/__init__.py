"""Labelled transition system (LTS) toolkit.

This subpackage is the reproduction's stand-in for the LTS side of the
muCRL toolset and CADP used in the paper: explicit-state generation
(serial and bitstate-hashed), the Aldebaran ``.aut``
interchange format, behavioural reductions (strong and branching
bisimulation, tau-compression), deadlock detection with shortest
counterexample traces, and trace replay.
"""

from repro.lts.lts import LTS, Transition
from repro.lts.explore import (
    TransitionSystem,
    explore,
    breadth_first_states,
    ExplorationStats,
)
from repro.lts.engine import explore_fast
from repro.lts.statehash import mix64, state_key64, double_hashes
from repro.lts.deadlock import DeadlockReport, find_deadlocks, shortest_trace_to
from repro.lts.trace import Trace, replay
from repro.lts.reduction import (
    strong_bisimulation_classes,
    minimize_strong,
    branching_bisimulation_classes,
    minimize_branching,
    compress_tau_cycles,
    bisimilar,
)
from repro.lts.bitstate import bitstate_explore, BitstateResult
from repro.lts.aut import read_aut, write_aut
from repro.lts.stats import lts_summary, degree_histogram
from repro.lts.cycles import Lasso, find_lasso_avoiding
from repro.lts.dot import write_dot

__all__ = [
    "LTS",
    "Transition",
    "TransitionSystem",
    "explore",
    "explore_fast",
    "breadth_first_states",
    "ExplorationStats",
    "mix64",
    "state_key64",
    "double_hashes",
    "DeadlockReport",
    "find_deadlocks",
    "shortest_trace_to",
    "Trace",
    "replay",
    "strong_bisimulation_classes",
    "minimize_strong",
    "branching_bisimulation_classes",
    "minimize_branching",
    "compress_tau_cycles",
    "bisimilar",
    "bitstate_explore",
    "BitstateResult",
    "read_aut",
    "write_aut",
    "lts_summary",
    "degree_histogram",
    "Lasso",
    "find_lasso_avoiding",
    "write_dot",
]
