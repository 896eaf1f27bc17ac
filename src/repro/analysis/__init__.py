"""Analysis aids: trace replay and explanation, reporting.

The paper's authors report that interpreting error traces — "typically
more than 300 transitions" — took a lot of time, and explicitly wish
for "a simulation tool that helps to automatically execute and
interpret such long traces". This subpackage is that tool for the
reproduction:

* :mod:`repro.analysis.explain` — replays a protocol trace and narrates
  it in English with per-step protocol context (``repro narrate``);
* :mod:`repro.analysis.reporting` — ASCII tables for the experiment
  harness (Table 8 and friends).
"""

from repro.analysis.explain import explain_label, narrate_trace
from repro.analysis.reporting import format_table, Table

__all__ = [
    "explain_label",
    "narrate_trace",
    "format_table",
    "Table",
]
