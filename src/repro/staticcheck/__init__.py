"""Static protocol analysis (``repro lint``) — no exploration needed.

The analyzer approximates, in milliseconds and without building any
LTS, the lock-discipline and vacuity mistakes the paper's model
checking found the slow way: lockset dataflow over the protocol phase
graph and a cross-check of formula labels against the model's
vocabulary.

It also certifies reductions (``repro lint --certify``, and in-process
under ``--reduce``): a symmetry + independence analysis whose
:class:`ReductionCertificate` the exploration backends validate before
they quotient by processor/thread permutations or prune commuting
interleavings.
"""

from repro.staticcheck.analyzer import default_formulas, run_lint
from repro.staticcheck.certificates import ReductionCertificate, validate
from repro.staticcheck.findings import (
    LINT_SCHEMA_VERSION,
    RULES,
    Finding,
    LintReport,
    Severity,
)
from repro.staticcheck.independence import footprints, may_commute
from repro.staticcheck.labelcheck import (
    formula_literals,
    lint_labels,
    model_labels,
)
from repro.staticcheck.lockset import compute_locksets, lint_locksets
from repro.staticcheck.phasegraph import (
    GRANT_BLOCKERS,
    LockSlot,
    PhaseGraph,
    PhaseRule,
    phase_graph,
)
from repro.staticcheck.symmetry import (
    Permutation,
    admissible_group,
    certify,
    is_admissible,
)

__all__ = [
    "GRANT_BLOCKERS",
    "LINT_SCHEMA_VERSION",
    "RULES",
    "Finding",
    "LintReport",
    "LockSlot",
    "Permutation",
    "PhaseGraph",
    "PhaseRule",
    "ReductionCertificate",
    "Severity",
    "admissible_group",
    "certify",
    "compute_locksets",
    "default_formulas",
    "footprints",
    "formula_literals",
    "is_admissible",
    "lint_labels",
    "lint_locksets",
    "may_commute",
    "model_labels",
    "phase_graph",
    "run_lint",
    "validate",
]
