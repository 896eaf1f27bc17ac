"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures without also swallowing programming
mistakes such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SpecificationError(ReproError):
    """A process-algebra specification is malformed.

    Raised for unknown process identifiers, arity mismatches, unbound
    data variables, or ill-formed communication functions.
    """


class ExplorationLimitError(ReproError):
    """State-space exploration exceeded a configured resource limit.

    Attributes
    ----------
    partial:
        The partially generated artifact — :func:`repro.lts.explore.explore`
        attaches the partial LTS, :func:`repro.lts.explore.breadth_first_states`
        the set of states discovered so far (may be ``None`` when nothing
        useful was produced before the limit hit).
    stats:
        The partially filled ``ExplorationStats`` of the aborted sweep
        (``None`` when the raising path tracks none).
    """

    def __init__(self, message: str, partial=None, stats=None):
        super().__init__(message)
        self.partial = partial
        self.stats = stats


class FormulaSyntaxError(ReproError):
    """A mu-calculus formula failed to parse.

    Attributes
    ----------
    position:
        Character offset in the formula text where parsing failed.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class FormulaSemanticsError(ReproError):
    """A formula is syntactically valid but not checkable.

    Raised for unbound fixpoint variables, variables under an odd number
    of negations, or alternating fixpoints (this library implements the
    alternation-free fragment, like CADP's Evaluator 3.x used in the
    paper).
    """


class ModelError(ReproError):
    """The Jackal protocol model reached an internally inconsistent state.

    This signals a bug in the *model implementation* (as opposed to a
    protocol assertion failure, which is an expected analysis outcome and
    is reported as a reachable ``assertion_violation`` action).
    """


class TraceError(ReproError):
    """A trace cannot be replayed on the given model or LTS."""


class AutFormatError(ReproError):
    """An ``.aut`` file (CADP's Aldebaran format) is malformed."""
