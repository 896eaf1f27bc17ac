"""A muCRL-style process algebra with data.

The paper specifies the Jackal protocol in muCRL: ACP-style process
terms (action prefix/sequencing ``.``, choice ``+``, data-parameterised
summation, the conditional ``p <| b |> q``, parallel composition with a
communication function, encapsulation and hiding) over equationally
specified data. This subpackage provides the same operators as a Python
DSL with standard structural operational semantics, so specifications
can be written, composed, and instantiated into LTSs with
:func:`repro.lts.explore`.

Overview::

    from repro.algebra import (Act, Seq, Alt, Sum, Cond, Call, Delta,
                               ProcessDef, Spec, FiniteSort, DVar, Fn,
                               Par, Encap, Hide, Comm, SpecSystem)

    # a one-place buffer: B = sum(d: D, r(d) . s(d) . B)
    D = FiniteSort("D", (0, 1))
    spec = Spec(
        defs=[ProcessDef("B", (), Sum("d", D, Seq(Act("r", DVar("d")),
                                                  Seq(Act("s", DVar("d")),
                                                      Call("B")))))],
    )
    system = SpecSystem(spec, Call("B"))

Synchronisation follows muCRL: two actions communicate iff the
communication function maps their pair of names and their data
arguments are equal, which models value passing.
"""

from repro.algebra.terms import (
    Act,
    Alt,
    Call,
    Cond,
    Delta,
    Expr,
    Const,
    DVar,
    Fn,
    FiniteSort,
    ProcessTerm,
    Seq,
    Sum,
    Tau,
)
from repro.algebra.spec import ProcessDef, Spec
from repro.algebra.composition import Comm, Par, Encap, Hide, Rename
from repro.algebra.semantics import SpecSystem, TERMINATED
from repro.algebra.pretty import pretty_term

__all__ = [
    "Act",
    "Alt",
    "Call",
    "Cond",
    "Delta",
    "Tau",
    "Expr",
    "Const",
    "DVar",
    "Fn",
    "FiniteSort",
    "ProcessTerm",
    "Seq",
    "Sum",
    "ProcessDef",
    "Spec",
    "Comm",
    "Par",
    "Encap",
    "Hide",
    "Rename",
    "SpecSystem",
    "TERMINATED",
    "pretty_term",
]
