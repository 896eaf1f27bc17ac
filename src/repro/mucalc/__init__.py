"""Regular alternation-free mu-calculus model checking.

This subpackage reproduces the role of CADP's *Evaluator* in the paper:
formulas of the regular alternation-free mu-calculus (Mateescu &
Sighireanu) are checked over explicit LTSs. The paper's requirement
formulas, e.g.::

    [T*."c_home"] F
    <T*> (<"c_copy">T /\\ <"lock_empty">T /\\ <"homequeue_empty">T
          /\\ <"remotequeue_empty">T)
    [T*."write(t0)"] mu X. (<T>T /\\ [not "writeover(t0)"] X)

parse and check verbatim (see :mod:`repro.mucalc.parser` for the
concrete grammar, which follows the paper's notation).
"""

from repro.mucalc.syntax import (
    Formula,
    Tt,
    Ff,
    Var,
    And,
    Or,
    Not,
    Diamond,
    Box,
    Mu,
    Nu,
    ActionPredicate,
    AnyAct,
    ActLit,
    NotAct,
    OrAct,
    AndAct,
    Regular,
    RAct,
    RSeq,
    RAlt,
    RStar,
    free_variables,
    assert_alternation_free,
)
from repro.mucalc.parser import parse_formula
from repro.mucalc.checker import check, check_many, holds, satisfying_states
from repro.mucalc.diagnostics import witness_diamond, counterexample_box
from repro.mucalc.bes import formula_to_bes, solve_bes, BES

__all__ = [
    "Formula",
    "Tt",
    "Ff",
    "Var",
    "And",
    "Or",
    "Not",
    "Diamond",
    "Box",
    "Mu",
    "Nu",
    "ActionPredicate",
    "AnyAct",
    "ActLit",
    "NotAct",
    "OrAct",
    "AndAct",
    "Regular",
    "RAct",
    "RSeq",
    "RAlt",
    "RStar",
    "free_variables",
    "assert_alternation_free",
    "parse_formula",
    "check",
    "check_many",
    "holds",
    "satisfying_states",
    "witness_diamond",
    "counterexample_box",
    "formula_to_bes",
    "solve_bes",
    "BES",
]
