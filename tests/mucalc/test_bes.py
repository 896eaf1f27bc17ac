"""Tests for the boolean equation system backend."""

import pytest

from repro.errors import FormulaSemanticsError
from repro.lts.lts import LTS
from tests.bes import BES, Block, bes_holds, formula_to_bes, solve_bes
from tests.oracles import lts_of
from repro.mucalc.parser import parse_formula
from repro.mucalc.syntax import Diamond, Not, RAct, ActLit, Tt


def ring() -> LTS:
    return lts_of([(0, "a", 1), (1, "b", 2), (2, "c", 0), (1, "d", 3)])


def test_simple_diamond():
    l = ring()
    bes = formula_to_bes(l, parse_formula("<d> T"))
    vals = solve_bes(bes)
    answers = [vals[v] for v in bes.root_of_state]
    assert answers == [False, True, False, False]


def test_safety_formula():
    l = ring()
    assert not bes_holds(l, parse_formula("[T*.d] F"))
    assert bes_holds(l, parse_formula("[T*.z] F"))


def test_inevitability():
    l = lts_of([(0, "a", 1), (1, "b", 2)])
    assert bes_holds(l, parse_formula("mu X. (<T>T /\\ [not b] X)"))
    assert not bes_holds(ring(), parse_formula("mu X. (<T>T /\\ [not d] X)"))


def test_nu_blocks_default_true():
    l = lts_of([(0, "a", 0)])
    assert bes_holds(l, parse_formula("nu X. <a> X"))
    assert not bes_holds(l, parse_formula("mu X. <a> X"))


def test_negation_rejected():
    l = ring()
    with pytest.raises(FormulaSemanticsError, match="negation"):
        formula_to_bes(l, Not(Diamond(RAct(ActLit("a")), Tt())))


def test_blocks_structure():
    l = ring()
    bes = formula_to_bes(l, parse_formula("[T*.d] F /\\ <T*.d> T"))
    signs = [b.sign for b in bes.blocks]
    assert "mu" in signs and "nu" in signs


def test_owner_lookup():
    l = ring()
    bes = formula_to_bes(l, parse_formula("<d> T"))
    blk = bes.owner(bes.root)
    assert bes.root in blk.eqs
    with pytest.raises(KeyError):
        bes.owner(10**9)


def test_solve_empty_bes():
    assert solve_bes(BES(blocks=[Block("mu")], n_vars=0)) == []


def test_shadowed_variables():
    # outer and inner fixpoint share the name X; binding must restore
    l = ring()
    f = parse_formula("mu X. (<d>T \\/ (mu X. (<b>T \\/ <T>X)) \\/ <a>X)")
    from repro.mucalc.checker import holds

    assert bes_holds(l, f) == holds(l, f)
