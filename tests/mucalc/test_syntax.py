"""Tests for formula syntax and static checks."""

import pytest

from repro.errors import FormulaSemanticsError
from repro.mucalc.syntax import (
    ActLit,
    And,
    AnyAct,
    Box,
    Diamond,
    Ff,
    Mu,
    Not,
    NotAct,
    Nu,
    Or,
    OrAct,
    RAct,
    RSeq,
    RStar,
    Tt,
    Var,
    assert_alternation_free,
    free_variables,
    subformulas,
)


def test_action_predicates():
    assert AnyAct().matches("anything")
    assert ActLit("a").matches("a")
    assert not ActLit("a").matches("ab")
    assert ActLit("write(", prefix=True).matches("write(t0)")
    assert NotAct(ActLit("a")).matches("b")
    assert OrAct(ActLit("a"), ActLit("b")).matches("b")


def test_action_predicate_str():
    assert str(AnyAct()) == "T"
    assert str(ActLit("a")) == '"a"'
    assert str(ActLit("w", prefix=True)) == '"w*"'
    assert "not" in str(NotAct(ActLit("a")))


def test_free_variables():
    f = Mu("X", Or(Var("X"), Diamond(RAct(AnyAct()), Var("Y"))))
    assert free_variables(f) == {"Y"}
    assert free_variables(Tt()) == frozenset()


def test_subformulas():
    f = And(Tt(), Or(Ff(), Var("X")))
    kinds = [type(g).__name__ for g in subformulas(f)]
    assert kinds == ["And", "Tt", "Or", "Ff", "Var"]


def test_alternation_free_accepts_nested_same_sign():
    f = Mu("X", Or(Var("X"), Mu("Y", Or(Var("Y"), Var("X")))))
    assert_alternation_free(f)


def test_alternation_free_accepts_independent_mixed():
    # a nu inside a mu is fine when it does not use the mu variable
    f = Mu("X", Or(Var("X"), Nu("Y", And(Var("Y"), Tt()))))
    assert_alternation_free(f)


def test_alternation_rejected():
    f = Nu("X", Mu("Y", Or(Var("X"), Var("Y"))))
    with pytest.raises(FormulaSemanticsError, match="alternating"):
        assert_alternation_free(f)


def test_alternation_rejected_through_intermediate():
    f = Mu("X", Nu("Y", Mu("Z", And(Var("X"), Var("Z")))))
    with pytest.raises(FormulaSemanticsError, match="alternating"):
        assert_alternation_free(f)


def test_unbound_variable_rejected():
    with pytest.raises(FormulaSemanticsError, match="unbound"):
        assert_alternation_free(Var("X"))


def test_negated_variable_rejected():
    f = Mu("X", Not(Var("X")))
    with pytest.raises(FormulaSemanticsError):
        assert_alternation_free(f)


def test_negation_over_closed_ok():
    f = Mu("X", Or(Not(Diamond(RAct(ActLit("a")), Tt())), Var("X")))
    assert_alternation_free(f)


def test_str_rendering():
    f = Box(RSeq(RStar(RAct(AnyAct())), RAct(ActLit("c_home"))), Ff())
    assert str(f) == '[T*."c_home"]F'
    g = Mu("X", And(Diamond(RAct(AnyAct()), Tt()), Var("X")))
    assert str(g) == "mu X.(<T>T /\\ X)"
