"""Tests for witness extraction (a counterexample is a witness of the
negation)."""

from hypothesis import given, settings

from repro.lts.lts import LTS
from repro.mucalc.checker import check, holds
from repro.mucalc.diagnostics import compile_nfa, witness_diamond
from repro.mucalc.parser import parse_formula
from repro.mucalc.syntax import (
    ActLit,
    AnyAct,
    Ff,
    Not,
    RAct,
    RAlt,
    RSeq,
    RStar,
    Tt,
)
from tests.conftest import random_lts
from tests.oracles import lts_of


def ladder() -> LTS:
    return lts_of([
        (0, "a", 1), (1, "b", 2), (0, "x", 3), (3, "b", 2), (2, "bad", 4),
    ])


def test_counterexample_shortest():
    l = ladder()
    f = parse_formula("[T*.bad] F")
    # a counterexample to [R] f is a witness of <R> not f
    t = witness_diamond(l, f.reg, Not(f.inner))
    assert t is not None
    assert len(t) == 3
    assert t.labels[-1] == "bad"


def test_counterexample_none_when_holds():
    l = lts_of([(0, "a", 1)])
    f = parse_formula("[T*.bad] F")
    assert witness_diamond(l, f.reg, Not(f.inner)) is None


def test_witness_diamond():
    l = ladder()
    f = parse_formula("<T*.bad> T")
    t = witness_diamond(l, f.reg, f.inner)
    assert t.labels[-1] == "bad"
    assert len(t) == 3


def test_witness_empty_path():
    l = ladder()
    t = witness_diamond(l, RStar(RAct(AnyAct())), Tt())
    assert t.labels == ()


def test_witness_respects_regex():
    l = ladder()
    # path must be exactly x then b
    reg = RSeq(RAct(ActLit("x")), RAct(ActLit("b")))
    t = witness_diamond(l, reg, Tt())
    assert t.labels == ("x", "b")


def test_witness_alternation():
    l = ladder()
    reg = RSeq(RAlt(RAct(ActLit("a")), RAct(ActLit("x"))), RAct(ActLit("b")))
    t = witness_diamond(l, reg, Tt())
    assert t.labels in (("a", "b"), ("x", "b"))


def test_witness_none_when_unreachable():
    l = ladder()
    assert witness_diamond(l, RAct(ActLit("zzz")), Tt()) is None


def test_nfa_construction():
    nfa = compile_nfa(RStar(RAct(ActLit("a"))))
    assert nfa.n >= 2
    assert len(nfa.edges) == 1
    assert len(nfa.eps) == 4


@given(random_lts())
@settings(max_examples=40, deadline=None)
def test_witness_exists_iff_formula_holds(l):
    from repro.mucalc.syntax import Diamond

    reg = RSeq(RStar(RAct(AnyAct())), RAct(ActLit("a")))
    f = Diamond(reg, Tt())
    t = witness_diamond(l, reg, Tt())
    assert (t is not None) == holds(l, f)


@given(random_lts())
@settings(max_examples=40, deadline=None)
def test_witness_replays_through_regex(l):
    reg = RSeq(RStar(RAct(ActLit("a"))), RAct(ActLit("b")))
    t = witness_diamond(l, reg, Tt())
    if t is not None:
        # every label but the last must be 'a', last must be 'b'
        assert all(lab == "a" for lab in t.labels[:-1])
        assert t.labels[-1] == "b"
