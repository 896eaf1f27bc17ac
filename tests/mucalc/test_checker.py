"""Tests for the model checker semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormulaSemanticsError
from repro.lts.lts import LTS
from repro.mucalc.checker import check, expand_regular, holds, satisfying_states
from repro.mucalc.parser import parse_formula
from repro.mucalc.syntax import (
    ActLit,
    And,
    AnyAct,
    Box,
    Diamond,
    Ff,
    Mu,
    Not,
    Nu,
    Or,
    RAct,
    RAlt,
    RSeq,
    RStar,
    Tt,
    Var,
    subformulas,
)
from tests.conftest import random_lts


def ring() -> LTS:
    """0 -a-> 1 -b-> 2 -c-> 0 with 1 -d-> 3 (terminal)."""
    l = LTS(0)
    l.add_transition(0, "a", 1)
    l.add_transition(1, "b", 2)
    l.add_transition(2, "c", 0)
    l.add_transition(1, "d", 3)
    return l


def test_truth_and_falsity():
    l = ring()
    assert check(l, Tt()).all()
    assert not check(l, Ff()).any()


def test_diamond_single_step():
    l = ring()
    v = check(l, Diamond(RAct(ActLit("b")), Tt()))
    assert v.tolist() == [False, True, False, False]


def test_box_single_step_vacuous_on_terminal():
    l = ring()
    v = check(l, Box(RAct(ActLit("z")), Ff()))
    assert v.all()  # no z-transitions anywhere: vacuously true


def test_box_violated():
    l = ring()
    v = check(l, Box(RAct(ActLit("d")), Ff()))
    assert v.tolist() == [True, False, True, True]


def test_reachability_diamond_star():
    l = ring()
    v = check(l, Diamond(RSeq(RStar(RAct(AnyAct())), RAct(ActLit("d"))), Tt()))
    # d reachable from 0,1,2 (cycle) but not from 3
    assert v.tolist() == [True, True, True, False]


def test_safety_box_star():
    l = ring()
    f = parse_formula("[T*.d] F")
    assert not holds(l, f)
    l2 = LTS(0)
    l2.add_transition(0, "a", 1)
    assert holds(l2, parse_formula("[T*.d] F"))


def test_inevitability_true():
    # 0 -a-> 1 -b-> 2 (all roads lead through b)
    l = LTS(0)
    l.add_transition(0, "a", 1)
    l.add_transition(1, "b", 2)
    f = parse_formula("mu X. (<T>T /\\ [not b] X)")
    assert holds(l, f)


def test_inevitability_false_on_cycle():
    f = parse_formula("mu X. (<T>T /\\ [not d] X)")
    assert not holds(ring(), f)  # can cycle a-b-c forever


def test_inevitability_false_on_terminal_escape():
    # 0 -a-> 1 (terminal), 0 -b-> 2 -goal-> 3
    l = LTS(0)
    l.add_transition(0, "a", 1)
    l.add_transition(0, "b", 2)
    l.add_transition(2, "goal", 3)
    f = parse_formula("mu X. (<T>T /\\ [not goal] X)")
    assert not holds(l, f)


def test_nu_safety_invariant():
    l = ring()
    # invariant: always some move OR we are state 3
    f = Nu("X", And(Or(Diamond(RAct(AnyAct()), Tt()), Not(Diamond(RAct(AnyAct()), Tt()))), Box(RAct(AnyAct()), Var("X"))))
    assert holds(l, f)  # trivially true invariant


def test_nu_diamond_cycle_detection():
    # nu X. <a> X holds exactly on states with an infinite a-path
    l = LTS(0)
    l.add_transition(0, "a", 1)
    l.add_transition(1, "a", 0)
    l.add_transition(2, "a", 0)
    l.ensure_states(4)  # 3 has no moves
    v = check(l, Nu("X", Diamond(RAct(ActLit("a")), Var("X"))))
    assert v.tolist() == [True, True, True, False]


def test_regular_alternative():
    l = ring()
    v = check(l, Diamond(RAlt(RAct(ActLit("a")), RAct(ActLit("c"))), Tt()))
    assert v.tolist() == [True, False, True, False]


def test_box_alternative_is_conjunction():
    l = ring()
    f = Box(RAlt(RAct(ActLit("a")), RAct(ActLit("d"))), Ff())
    v = check(l, f)
    assert v.tolist() == [False, False, True, True]


def test_expand_regular_structure():
    f = Box(RStar(RAct(AnyAct())), Ff())
    g = expand_regular(f)
    assert isinstance(g, Nu)
    f2 = Diamond(RStar(RAct(AnyAct())), Tt())
    assert isinstance(expand_regular(f2), Mu)


def test_satisfying_states():
    l = ring()
    assert satisfying_states(l, Diamond(RAct(ActLit("d")), Tt())) == [1]


def test_unexpanded_modality_rejected():
    from repro.mucalc.checker import _Evaluator

    with pytest.raises(FormulaSemanticsError):
        _Evaluator(ring()).eval(Box(RStar(RAct(AnyAct())), Ff()), {})


def test_kleene_fallback_matches_fast_path():
    # force the fallback by using the variable twice
    l = ring()
    fast = check(l, Mu("X", Or(Diamond(RAct(ActLit("d")), Tt()),
                               Diamond(RAct(AnyAct()), Var("X")))))
    slow = check(l, Mu("X", Or(Diamond(RAct(ActLit("d")), Tt()),
                               Or(Diamond(RAct(AnyAct()), Var("X")),
                                  Diamond(RAct(ActLit("a")), Var("X"))))))
    assert np.array_equal(fast, slow)


def test_negation_of_closed():
    l = ring()
    v = check(l, Not(Diamond(RAct(ActLit("d")), Tt())))
    assert v.tolist() == [True, False, True, True]


# -- property-based: duality and backend agreement -------------------------


@st.composite
def closed_formula(draw, depth=3):
    """Random closed negation-free formula over labels a/b/c/tau."""
    labels = ["a", "b", "c", "tau"]
    if depth == 0:
        return draw(st.sampled_from([Tt(), Ff(),
                                     Diamond(RAct(ActLit(draw(st.sampled_from(labels)))), Tt()),
                                     Box(RAct(ActLit(draw(st.sampled_from(labels)))), Ff())]))
    kind = draw(st.sampled_from(["and", "or", "dia", "box", "mu", "nu", "leaf"]))
    if kind == "leaf":
        return draw(closed_formula(depth=0))
    if kind in ("and", "or"):
        l = draw(closed_formula(depth=depth - 1))
        r = draw(closed_formula(depth=depth - 1))
        return And(l, r) if kind == "and" else Or(l, r)
    if kind in ("dia", "box"):
        lab = draw(st.sampled_from(labels + ["*any*"]))
        pred = AnyAct() if lab == "*any*" else ActLit(lab)
        reg = draw(st.sampled_from([RAct(pred), RStar(RAct(pred)),
                                    RSeq(RAct(AnyAct()), RAct(pred))]))
        inner = draw(closed_formula(depth=depth - 1))
        return Diamond(reg, inner) if kind == "dia" else Box(reg, inner)
    # fixpoints: single-variable canonical shapes
    inner = draw(closed_formula(depth=depth - 1))
    lab = draw(st.sampled_from(labels))
    if kind == "mu":
        return Mu("Z", Or(inner, Diamond(RAct(ActLit(lab)), Var("Z"))))
    return Nu("Z", And(inner, Box(RAct(ActLit(lab)), Var("Z"))))


@given(random_lts(), closed_formula())
@settings(max_examples=60, deadline=None)
def test_checker_agrees_with_bes_backend(l, f):
    from repro.mucalc.bes import bes_holds

    r = l.restricted_to_reachable()
    if r.n_states == 0:
        return
    assert holds(r, f) == bes_holds(r, f)


@given(random_lts())
@settings(max_examples=60, deadline=None)
def test_box_diamond_duality(l):
    f_box = Box(RAct(ActLit("a")), Diamond(RAct(AnyAct()), Tt()))
    f_dual = Not(Diamond(RAct(ActLit("a")), Not(Diamond(RAct(AnyAct()), Tt()))))
    assert np.array_equal(check(l, f_box), check(l, f_dual))


@given(random_lts())
@settings(max_examples=60, deadline=None)
def test_star_unfolding(l):
    # <a*>phi == phi \/ <a><a*>phi
    phi = Diamond(RAct(ActLit("b")), Tt())
    star = Diamond(RStar(RAct(ActLit("a"))), phi)
    unfolded = Or(phi, Diamond(RAct(ActLit("a")), star))
    assert np.array_equal(check(l, star), check(l, unfolded))


def test_check_many_matches_holds():
    from repro.mucalc.checker import check_many

    l = ring()
    formulas = [
        parse_formula("[T*.d] F"),
        parse_formula("<T*.d> T"),
        parse_formula("mu X. (<T>T /\\ [not d] X)"),
        parse_formula("nu Y. ([T] Y /\\ T)"),
    ]
    assert check_many(l, formulas) == [holds(l, f) for f in formulas]


def test_check_many_reuses_context():
    from repro import obs
    from repro.mucalc.checker import check_many

    l = ring()
    # a repeated formula is a memo hit, not a second solve
    f = parse_formula("<T*.d> T")
    inst = obs.Instrumentation(tracer=obs.Tracer())
    with obs.activate(inst):
        assert check_many(l, [f, f, f]) == [True, True, True]
    solved = [e for e in inst.tracer.events() if e["ev"] == "fixpoint"]
    assert len(solved) == 1


def test_expand_regular_is_deterministic():
    f = parse_formula("[T*.a.(not b)*] <T*.b> T")
    assert expand_regular(f) == expand_regular(f)
    # binders are distinct and avoid the names the formula already uses
    g = expand_regular(Mu("_R0", Or(Diamond(RStar(RAct(AnyAct())), Var("_R0")),
                                    Diamond(RStar(RAct(ActLit("a"))), Tt()))))
    binders = [h.var for h in subformulas(g) if isinstance(h, (Mu, Nu))]
    assert binders == ["_R0", "_R1", "_R2"]


def test_closed_subformula_solved_once_inside_a_fixpoint_body():
    from repro import obs

    # the inevitability core is closed: probing the outer fixpoint's
    # body (hole at 0, then at 1) must not solve it twice
    f = parse_formula("[T*.a] mu X. (<T>T /\\ [not d] X)")
    inst = obs.Instrumentation(tracer=obs.Tracer())
    with obs.activate(inst):
        check(ring(), f)
    solved = [e["var"] for e in inst.tracer.events() if e["ev"] == "fixpoint"]
    assert sorted(solved) == ["X", "_R0"]


def test_verdict_follows_mutation_after_analysis():
    l = ring()
    never_e = parse_formula("[T*.e] F")
    assert holds(l, never_e)
    l.add_transition(3, "e", 0)  # must not trip over an exported buffer
    assert not holds(l, never_e)


def test_fixpoint_events_carry_frontier_rounds():
    from repro import obs

    # 0 -a-> 1 -a-> 2 -a-> 3: reaching 3 backwards takes one round per
    # edge plus the round that finds nothing new
    l = LTS(0)
    for s in range(3):
        l.add_transition(s, "a", s + 1)
    inst = obs.Instrumentation(tracer=obs.Tracer())
    with obs.activate(inst):
        assert holds(l, parse_formula("mu X. ([T]F \\/ <a>X)"))
    (event,) = [e for e in inst.tracer.events() if e["ev"] == "fixpoint"]
    assert event["mode"] == "worklist-diamond"
    assert event["iterations"] == 4
    assert {"var", "op", "mode", "states", "seconds"} <= event.keys()


def test_nu_diamond_fast_path():
    # nu X. a \/ (b /\ <p>X): complement-based solver
    l = LTS(0)
    l.add_transition(0, "p", 1)
    l.add_transition(1, "p", 0)
    l.add_transition(2, "p", 3)
    l.ensure_states(4)
    # states with an infinite p-path: 0 and 1
    f = Nu("X", Diamond(RAct(ActLit("p")), Var("X")))
    assert check(l, f).tolist() == [True, True, False, False]


def test_nu_box_fast_path():
    # nu X. <goal>T \/ [p]X — safety-ish mixed form exercising the dual
    l = LTS(0)
    l.add_transition(0, "p", 1)
    l.add_transition(1, "goal", 2)
    l.add_transition(2, "p", 2)
    f = Nu("X", Or(Diamond(RAct(ActLit("goal")), Tt()),
                   Box(RAct(ActLit("p")), Var("X"))))
    v = check(l, f)
    # greatest fixpoint: state 2 loops via p forever (box holds along
    # the loop), state 1 can do goal, state 0's only p-succ is 1
    assert v.tolist() == [True, True, True]


def test_fast_path_matches_kleene_for_nu():
    import numpy as np

    l = ring()
    # single-occurrence form (fast path)
    fast = check(l, Nu("X", And(Diamond(RAct(AnyAct()), Tt()),
                                Box(RAct(ActLit("a")), Var("X")))))
    # same formula with a redundant second occurrence (Kleene fallback)
    slow = check(l, Nu("X", And(Diamond(RAct(AnyAct()), Tt()),
                                And(Box(RAct(ActLit("a")), Var("X")),
                                    Box(RAct(ActLit("a")), Var("X"))))))
    assert np.array_equal(fast, slow)


def test_deeply_nested_closed_fixpoints_memoised():
    l = ring()
    inner = Diamond(RSeq(RStar(RAct(AnyAct())), RAct(ActLit("d"))), Tt())
    f = Box(RStar(RAct(AnyAct())), Or(inner, Not(inner)))
    assert holds(l, f)  # tautology, but exercises memo + nesting
