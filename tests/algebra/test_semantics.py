"""Tests for the SOS semantics: algebraic laws and composition."""

import pytest

from repro.errors import SpecificationError
from repro.algebra import (
    Act,
    Alt,
    Call,
    Comm,
    Cond,
    Delta,
    DVar,
    Encap,
    FiniteSort,
    Fn,
    Hide,
    Par,
    ProcessDef,
    Rename,
    Seq,
    Spec,
    SpecSystem,
    Sum,
    Tau,
    TERMINATED,
)
from repro.lts.explore import explore

D = FiniteSort("D", (0, 1))
EMPTY = Spec(defs=[])


def lts_of(term, spec=EMPTY):
    return explore(SpecSystem(spec, term))


def bisimilar(t1, t2, spec=EMPTY) -> bool:
    """Strong bisimilarity of the two terms' LTSs: refine the partition
    of their disjoint union by ``(label, successor block)`` signatures
    until it is stable, then compare the initial states' blocks."""
    left, right = lts_of(t1, spec), lts_of(t2, spec)
    moves = [left.successors(s) for s in range(left.n_states)]
    shift = left.n_states
    moves += [[(a, d + shift) for a, d in right.successors(s)]
              for s in range(right.n_states)]
    block = [0] * len(moves)
    while True:
        sigs: dict[tuple, int] = {}
        refined = [
            sigs.setdefault(
                (block[s], frozenset((a, block[d]) for a, d in moves[s])),
                len(sigs),
            )
            for s in range(len(moves))
        ]
        if len(sigs) == len(set(block)):
            return refined[left.initial] == refined[right.initial + shift]
        block = refined


def test_single_action():
    l = lts_of(Act("a"))
    assert l.n_states == 2
    assert [t.label for t in l.transitions()] == ["a"]


def test_delta_deadlocks():
    l = lts_of(Delta())
    assert l.n_states == 1
    assert l.n_transitions == 0


def test_seq_order():
    l = lts_of(Seq(Act("a"), Act("b")))
    assert [t.label for t in l.transitions()] == ["a", "b"]
    assert l.n_states == 3


def test_alt_commutative_and_associative():
    a, b, c = Act("a"), Act("b"), Act("c")
    assert bisimilar(Alt(a, b), Alt(b, a))
    assert bisimilar(Alt(Alt(a, b), c), Alt(a, Alt(b, c)))


def test_alt_delta_unit():
    a = Act("a")
    assert bisimilar(Alt(a, Delta()), a)


def test_seq_associative():
    a, b, c = Act("a"), Act("b"), Act("c")
    assert bisimilar(Seq(Seq(a, b), c), Seq(a, Seq(b, c)))


def test_delta_absorbs_seq():
    # delta . p == delta
    assert bisimilar(Seq(Delta(), Act("a")), Delta())


def test_cond_resolution():
    l = lts_of(Cond(Act("a"), True, Act("b")))
    assert [t.label for t in l.transitions()] == ["a"]
    l2 = lts_of(Cond(Act("a"), False, Act("b")))
    assert [t.label for t in l2.transitions()] == ["b"]


def test_cond_non_boolean_rejected():
    with pytest.raises(SpecificationError, match="non-boolean"):
        lts_of(Cond(Act("a"), Fn("n", lambda: 3)))


def test_sum_expansion():
    l = lts_of(Sum("d", D, Act("a", DVar("d"))))
    labels = sorted(t.label for t in l.transitions())
    assert labels == ["a(0)", "a(1)"]


def test_recursion_cycles():
    spec = Spec(defs=[ProcessDef("P", (), Seq(Act("a"), Call("P")))])
    l = explore(SpecSystem(spec, Call("P")))
    assert l.n_states == 1
    assert l.n_transitions == 1


def test_parameterised_recursion():
    inc = Fn("inc_mod", lambda x: (x + 1) % 3, DVar("n"))
    spec = Spec(defs=[
        ProcessDef("Count", ("n",), Seq(Act("tick", DVar("n")), Call("Count", inc)))
    ])
    l = explore(SpecSystem(spec, Call("Count", 0)))
    assert l.n_states == 3
    assert sorted(t.label for t in l.transitions()) == ["tick(0)", "tick(1)", "tick(2)"]


def test_unguarded_recursion_detected():
    spec = Spec(defs=[ProcessDef("P", (), Alt(Call("P"), Act("a")))])
    with pytest.raises(SpecificationError, match="unguarded"):
        explore(SpecSystem(spec, Call("P")))


def test_par_interleaving():
    l = lts_of(Par(Act("a"), Act("b")))
    assert l.n_states == 4
    assert l.n_transitions == 4


def test_par_communication():
    comm = Comm(("s", "r", "c"))
    l = lts_of(Par(Act("s", 1), Act("r", 1), comm))
    labels = {t.label for t in l.transitions()}
    assert "c(1)" in labels  # synchronisation happened
    assert "s(1)" in labels  # interleaved singles still possible


def test_communication_requires_matching_data():
    comm = Comm(("s", "r", "c"))
    l = lts_of(Par(Act("s", 1), Act("r", 2), comm))
    assert not any(t.label.startswith("c") for t in l.transitions())


def test_encap_forces_synchronisation():
    comm = Comm(("s", "r", "c"))
    l = lts_of(Encap(["s", "r"], Par(Act("s", 1), Act("r", 1), comm)))
    assert [t.label for t in l.transitions()] == ["c(1)"]
    assert l.n_states == 2


def test_encap_can_deadlock():
    comm = Comm(("s", "r", "c"))
    l = lts_of(Encap(["s", "r"], Par(Act("s", 1), Act("r", 2), comm)))
    assert l.n_transitions == 0


def test_hide_renames_to_tau():
    l = lts_of(Hide(["a"], Seq(Act("a"), Act("b"))))
    assert [t.label for t in l.transitions()] == ["tau", "b"]


def test_rename():
    l = lts_of(Rename({"a": "z"}, Act("a", 5)))
    assert [t.label for t in l.transitions()] == ["z(5)"]


def test_par_termination_propagates():
    # (a || b) . c must execute c after both a and b
    l = lts_of(Seq(Par(Act("a"), Act("b")), Act("c")))
    labels = [t.label for t in l.transitions()]
    assert labels.count("c") == 1
    # c enabled only in the state after both a and b
    deadlocks = l.deadlock_states()
    assert len(deadlocks) == 1


def test_comm_conflicting_rejected():
    with pytest.raises(SpecificationError, match="conflicting"):
        Comm(("s", "r", "c1"), ("r", "s", "c2"))


def test_comm_pairs_convention():
    comm = Comm.pairs("sendback", "refresh")
    assert comm.result("s_sendback", "r_sendback") == "c_sendback"
    assert comm.result("s_refresh", "r_refresh") == "c_refresh"
    assert comm.result("s_sendback", "r_refresh") is None


def test_comm_same_name():
    comm = Comm(("sync", "sync", "both"))
    l = lts_of(Encap(["sync"], Par(Act("sync"), Act("sync"), comm)))
    assert [t.label for t in l.transitions()] == ["both"]


def test_tau_prefix():
    l = lts_of(Seq(Tau(), Act("a")))
    assert [t.label for t in l.transitions()] == ["tau", "a"]


def test_terminated_constant():
    sys = SpecSystem(EMPTY, Act("a"))
    (label, nxt), = sys.successors(sys.initial_state())
    assert label == "a"
    assert nxt == TERMINATED
    assert sys.is_terminated(nxt)
    assert sys.successors(nxt) == []


def test_expansion_law_small():
    # a || b  ~  a.b + b.a (no communication)
    a, b = Act("a"), Act("b")
    assert bisimilar(Par(a, b), Alt(Seq(a, b), Seq(b, a)))
