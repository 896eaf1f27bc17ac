"""Unit tests for the lockset dataflow, its JKL0xx checks and the phase
graph it reads off the rule table."""

from dataclasses import replace

from repro.jackal.kernel import FrontierKernel
from repro.jackal.model import JackalModel, Phase
from repro.jackal.params import CONFIG_1, CONFIG_2, CONFIG_3, ProtocolVariant
from repro.staticcheck.findings import Severity
from repro.staticcheck.lockset import (
    LockSlot,
    PhaseGraph,
    PhaseRule,
    compute_locksets,
    lint_locksets,
    phase_graph,
)
from tests.staticcheck.test_certify import _WithKernel


def _rule(name, src, dst, **kw):
    kw.setdefault("acquires", frozenset())
    kw.setdefault("releases", frozenset())
    kw.setdefault("waits", frozenset())
    return PhaseRule(name=name, src=src, dst=dst, **kw)


def _graph(*rules, blockers=None):
    return PhaseGraph(rules=tuple(rules), blockers=blockers or {})


def _derived(config, variant=None):
    model = JackalModel(replace(config, with_probes=True), variant or ProtocolVariant.fixed())
    return phase_graph(model.kernel())


SRV, FLT, FLS = LockSlot.SERVER, LockSlot.FAULT, LockSlot.FLUSH


# -- the fixpoint ----------------------------------------------------------


def test_fixpoint_on_the_fixed_protocol():
    for config in (CONFIG_1, CONFIG_2, CONFIG_3):
        result = compute_locksets(_derived(config))
        assert result.must[Phase.IDLE] == frozenset()
        assert result.must[Phase.HAVE_SERVER] == frozenset({SRV})
        assert result.must[Phase.HAVE_FAULT] == frozenset({FLT})
        assert result.must[Phase.WAIT_DATA] == frozenset({FLT})
        assert result.must[Phase.REMOTE_READY] == frozenset({FLT})
        assert result.must[Phase.HAVE_FLUSH] == frozenset({FLS})
        # on this protocol every phase has a unique lockset: may == must
        assert result.may == result.must


def test_fixpoint_joins_paths():
    # two paths into dst: one holding SRV, one holding nothing
    g = _graph(
        _rule("a", Phase.IDLE, Phase.WANT_SERVER,
              acquires=frozenset({SRV})),
        _rule("b", Phase.IDLE, Phase.WANT_FAULT),
        _rule("c", Phase.WANT_SERVER, Phase.LOCAL),
        _rule("d", Phase.WANT_FAULT, Phase.LOCAL),
    )
    result = compute_locksets(g)
    assert result.may[Phase.LOCAL] == frozenset({SRV})
    assert result.must[Phase.LOCAL] == frozenset()


# -- the graph read off the rule table --------------------------------------

I, WS, HS, WF, HF, WD, RR, WL, HL, L = (
    Phase.IDLE, Phase.WANT_SERVER, Phase.HAVE_SERVER, Phase.WANT_FAULT,
    Phase.HAVE_FAULT, Phase.WAIT_DATA, Phase.REMOTE_READY, Phase.WANT_FLUSH,
    Phase.HAVE_FLUSH, Phase.LOCAL,
)

#: configuration 1 ``fixed``, names erased: (src, dst, acquires,
#: releases, waits, home_side)
_C1_FIXED = {
    (I, L, (), (), (), False),
    (I, WS, (), (), (SRV,), True),  # write_server: its guard has home == p
    (I, WF, (), (), (FLT,), False),
    (I, WL, (), (), (FLS,), False),
    (WS, HS, (SRV,), (), (), False),  # the three lock grants
    (WF, HF, (FLT,), (), (), False),
    (WL, HL, (FLS,), (), (), False),
    (HS, I, (), (SRV,), (), True),
    (HS, WF, (), (SRV,), (FLT,), False),
    (HF, WS, (), (FLT,), (SRV,), False),  # fault_to_server, the Error-1 fix
    (HF, WD, (), (), (), False),
    (WD, WD, (), (), (), False),  # recv_sponmigrate tells the waiter
    (WD, RR, (), (), (), False),
    (RR, I, (), (FLT,), (), False),
    (HL, I, (), (FLS,), (), False),
    (HL, HL, (), (), (), False),
    (HL, HL, (), (), (), True),
    (L, I, (), (), (), False),
}


def test_config_1_fixed_phase_graph():
    graph = _derived(CONFIG_1)
    assert {
        (r.src, r.dst, tuple(sorted(r.acquires)), tuple(sorted(r.releases)),
         tuple(sorted(r.waits)), r.home_side)
        for r in graph.rules
    } == _C1_FIXED
    # a grant waits for the holders its guard finds free
    assert graph.blockers == {
        SRV: {SRV, FLS}, FLT: {FLT, FLS}, FLS: {SRV, FLT, FLS},
    }


def test_the_graph_follows_the_variant():
    names = {r.name for r in _derived(CONFIG_1, ProtocolVariant.error1()).rules}
    assert "stale_remote_wait" in names and "fault_to_server" not in names
    alf = {r.src for r in _derived(CONFIG_1, ProtocolVariant.alf()).rules}
    assert {Phase.ALF_WRITE, Phase.ALF_FLUSH} <= alf


class _KeepsFaultLock(FrontierKernel):
    """``fault_to_server`` without its ``flt_h := 0``: the thread queues
    for the server lock still holding the fault lock."""

    def _summands(self):
        for rule in super()._summands():
            if rule.name == "fault_to_server":
                rule = rule._replace(updates=tuple(
                    (f, v) for f, v in rule.updates if not f.name.endswith(".flt_h")
                ))
            yield rule


class _WaitsForData(FrontierKernel):
    """``fault_to_server`` writing WAIT_DATA instead of WANT_SERVER: the
    mutant that survives all five requirements on c1r2, since the
    server-lock grant tests the waiter bit, not the phase."""

    def _summands(self):
        for rule in super()._summands():
            if rule.name == "fault_to_server":
                rule = rule._replace(updates=tuple(
                    (f, int(Phase.WAIT_DATA) if f.name.endswith(".phase") else v)
                    for f, v in rule.updates
                ))
            yield rule


def _errors(kernel_class):
    graph = phase_graph(_WithKernel(kernel_class).kernel())
    return {f.rule for f in lint_locksets(graph) if f.severity == Severity.ERROR}


def test_a_table_mutant_keeping_the_fault_lock_is_flagged():
    # the lock leaks back to IDLE, and the at-home re-check now runs
    # under the fault lock alone
    assert _errors(_KeepsFaultLock) == {"JKL003", "JKL005"}


def test_the_surviving_wait_data_mutant_is_flagged():
    # WAIT_DATA is entered holding the fault lock (send_datareq) or not
    # (the mutant): the merge keeps it may-held past its release
    assert _errors(_WaitsForData) == {"JKL003"}


# -- the checks, each on a minimal seeded graph ----------------------------


def test_jkl001_double_acquire():
    g = _graph(
        _rule("take", Phase.IDLE, Phase.WANT_SERVER,
              acquires=frozenset({SRV})),
        _rule("take_again", Phase.WANT_SERVER, Phase.HAVE_SERVER,
              acquires=frozenset({SRV})),
    )
    assert [f.rule for f in lint_locksets(g) if f.severity >= 2] == ["JKL001"]


def test_jkl002_release_of_free_slot():
    g = _graph(
        _rule("free_it", Phase.IDLE, Phase.LOCAL,
              releases=frozenset({FLT})),
    )
    findings = [f for f in lint_locksets(g) if f.rule == "JKL002"]
    assert len(findings) == 1
    assert "free on every path" in findings[0].message


def test_jkl002_warns_on_may_only_release():
    # LOCAL reachable with and without SRV; the release is only wrong on
    # one path -> warning, not error
    g = _graph(
        _rule("a", Phase.IDLE, Phase.WANT_SERVER,
              acquires=frozenset({SRV})),
        _rule("b", Phase.IDLE, Phase.LOCAL),
        _rule("c", Phase.WANT_SERVER, Phase.LOCAL),
        _rule("d", Phase.LOCAL, Phase.IDLE, releases=frozenset({SRV})),
    )
    findings = [f for f in lint_locksets(g) if f.rule == "JKL002"]
    assert [int(f.severity) for f in findings] == [1]


def test_jkl003_imbalance_back_to_idle():
    g = _graph(
        _rule("take", Phase.IDLE, Phase.LOCAL,
              acquires=frozenset({SRV})),
        _rule("forget", Phase.LOCAL, Phase.IDLE),  # never releases
    )
    assert "JKL003" in [f.rule for f in lint_locksets(g)]


def test_jkl004_wait_while_holding_blocker():
    # holding the flush lock while queueing for the fault lock: the
    # grant condition (flush free) can never be met by this thread
    g = _graph(
        _rule("take_fls", Phase.IDLE, Phase.HAVE_FLUSH,
              acquires=frozenset({FLS})),
        _rule("then_fault", Phase.HAVE_FLUSH, Phase.WANT_FAULT,
              waits=frozenset({FLT})),
        blockers={FLT: frozenset({FLT, FLS})},
    )
    findings = [f for f in lint_locksets(g) if f.rule == "JKL004"]
    assert len(findings) == 1
    assert "deadlock" in findings[0].message


def test_jkl005_home_side_under_fault_lock():
    g = _graph(
        _rule("take_flt", Phase.IDLE, Phase.HAVE_FAULT,
              acquires=frozenset({FLT})),
        _rule("home_op", Phase.HAVE_FAULT, Phase.WAIT_DATA,
              home_side=True),
    )
    assert "JKL005" in [f.rule for f in lint_locksets(g)]


def test_jkl005_not_raised_with_server_lock_too():
    # holding the server lock as well makes the home-side op legitimate
    g = _graph(
        _rule("take_both", Phase.IDLE, Phase.HAVE_FAULT,
              acquires=frozenset({FLT, SRV})),
        _rule("home_op", Phase.HAVE_FAULT, Phase.WAIT_DATA,
              home_side=True),
    )
    assert "JKL005" not in [f.rule for f in lint_locksets(g)]


def test_jkl006_unreachable_phase():
    g = _graph(
        _rule("a", Phase.IDLE, Phase.LOCAL),
        _rule("island", Phase.ALF_WRITE, Phase.ALF_FLUSH),
    )
    unreachable = {f.location for f in lint_locksets(g) if f.rule == "JKL006"}
    assert unreachable == {"ALF_WRITE", "ALF_FLUSH"}


def test_only_reachable_rules_are_judged():
    # the island rule is buggy (double acquire) but unreachable; only
    # JKL006 may fire for it
    g = _graph(
        _rule("a", Phase.IDLE, Phase.LOCAL),
        _rule("island", Phase.ALF_WRITE, Phase.ALF_WRITE,
              acquires=frozenset({SRV})),
    )
    assert [f.rule for f in lint_locksets(g)] == ["JKL006"]
