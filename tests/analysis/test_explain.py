"""Tests for trace explanation."""

import dataclasses

from repro.analysis.explain import explain_label, narrate_trace
from repro.jackal.actions import Labels
from repro.jackal.model import JackalModel
from repro.jackal.params import CONFIG_1, ProtocolVariant
from repro.jackal.requirements import check_requirement_1


def test_every_model_label_has_a_template():
    # explore a configuration and require every label to be explained
    # (i.e. not merely echoed back)
    from repro.lts.explore import explore

    model = JackalModel(CONFIG_1, ProtocolVariant.fixed())
    lts = explore(model)
    for label in lts.labels:
        assert explain_label(label) != label, label


def test_specific_wordings():
    assert "starts a write" in explain_label("write(t0)")
    assert "server lock" in explain_label("lock_server(t1,p0)")
    assert "Data Request" in explain_label("send_datareq(t0,p0,p1)")
    assert "migrates" in explain_label("send_dataret_mig(p0,p1)")
    assert "Error 1" in explain_label("stale_remote_wait(t0)")
    assert "Sponmigrate" in explain_label("recv_sponmigrate(p1)")
    assert "VIOLATED" in explain_label("assertion_violation(foo)")


def test_unknown_label_passthrough():
    assert explain_label("frobnicate(q9)") == "frobnicate(q9)"


def test_narrate_error1_trace():
    cfg = dataclasses.replace(CONFIG_1, rounds=2, with_probes=False)
    rep = check_requirement_1(cfg, ProtocolVariant.error1())
    assert not rep.holds
    model = JackalModel(cfg, ProtocolVariant.error1())
    story = narrate_trace(model, rep.trace)
    assert "initial:" in story
    assert "home-ptrs" in story
    assert "never arrive" in story  # the Error-1 explanation fires
    # one explanation line + one context line per step
    assert story.count("\n") >= 2 * len(rep.trace)


def test_labels_class_matches_templates():
    # ensure builders and patterns stay in sync
    assert "thread t3" in explain_label(Labels.write(3))
    assert "p2" in explain_label(Labels.lock_homequeue(2))
