"""Unit tests for the label cross-checker (JKL2xx)."""

from dataclasses import replace

from repro.jackal.model import JackalModel
from repro.jackal.params import CONFIG_1, ProtocolVariant
from repro.jackal.requirements import formula_4_write
from repro.mucalc.parser import parse_formula
from repro.staticcheck.labelcheck import (
    formula_literals,
    lint_labels,
    model_labels,
)


def _model(variant=None, *, probes=True):
    cfg = replace(CONFIG_1, with_probes=probes)
    return JackalModel(cfg, variant or ProtocolVariant.fixed())


def test_model_labels_cover_the_vocabulary():
    labels = model_labels(_model())
    assert "write(t0)" in labels
    assert "writeover(t1)" in labels
    assert "lock_fault(t0,p1)" in labels
    assert "assertion_violation(localthreads_negative)" in labels
    assert "c_home" in labels  # probes on
    # out-of-range ids are not in the vocabulary, nor labels no rule
    # emits: t1 runs on p1, so nothing signals it on p0
    assert "write(t2)" not in labels
    assert "signal(t1,p0)" not in labels


def test_probe_labels_follow_the_config():
    assert "c_home" not in model_labels(_model(probes=False))


def test_variant_gates_the_error1_labels():
    fixed = model_labels(_model(ProtocolVariant.fixed()))
    buggy = model_labels(_model(ProtocolVariant.error1()))
    assert "fault_to_server(t0)" in fixed
    assert "stale_remote_wait(t0)" not in fixed
    assert "fault_to_server(t0)" not in buggy
    assert "stale_remote_wait(t0)" in buggy


def test_formula_literals_walks_modalities():
    f = formula_4_write(0)
    lits = {lit.label for lit in formula_literals(f)}
    assert lits == {"write(t0)", "writeover(t0)"}


def test_requirement_formulas_are_not_vacuous():
    model = _model()
    named = [("4_write(t0)", formula_4_write(0))]
    assert lint_labels(model, named) == []


def test_jkl201_fires_on_phantom_label():
    model = _model()
    named = [("bad", formula_4_write(5))]  # only threads t0/t1 exist
    findings = lint_labels(model, named)
    assert {f.rule for f in findings} == {"JKL201"}
    assert all(f.location == "bad" for f in findings)
    assert any("write(t5)" in f.message for f in findings)


def test_jkl202_fires_on_phantom_prefix():
    f = parse_formula("[T*.writeover_(*)] F")
    findings = lint_labels(_model(), [("typo", f)])
    assert [f.rule for f in findings] == ["JKL202"]
    assert "vacuous" in findings[0].message


def test_matching_prefix_is_clean():
    f = parse_formula("[T*.writeover(*)] F")
    assert lint_labels(_model(), [("ok", f)]) == []


def test_jkl201_fires_on_a_label_no_rule_emits(capsys):
    from repro.cli import main

    code = main(["lint", "--config", "1", "--formula", "x=[T*.signal(t1,p0)] F"])
    out = capsys.readouterr().out
    assert code == 1
    assert "JKL201" in out and "'signal(t1,p0)'" in out
