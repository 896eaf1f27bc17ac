"""Cross-module integration tests: the full paper pipeline.

These exercise the complete toolchain the way the paper's analysis did:
specify/compose -> generate -> (exchange via .aut) -> reduce -> model
check -> extract and narrate counterexamples.
"""

import dataclasses
import io

import pytest

from repro.analysis.explain import explain_trace
from repro.jackal import CONFIG_1, JackalModel, ProtocolVariant
from repro.jackal.actions import PROBE_LABELS, Labels
from repro.jackal.requirements import build_lts, formula_3_1, formula_4_write
from repro.lts.aut import read_aut, write_aut
from repro.lts.bitstate import bitstate_explore
from repro.lts.distributed import distributed_explore
from repro.lts.explore import explore
from repro.lts.reduction import minimize_branching, minimize_strong
from repro.mucalc.bes import bes_holds
from repro.mucalc.checker import holds
from repro.mucalc.parser import parse_formula


@pytest.fixture(scope="module")
def probe_lts():
    _m, lts = build_lts(CONFIG_1, ProtocolVariant.fixed(), probes=True)
    return lts


def test_aut_roundtrip_preserves_verdicts(probe_lts):
    back = read_aut(io.StringIO(write_aut(probe_lts)))
    f = formula_3_1()
    assert holds(back, f) == holds(probe_lts, f)
    assert back.n_states == probe_lts.n_states


def test_strong_reduction_preserves_formulas(probe_lts):
    reduced = minimize_strong(probe_lts)
    assert reduced.n_states <= probe_lts.n_states
    for text in (
        "[T*.c_home] F",
        "<T*.c_copy> T",
        "<T*.writeover(t0)> T",
    ):
        f = parse_formula(text)
        assert holds(reduced, f) == holds(probe_lts, f), text


def test_branching_reduction_preserves_visible_safety():
    cfg = dataclasses.replace(CONFIG_1, with_probes=False)
    lts = explore(JackalModel(cfg, ProtocolVariant.fixed()))
    hide = [
        l for l in lts.labels
        if not l.startswith(("write", "flush"))
    ]
    hidden = lts.hidden(hide)
    reduced = minimize_branching(hidden)
    f = parse_formula("<T*.writeover(t1)> T")
    assert holds(reduced, f) == holds(hidden, f) is True


def test_direct_checker_agrees_with_bes_on_protocol(probe_lts):
    # keep it small: strong-reduce first
    lts = minimize_strong(probe_lts)
    for text in ("[T*.c_home] F", "<T*.c_copy> T"):
        f = parse_formula(text)
        assert holds(lts, f) == bes_holds(lts, f)


def test_generation_strategies_agree():
    cfg = dataclasses.replace(CONFIG_1, with_probes=False)
    model = JackalModel(cfg, ProtocolVariant.fixed())
    exact = explore(model)
    _l, dstats = distributed_explore(model, n_workers=3)
    assert dstats.states == exact.n_states
    assert dstats.transitions == exact.n_transitions
    bres = bitstate_explore(model, table_bytes=1 << 18)
    assert bres.visited == exact.n_states  # ample table: no omissions


def test_requirement4_formula_on_raw_lts():
    cfg = dataclasses.replace(CONFIG_1, with_probes=False)
    lts = explore(JackalModel(cfg, ProtocolVariant.fixed()))
    assert holds(lts, formula_4_write(0))
    assert holds(lts, formula_4_write(1))


def test_probe_labels_only_in_probe_model(probe_lts):
    cfg = dataclasses.replace(CONFIG_1, with_probes=False)
    plain = explore(JackalModel(cfg, ProtocolVariant.fixed()))
    assert not set(plain.labels) & set(PROBE_LABELS)
    assert set(probe_lts.labels) & set(PROBE_LABELS)


def test_counterexample_pipeline_end_to_end():
    # buggy protocol -> find violation -> diagnose -> narrate
    from repro.jackal.requirements import check_requirement_3_2

    rep = check_requirement_3_2(CONFIG_1, ProtocolVariant.error2())
    assert not rep.holds
    story = explain_trace(rep.trace)
    assert len(story) == len(rep.trace)
    assert any("Sponmigrate" in s for s in story)


def test_thread_alphabet_completeness(probe_lts):
    # every thread-level label the requirements rely on is reachable
    for t in range(CONFIG_1.n_threads):
        for lab in (Labels.write(t), Labels.writeover(t),
                    Labels.flush(t), Labels.flushover(t)):
            assert probe_lts.has_label(lab), lab
