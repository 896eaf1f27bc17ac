"""Experiments R3.1/R3.2/R4 — the paper's requirement formulas verbatim.

Checks the exact regular alternation-free mu-calculus formulas of
Sections 5.4.3 and 5.4.4 (parsed from the paper's concrete syntax) on
configurations 1 and 2 of the fixed protocol, reproducing the "Req.
checked: 1, 2, 3, 4" entries of Table 8.
"""

import dataclasses

import pytest

from repro.analysis.reporting import Table
from repro.jackal import CONFIG_1, CONFIG_2, ProtocolVariant
from repro.jackal.actions import PROBE_LABELS
from repro.jackal.requirements import build_lts
from repro.mucalc.checker import holds
from repro.mucalc.parser import parse_formula

FIXED = ProtocolVariant.fixed()

F_31 = "[T*.c_home] F"
F_32 = (
    "<T*> (<c_copy>T /\\ <lock_empty>T /\\ <homequeue_empty>T"
    " /\\ <remotequeue_empty>T)"
)


def _f4(tid: int) -> list[str]:
    return [
        f"[T*.write(t{tid})] mu X. (<T>T /\\ [not writeover(t{tid})] X)",
        f"[T*.flush(t{tid})] mu X. (<T>T /\\ [not flushover(t{tid})] X)",
    ]


def _check_config(config, n_threads):
    # one sweep, the plain LTS derived from it, as check_all_requirements does
    _m, probe_lts = build_lts(config, FIXED, probes=True)
    plain_lts = probe_lts.without_labels(PROBE_LABELS)
    rows = []
    rows.append({
        "formula": F_31, "expected": True,
        "verdict": holds(probe_lts, parse_formula(F_31)),
    })
    rows.append({
        "formula": F_32 + "  (must be false)", "expected": False,
        "verdict": holds(probe_lts, parse_formula(F_32)),
    })
    for t in range(n_threads):
        for f in _f4(t):
            rows.append({
                "formula": f, "expected": True,
                "verdict": holds(plain_lts, parse_formula(f)),
            })
    return rows, probe_lts.n_states


@pytest.mark.benchmark(group="requirements")
def test_paper_formulas_config_1(once):
    rows, states = once(_check_config, CONFIG_1, 2)
    assert all(r["verdict"] == r["expected"] for r in rows)
    print()
    print(Table(f"paper formulas on config 1 ({states} states)",
                ["formula", "expected", "verdict"], rows).render())


@pytest.mark.benchmark(group="requirements")
def test_paper_formulas_config_2(once):
    rows, _states = once(_check_config, CONFIG_2, 3)
    assert all(r["verdict"] == r["expected"] for r in rows)


@pytest.mark.benchmark(group="requirements")
def test_fair_liveness_on_cyclic_model(once):
    # the muCRL threads recurse forever; on the cyclic model we check
    # the fair reformulation (see DESIGN.md item 7)
    from repro.jackal.requirements import check_requirement_4

    cfg = dataclasses.replace(CONFIG_1, rounds=None)
    rep = once(check_requirement_4, cfg, FIXED)
    assert rep.holds
    assert "fair" in rep.requirement
