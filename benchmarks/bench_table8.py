"""Experiment T8 — the paper's Table 8.

Regenerates, per configuration, the row (states, transitions,
requirements checked) and compares the shape against the paper's
numbers: sizes must grow by orders of magnitude from configuration 1 to
configuration 3, and configuration 3 is checked for requirements 1-2
only (in the paper its LTS was too large for the mu-calculus checker;
we keep the same protocol for comparability).

Paper's row values: C1 = 65,234 / 360,162 (reqs 1-4);
C2 = 5,424,848 / 40,476,069 (reqs 1-4); C3 = 36,371,052 / 290,181,444
(reqs 1-2).

The cyclic configuration 3 (the paper's recursion, its 36 M-state cell)
does not fit an 8 GiB machine unreduced; ``run_table8`` decides
Requirements 1-2 on its certified symmetry quotient instead, and
``test_table8_config_3_cyclic_certified`` prints the quotient counts,
seconds and peak RSS that EXPERIMENTS.md records. The RSS is the
process peak, so run one variant per process:

    pytest benchmarks/bench_table8.py --benchmark-only -s \
        -k "cyclic_certified and fixed"      # likewise "... and error1"
"""

import resource

import pytest

from repro.analysis.experiments import run_table8
from repro.analysis.reporting import Table
from repro.jackal import CONFIG_1, CONFIG_2, CONFIG_3, ProtocolVariant

ROUNDS = 2
PAPER_ROWS = {
    "1": (65_234, 360_162, "1, 2, 3, 4"),
    "2": (5_424_848, 40_476_069, "1, 2, 3, 4"),
    "3": (36_371_052, 290_181_444, "1, 2"),
}

_results: dict[str, dict] = {}


def _run(name, cfg):
    [row] = run_table8(rounds=ROUNDS, configs={name: cfg})
    _results[name] = row.as_dict()
    return _results[name]


@pytest.mark.benchmark(group="table8")
def test_table8_config_1(once):
    row = once(_run, "1", CONFIG_1)
    assert row["all_hold"]
    assert row["req_checked"] == "1, 2, 3.1, 3.2, 4"


@pytest.mark.benchmark(group="table8")
def test_table8_config_2(once):
    row = once(_run, "2", CONFIG_2)
    assert row["all_hold"]


@pytest.mark.benchmark(group="table8")
def test_table8_config_3(once):
    # requirements 1-2 only, exactly as in the paper
    row = once(_run, "3", CONFIG_3)
    assert row["all_hold"]
    assert row["req_checked"] == "1, 2"


@pytest.mark.benchmark(group="table8")
@pytest.mark.parametrize(
    "variant,verdicts",
    [
        (ProtocolVariant.fixed(), {"1": True, "2": True}),
        # Error 1's deadlock, found on the quotient: its trace is a
        # representative up to the certified renamings
        (ProtocolVariant.error1(), {"1": False, "2": True}),
    ],
    ids=["fixed", "error1"],
)
def test_table8_config_3_cyclic_certified(once, variant, verdicts):
    """Requirements 1-2 on the cyclic configuration 3, exactly, on the
    certified quotient (quotient counts, not concrete ones)."""
    [row] = once(run_table8, rounds=None, variant=variant,
                 configs={"3": CONFIG_3})
    assert row.config == "3 (certified quotient)"
    assert {k: r.holds for k, r in row.requirements.items()} == verdicts
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"\ncyclic config {row.config} ({variant.describe()}): "
        f"{row.states:,} states, {row.transitions:,} transitions, "
        f"{row.seconds:.1f} s, peak RSS {rss_mib:,.0f} MiB"
    )
    for r in row.requirements.values():
        print(" ", r.summary())


@pytest.mark.benchmark(group="table8")
def test_table8_shape_matches_paper(once):
    """The qualitative claims of Table 8 hold for our model too."""

    def check_shape():
        for name, cfg in [("1", CONFIG_1), ("2", CONFIG_2), ("3", CONFIG_3)]:
            if name not in _results:
                _run(name, cfg)
        return _results

    rows = once(check_shape)
    # monotone growth C1 < C2 < C3, by a large factor each step, as in
    # the paper (65k -> 5.4M -> 36M)
    s1, s2, s3 = (rows[k]["states"] for k in ("1", "2", "3"))
    assert s1 * 5 < s2, (s1, s2)
    assert s2 < s3 * 5 and s2 * 1.5 < s3, (s2, s3)
    table = Table(
        "Table 8 (paper vs. reproduction)",
        ["config", "states", "transitions", "req_checked", "seconds",
         "paper_states", "paper_transitions", "paper_req"],
    )
    for k in ("1", "2", "3"):
        ps, pt, pr = PAPER_ROWS[k]
        table.add(**rows[k] | {"paper_states": ps, "paper_transitions": pt,
                               "paper_req": pr})
    print()
    print(table.render())
