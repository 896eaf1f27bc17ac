"""Certificate-gated reduction: refusal, soundness, and the factor.

Soundness is checked the only way that matters — verdict equality
between reduced and unreduced requirement sweeps — by the differential
harness (``tests/conformance/``, path ``certified``) on every cell of
its matrix, the fixed protocol *and* the seeded bugs, including Error
1's deadlock and Error 2's home loss on cyclic configuration 1 with
Requirements 1-2 decided inside the certified sweep, the path that
decides cyclic configuration 3. The reduced kernel is licensed there
the way the frontier kernel is (path ``reduced_kernel``): the engine's
sweep of it must equal the reference explorer's sweep of
``ReducedSystem.successors`` column for column, counters included. The
tests at the end of this file named for those checks are views onto
its cells, and cyclic configuration 2, which is no cell of it.

Here: the refusals, the certified check's own bookkeeping, the
unfolding's frame, and the acceptance floor (visited states drop at
least 2x) where the sweep is big enough for symmetry to bite:
configuration 2 as shipped, and configuration 1 at two write rounds.
"""

from dataclasses import replace

import pytest

from repro import obs
from repro.errors import ReproError
from repro.jackal.model import JackalModel
from repro.jackal.params import CONFIG_1, CONFIG_2, CONFIG_3, ProtocolVariant
from repro.jackal.requirements import (
    build_lts,
    check_all_requirements,
    check_requirement_4,
)
from repro.lts.certreduce import (
    ReducedKernel,
    ReducedSystem,
    unfold_full_quotient,
)
from repro.lts.engine import explore_fast
from repro.lts.explore import explore
from repro.staticcheck.symmetry import certify
from tests.conformance.harness import LTS_READERS, PAPER, Cell

FIXED = ProtocolVariant.fixed()
CONFIG_1_ROUNDS_4 = replace(CONFIG_1, rounds=4)


def _cert(config, variant=FIXED):
    cert, findings = certify(config, variant)
    assert cert is not None, findings
    return cert


def _model(config, variant=FIXED, probes=False):
    return JackalModel(replace(config, with_probes=probes), variant)


# -- refusal -----------------------------------------------------------------


def test_refuses_certificate_for_other_spec():
    cert = _cert(CONFIG_1)
    with pytest.raises(ReproError, match="JKL305 .*issued for another"):
        ReducedSystem(_model(CONFIG_2), cert)


def test_refuses_systems_without_config():
    class Bare:
        def initial_state(self):
            return 0

        def successors(self, _s):
            return []

    with pytest.raises(ReproError, match="JKL305"):
        ReducedSystem(Bare(), _cert(CONFIG_1))


def test_build_lts_certificate_refuses_too():
    with pytest.raises(ReproError, match="refusing to reduce"):
        build_lts(CONFIG_2, FIXED, probes=False, certificate=_cert(CONFIG_1))


# -- the reduction is real ---------------------------------------------------


def test_certified_sweep_never_gets_the_unreduced_kernel(monkeypatch):
    # ReducedSystem forwards unknown attributes to the model it wraps.
    # Were ``kernel`` one of them, the engine would sweep the model's
    # kernel — the full state space — and report it as the reduction.
    # The certified check runs on the reduced kernel alone: no state
    # goes through the scalar successor functions — not in the plain or
    # probe sweep, and Requirement 4 unfolds the plain sweep it holds.
    cert = _cert(CONFIG_1_ROUNDS_4)
    calls = {"successors": 0, "successors_fast": 0}
    for name in calls:
        original = getattr(JackalModel, name)

        def counting(self, state, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, state)

        monkeypatch.setattr(JackalModel, name, counting)
    with obs.Tracer(ring=1000) as tracer, obs.activate(tracer):
        reports = check_all_requirements(
            CONFIG_1_ROUNDS_4, FIXED, certificate=cert
        )
    assert calls == {"successors": 0, "successors_fast": 0}
    assert reports["1"].lts_states == 29_681
    assert reports["3.1"].lts_states == 30_279
    ends = [e for e in tracer.events() if e["ev"] == "sweep_end"]
    assert [e["states"] for e in ends] == [29_681, 30_279]
    assert all(e["reduction"]["canonical_hits"] > 0 for e in ends)
    assert "full quotient" in reports["4"].requirement


def test_a_certified_check_validates_once(monkeypatch):
    # the certificate is what certify proved: a check that is handed
    # one validates it against its spec and derives nothing again
    from repro.staticcheck import formulasym, slicing, symmetry

    cert = _cert(CONFIG_1)
    calls = []
    for module, name in ((symmetry, "certify"),
                         (formulasym, "formulas_section"),
                         (slicing, "_cone"), (slicing, "_refutations")):
        def counting(*args, _name=name, _original=getattr(module, name),
                     **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    check_all_requirements(CONFIG_1, FIXED, certificate=cert)
    assert calls == []


def test_certificate_validated_before_any_sweep():
    cert = _cert(CONFIG_1)
    with obs.Tracer(ring=1000) as tracer, obs.activate(tracer):
        with pytest.raises(ReproError, match="JKL305"):
            check_all_requirements(CONFIG_2, FIXED, certificate=cert)
    assert not [e for e in tracer.events() if e["ev"] == "sweep_start"]


@pytest.mark.parametrize(
    "config,first_labels",
    [
        (replace(CONFIG_1, initial_home=1),
         ["write(t1)", "write(t0)", "lock_server(t1,p1)", "lock_fault(t0,p0)"]),
        (replace(CONFIG_3, initial_home=2),
         ["write(t2)", "write(t0)", "write(t1)", "lock_server(t2,p2)"]),
    ],
    ids=["c1-home1", "c3-home2"],
)
def test_unfolding_starts_in_the_concrete_frame(config, first_labels):
    # a home off processor 0 makes the initial state a non-representative:
    # its winner renames it onto the swept state 0, and the unfolding
    # undoes that — the home's own thread takes the server lock, as in
    # the scalar unfolding these labels were recorded from
    cert = _cert(config)
    model = _model(config)
    red = ReducedSystem(model, cert)
    winner = ReducedKernel(red, model.kernel()).initial_winner
    assert winner > 0
    rename = cert.group[winner - 1]
    init = model.codec().projector(red.slice_fields)(model.initial_state())
    assert rename.apply(init) == red.initial_state() != init
    assert unfold_full_quotient(model, cert).labels[:4] == first_labels


def test_requirement_4_sweeps_the_quotient_for_an_lts_without_winners():
    # the reference explorer's LTS carries no winners column, so the
    # check sweeps the quotient on the kernel itself
    cert = _cert(CONFIG_1)
    lts = explore(ReducedSystem(_model(CONFIG_1), cert))
    assert not hasattr(lts, "winners")
    report = check_requirement_4(CONFIG_1, FIXED, lts=lts, certificate=cert)
    assert report.holds
    assert "full quotient" in report.requirement


def test_unfolding_is_not_the_ample_reduced_concrete_system():
    # the ample choice is the first safe move in the representative's
    # move order, which is not equivariant: unfolding the quotient and
    # sweeping without it give different graphs (same verdicts)
    cert = _cert(CONFIG_1_ROUNDS_4)
    model = _model(CONFIG_1_ROUNDS_4)
    unfolded = unfold_full_quotient(model, cert)
    concrete = explore_fast(ReducedSystem(model, cert, canonical=False))
    assert (unfolded.n_states, unfolded.n_transitions) == (59_267, 126_340)
    assert (concrete.n_states, concrete.n_transitions) == (59_294, 126_358)


def test_reduction_counters_count():
    cert = _cert(CONFIG_1)
    red = ReducedSystem(_model(CONFIG_1), cert)
    explore_fast(red)
    assert red.canonical_hits > 0
    assert red.ample_prunes > 0
    assert red.slice_hits > 0


def test_certified_slice_shrinks_beyond_canonical_only():
    # the cone-of-influence slice must buy states the symmetry quotient
    # and ample pruning do not already merge (the rstate bookkeeping
    # diverges across interleavings that canonicalization cannot align)
    cert = _cert(CONFIG_1)
    model = _model(CONFIG_1)
    sliced = explore_fast(ReducedSystem(model, cert))
    unsliced = explore_fast(
        ReducedSystem(model, cert, slice_fields=())
    )
    assert sliced.n_states < unsliced.n_states


@pytest.mark.parametrize(
    "config",
    [CONFIG_2, replace(CONFIG_1, rounds=2)],
    ids=["config2", "config1-rounds2"],
)
def test_visited_states_drop_at_least_2x(config):
    cert = _cert(config)
    model = _model(config)
    red = ReducedSystem(model, cert)
    reduced = explore_fast(red)
    unreduced = explore_fast(model)
    assert unreduced.n_states >= 2 * reduced.n_states
    assert red.canonical_hits > 0 and red.ample_prunes > 0


def test_requirement_4_runs_the_full_quotient():
    # the certified formulas section must license the full symmetry
    # quotient for the plain sweep — not the historical ample-only
    # fallback — and the quotiented sweep must be strictly smaller
    cert = _cert(CONFIG_1)
    reduced = check_all_requirements(CONFIG_1, FIXED, certificate=cert)
    assert "full quotient" in reduced["4"].requirement
    assert reduced["4"].holds
    ample_only = explore_fast(
        ReducedSystem(_model(CONFIG_1), cert, canonical=False)
    )
    assert reduced["4"].lts_states < ample_only.n_states


# -- views onto the differential harness (tests/conformance/) ---------------


def test_backends_agree_on_the_reduced_system(agree):
    agree(Cell("c1r1", "fixed"), "reduced_kernel", "certified")


@pytest.mark.parametrize(
    "cell",
    [
        pytest.param(Cell(config, variant), id=f"{name}-{variant}-{sweep}")
        for name, config in (("c1", "c1r1"), ("c2", "c2r1"), ("c3", "c3r1"))
        for variant in PAPER
        for sweep in ("plain", "probe")
    ] + [pytest.param(Cell("c1r2", "error2"), id="c1r2-error2-plain")],
)
def test_reduced_kernel_equals_scalar_reduction(agree, cell):
    agree(cell, "reduced_kernel")


@pytest.mark.parametrize("ablation", ["canonical-off", "slice-off"])
def test_reduced_kernel_equals_scalar_reduction_ablated(agree, ablation):
    agree(Cell("c1r1", "fixed"), "reduced_kernel")


@pytest.mark.parametrize(
    "cell",
    [
        pytest.param(Cell(config, variant), id=f"{name}-{variant}")
        for name, config in (("c1", "c1r1"), ("c2", "c2r1"), ("c3", "c3r1"))
        for variant in PAPER
    ],
)
def test_unfolding_counts(agree, cell):
    agree(cell, "certified")


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(Cell(config, variant), id=f"{name}-{variant}")
        for name, config in (("c1", "c1r1"), ("c2", "c2r1"), ("cyclic1", "c1cyc"))
        for variant in PAPER
    ] + [pytest.param(variant, id=f"cyclic2-{variant}") for variant in PAPER],
)
def test_verdicts_match_unreduced_sweep(agree, case):
    if isinstance(case, Cell):
        agree(case, "certified")
        return
    # cyclic configuration 2 is no cell of the matrix: Requirements 1-2
    # decided in its certified sweep against the unreduced one
    config = replace(CONFIG_2, rounds=None)
    variant = getattr(ProtocolVariant, case)()
    cert = _cert(config, variant)
    plain = check_all_requirements(config, variant, skip=LTS_READERS)
    reduced = check_all_requirements(
        config, variant, skip=LTS_READERS, certificate=cert
    )
    assert {k: r.holds for k, r in plain.items()} == {
        k: r.holds for k, r in reduced.items()
    }
    # a deadlock found on one side is found, with a trace, on the other
    assert (plain["1"].trace is None) == (reduced["1"].trace is None)
