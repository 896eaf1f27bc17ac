"""Certificate-gated reduction: refusal, soundness, and the factor.

Soundness is checked the only way that matters — verdict equality
between reduced and unreduced requirement sweeps on configurations 1
and 2, on the fixed protocol *and* on both seeded bugs (Error 1's
deadlock, Error 2's home loss / liveness failure). The acceptance
floor (visited states drop at least 2x) is asserted where the sweep is
big enough for symmetry to bite: configuration 2 as shipped, and
configuration 1 at two write rounds.

The reduced kernel is licensed the way the frontier kernel is: the
engine's sweep of it must equal the reference explorer's sweep of
``ReducedSystem.successors`` column for column, counters included.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.errors import ReproError
from repro.jackal.model import JackalModel
from repro.jackal.params import CONFIG_1, CONFIG_2, CONFIG_3, ProtocolVariant
from repro.jackal.requirements import (
    build_lts,
    build_model,
    check_all_requirements,
    check_requirement_4,
)
from repro.lts.certreduce import (
    ReducedKernel,
    ReducedSystem,
    unfold_full_quotient,
    unfold_quotient,
)
from repro.lts.engine import explore_fast
from repro.lts.explore import explore
from repro.staticcheck.symmetry import Permutation, certify

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
    with pytest.raises(ReproError, match="JKL303"):
        ReducedSystem(_model(CONFIG_2), cert)


def test_refuses_tampered_certificate():
    cert = _cert(CONFIG_1)
    cert.group = cert.group + [{"pid_map": [1, 0], "tid_map": [1, 0]}]
    with pytest.raises(ReproError, match="JKL304"):
        ReducedSystem(_model(CONFIG_1), cert)


@pytest.mark.parametrize("section", ["formulas", "slices"])
def test_refuses_drifted_v3_section_even_resigned(section):
    # re-signing after editing a formula-directed section defeats
    # JKL304; the section re-derivation (JKL404) must still refuse
    cert = _cert(CONFIG_1)
    setattr(cert, section, {"schema": 99, "doctored": True})
    cert.sign()
    with pytest.raises(ReproError, match="JKL404"):
        ReducedSystem(_model(CONFIG_1), cert)


def test_refuses_systems_without_config():
    class Bare:
        def initial_state(self):
            return 0

        def successors(self, _s):
            return []

    with pytest.raises(ReproError, match="JKL305"):
        ReducedSystem(Bare(), _cert(CONFIG_1))


def test_explore_fast_certificate_kwarg_refuses_too():
    with pytest.raises(ReproError, match="refusing to reduce"):
        explore_fast(_model(CONFIG_2), certificate=_cert(CONFIG_1))


# -- the reduction is real ---------------------------------------------------


def test_backends_agree_on_the_reduced_system():
    cert = _cert(CONFIG_1)
    model = _model(CONFIG_1)
    serial = explore(model, certificate=cert)
    fast = explore_fast(model, certificate=cert)
    counts = (serial.n_states, serial.n_transitions)
    assert (fast.n_states, fast.n_transitions) == counts
    # and it actually shrank the sweep
    unreduced = explore_fast(model)
    assert serial.n_states < unreduced.n_states


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
    from repro.staticcheck import certificates

    cert = _cert(CONFIG_1)
    calls = []
    validate = certificates.validate

    def counting(*args):
        calls.append(args)
        return validate(*args)

    monkeypatch.setattr(certificates, "validate", counting)
    check_all_requirements(CONFIG_1, FIXED, certificate=cert)
    assert len(calls) == 1


def test_certificate_validated_before_any_sweep():
    cert = _cert(CONFIG_1)
    with obs.Tracer(ring=1000) as tracer, obs.activate(tracer):
        with pytest.raises(ReproError, match="JKL303"):
            check_all_requirements(CONFIG_2, FIXED, certificate=cert)
    assert not [e for e in tracer.events() if e["ev"] == "sweep_start"]


# -- the reduced kernel against the scalar reference -------------------------


def _assert_same_lts(mine, theirs):
    assert mine.labels == theirs.labels
    assert mine.n_states == theirs.n_states
    for a, b in zip(mine.columns(), theirs.columns()):
        assert np.array_equal(a, b)


def _counters(red):
    return red.canonical_hits, red.ample_prunes, red.slice_hits


def _assert_kernel_is_scalar(model, cert, **kwargs):
    by_kernel = ReducedSystem(model, cert, **kwargs)
    assert by_kernel.kernel is not None
    by_state = ReducedSystem(model, cert, _validated=True, **kwargs)
    _assert_same_lts(explore_fast(by_kernel), explore(by_state))
    assert _counters(by_kernel) == _counters(by_state)


DIFFERENTIAL = [
    pytest.param(
        config, variant, probes,
        id=f"{name}-{variant}-{'probe' if probes else 'plain'}",
    )
    for name, config in (("c1", CONFIG_1), ("c2", CONFIG_2), ("c3", CONFIG_3))
    for variant in ("fixed", "error1", "error2")
    for probes in (False, True)
] + [
    pytest.param(
        CONFIG_1_ROUNDS_4, "fixed", probes,
        id=f"c1r4-fixed-{'probe' if probes else 'plain'}",
    )
    for probes in (False, True)
] + [
    # the smallest cell where ordering the queue slots hq, rq, hqa, rqa
    # (the kernel's layout) instead of hq, hqa, rq, rqa (the codec's
    # key) picks other representatives
    pytest.param(
        replace(CONFIG_1, rounds=2), "error2", False, id="c1r2-error2-plain"
    ),
]


@pytest.mark.parametrize("config,variant,probes", DIFFERENTIAL)
def test_reduced_kernel_equals_scalar_reduction(config, variant, probes):
    # configuration 3 (|G| = 6) is the cell where tie-breaking between
    # group elements and their composition are not trivial
    variant = getattr(ProtocolVariant, variant)()
    _assert_kernel_is_scalar(
        _model(config, variant, probes), _cert(config, variant)
    )


@pytest.mark.parametrize(
    "ablation", [{"canonical": False}, {"slice_fields": ()}],
    ids=["canonical-off", "slice-off"],
)
def test_reduced_kernel_equals_scalar_reduction_ablated(ablation):
    _assert_kernel_is_scalar(_model(CONFIG_1), _cert(CONFIG_1), **ablation)


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
    entry = cert.group[winner - 1]
    rename = Permutation(tuple(entry["pid_map"]), tuple(entry["tid_map"]))
    init = model.codec().project(model.initial_state(), red.slice_fields)
    assert rename.apply(init) == red.initial_state() != init
    assert unfold_full_quotient(model, cert).labels[:4] == first_labels


#: the unfolding's (states, transitions) per cell, as the scalar
#: unfolding built them through ``successors`` before it was columnar
UNFOLDED = {
    ("c1", "fixed"): (258, 451), ("c1", "error1"): (258, 451),
    ("c1", "error2"): (302, 517), ("c2", "fixed"): (3_235, 7_006),
    ("c2", "error1"): (3_259, 7_032), ("c2", "error2"): (4_261, 8_842),
    ("c3", "fixed"): (8_080, 18_183), ("c3", "error1"): (8_080, 18_183),
    ("c3", "error2"): (11_008, 23_977),
}


@pytest.mark.parametrize(
    "name,variant",
    [pytest.param(*cell, id="-".join(cell)) for cell in sorted(UNFOLDED)],
)
def test_unfolding_counts(name, variant):
    config = {"c1": CONFIG_1, "c2": CONFIG_2, "c3": CONFIG_3}[name]
    variant_ = getattr(ProtocolVariant, variant)()
    cert = _cert(config, variant_)
    unfolded = unfold_full_quotient(
        build_model(config, variant_, probes=False), cert
    )
    assert (unfolded.n_states, unfolded.n_transitions) == UNFOLDED[
        (name, variant)
    ]
    # Requirement 4 unfolds the plain LTS the check already swept
    _m, plain = build_lts(config, variant_, probes=False, certificate=cert)
    _assert_same_lts(unfold_quotient(plain, cert), unfolded)


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
    reduced = explore_fast(model, certificate=cert)
    unreduced = explore_fast(model)
    assert unreduced.n_states >= 2 * reduced.n_states


# -- soundness: verdict equality, fixed and both paper bugs ------------------


@pytest.mark.parametrize(
    "config,variant",
    [
        (CONFIG_1, ProtocolVariant.fixed()),
        (CONFIG_1, ProtocolVariant.error1()),
        (CONFIG_1, ProtocolVariant.error2()),
        (CONFIG_2, ProtocolVariant.fixed()),
        (CONFIG_2, ProtocolVariant.error1()),
        (CONFIG_2, ProtocolVariant.error2()),
    ],
    ids=[
        "c1-fixed", "c1-error1", "c1-error2",
        "c2-fixed", "c2-error1", "c2-error2",
    ],
)
def test_verdicts_match_unreduced_sweep(config, variant):
    cert = _cert(config, variant)
    plain = check_all_requirements(config, variant)
    reduced = check_all_requirements(config, variant, certificate=cert)
    assert {k: r.holds for k, r in plain.items()} == {
        k: r.holds for k, r in reduced.items()
    }


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


# -- the factor ---------------------------------------------------------------


def test_bench_reports_reduction_factor():
    cert = _cert(CONFIG_2)
    model = _model(CONFIG_2)
    reduced_system = ReducedSystem(model, cert)
    reduced = explore_fast(reduced_system)
    unreduced = explore_fast(model)
    assert unreduced.n_states >= 2 * reduced.n_states
    assert reduced_system.canonical_hits > 0
    assert reduced_system.ample_prunes > 0


def test_bench_reports_slice_gain_over_canonical_only():
    # acceptance: on at least one configuration the slice must beat the
    # canonical+ample reduction alone
    cert = _cert(CONFIG_1)
    model = _model(CONFIG_1)
    sliced_system = ReducedSystem(model, cert)
    sliced = explore_fast(sliced_system)
    canonical_only = explore_fast(
        ReducedSystem(model, cert, slice_fields=(), _validated=True)
    )
    assert sliced_system.slice_hits > 0
    assert sliced.n_states < canonical_only.n_states
