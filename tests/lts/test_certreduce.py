"""Certificate-gated reduction: refusal, soundness, and the factor.

Soundness is checked the only way that matters — verdict equality
between reduced and unreduced requirement sweeps on configurations 1
and 2, on the fixed protocol *and* on both seeded bugs (Error 1's
deadlock, Error 2's home loss / liveness failure). The acceptance
floor (visited states drop at least 2x) is asserted where the sweep is
big enough for symmetry to bite: configuration 2 as shipped, and
configuration 1 at two write rounds.
"""

from dataclasses import replace

import pytest

from repro import obs
from repro.errors import ReproError
from repro.jackal.model import JackalModel
from repro.jackal.params import CONFIG_1, CONFIG_2, ProtocolVariant
from repro.jackal.requirements import check_all_requirements
from repro.lts.certreduce import ReducedSystem
from repro.lts.engine import explore_fast
from repro.lts.explore import explore
from repro.staticcheck.symmetry import certify

FIXED = ProtocolVariant.fixed()


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


def test_certified_sweep_never_gets_the_unreduced_kernel():
    # ReducedSystem forwards unknown attributes to the model it wraps.
    # Were ``kernel`` one of them, the engine would sweep the model's
    # kernel — the full state space — and report it as the reduction.
    config = replace(CONFIG_1, rounds=4)
    cert = _cert(config)
    assert ReducedSystem(_model(config), cert).kernel is None
    for probes, states in ((False, 29_681), (True, 30_279)):
        with obs.Tracer(ring=1000) as tracer:
            lts = explore_fast(
                _model(config, probes=probes), certificate=cert, tracer=tracer
            )
        assert lts.n_states == states
        (end,) = [e for e in tracer.events() if e["ev"] == "sweep_end"]
        assert end["reduction"]["canonical_hits"] > 0


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
