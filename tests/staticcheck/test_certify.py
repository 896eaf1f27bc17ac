"""The certifier and what validation refuses (JKL301, JKL302, JKL305)."""

import importlib
import json
from dataclasses import asdict, replace

import pytest

from repro.jackal.codec import PROJECTABLE_FIELDS
from repro.jackal.kernel import FrontierKernel
from repro.jackal.model import JackalModel
from repro.jackal.params import CONFIG_1, CONFIG_2, CONFIG_3, ProtocolVariant
from repro.staticcheck.certificates import validate
from repro.staticcheck.symmetry import Permutation, admissible_group, certify
from tests.staticcheck.samplers import (
    _sample_states,
    equivariance_findings,
    selftest_findings,
)
from tests.staticcheck.test_slicing import _ObservesRstate

FIXED = ProtocolVariant.fixed()


@pytest.fixture(autouse=True)
def _no_exploration(monkeypatch):
    """Certification is a static pass: it must never build an LTS."""

    def boom(*_args, **_kwargs):  # pragma: no cover - failure path
        raise AssertionError("certification must not build an LTS")

    monkeypatch.setattr(
        importlib.import_module("repro.lts.engine"), "explore_fast", boom
    )
    monkeypatch.setattr(
        importlib.import_module("repro.lts.explore"), "explore", boom
    )


@pytest.mark.parametrize("config", [CONFIG_1, CONFIG_2])
def test_certify_shipped_specs(config):
    cert, findings = certify(config, FIXED)
    assert findings == []
    assert cert is not None
    assert cert.config == replace(config, with_probes=False)
    assert cert.variant == FIXED
    assert cert.group == tuple(
        g for g in admissible_group(config) if not g.is_identity
    )
    assert cert.slice_fields == PROJECTABLE_FIELDS
    assert validate(cert, config, FIXED) == []


def test_certify_error_variants_too():
    # the error variants are index-generic as well — symmetry is about
    # the topology, not about whether the protocol is correct
    for variant in (ProtocolVariant.error1(), ProtocolVariant.error2()):
        cert, findings = certify(CONFIG_1, variant)
        assert findings == []
        assert cert is not None


class _WithKernel(JackalModel):
    """The probe model of ``config`` with the frontier kernel
    ``kernel_class`` (a mutant of the rule table)."""

    def __init__(self, kernel_class, config=CONFIG_1, variant=FIXED):
        super().__init__(replace(config, with_probes=True), variant)
        self._kernel = kernel_class(self)


class _AsymmetricKernel(FrontierKernel):
    """A rule table with a thread-special-cased rule: thread t0's write
    kickoff instances are dropped, so permuting t0 with another thread
    no longer commutes with stepping."""

    def _summands(self):
        return (r for r in super()._summands() if r.label != "write(t0)")


def test_asymmetrized_spec_is_refused():
    """The CI mutation smoke: a spec that special-cases an index must
    not receive a certificate."""
    model = _WithKernel(_AsymmetricKernel)
    cert, findings = certify(CONFIG_1, FIXED, model=model)
    assert cert is None
    assert findings, "asymmetric spec must produce findings"
    assert {f.rule for f in findings} == {"JKL302"}
    assert all(f.severity.name == "ERROR" for f in findings)


class _OneInstanceMutant(FrontierKernel):
    """The table with one instance changed: thread t0's first round-end
    ``flushover`` sets its ``aho`` flag instead of clearing it. The
    200-state sample of the sampled self-test never enables it."""

    def _summands(self):
        mutated = False
        for rule in super()._summands():
            if rule.name == "flushover" and not mutated:
                mutated = True
                aho = self.th[0].aho
                rule = rule._replace(updates=tuple(
                    (f, 1 if f is aho else v) for f, v in rule.updates
                ))
                self.mutant = rule
            yield rule


def test_one_instance_mutant_beyond_the_sample_is_refused():
    model = _WithKernel(_OneInstanceMutant)
    kernel = model.kernel()
    # no state of the sampled self-test's sample enables the mutant
    # instance, so sampling could not tell this table from the spec
    at = next(i for i, rule in enumerate(kernel.table.rules) if rule == kernel.mutant)
    _succ, _row, inst = kernel.table.fire(kernel.pack(_sample_states(model, 200)))
    assert at not in inst.tolist()
    cert, findings = certify(CONFIG_1, FIXED, model=model)
    assert cert is None
    assert [f.rule for f in findings] == ["JKL302"]
    assert findings[0].data["label"] in ("flushover(t0)", "flushover(t1)")


class _SkewedLayout(FrontierKernel):
    """Thread t1's ``wdone`` one bit wider than thread t0's."""

    def _declare(self, cfg):
        return [
            (name, [(f, bits + 1, *sort) if f == "wdone" else (f, bits, *sort)
                    for f, bits, *sort in parts]) if name == "thread1" else (name, parts)
            for name, parts in super()._declare(cfg)
        ]


def test_layout_that_breaks_the_action_is_refused():
    cert, findings = certify(CONFIG_1, FIXED, model=_WithKernel(_SkewedLayout))
    assert cert is None
    assert [(f.rule, f.location) for f in findings] == [("JKL302", "model/layout")]
    assert findings[0].data["elements"] == ["thread0", "thread1"]


@pytest.mark.parametrize("config", [CONFIG_1, CONFIG_2, CONFIG_3])
def test_certify_never_steps_the_model(config, monkeypatch):
    def boom(*_args, **_kwargs):  # pragma: no cover - failure path
        raise AssertionError("certification must not step the model")

    monkeypatch.setattr(JackalModel, "successors", boom)
    cert, findings = certify(config, FIXED)
    assert findings == [] and cert is not None


@pytest.mark.parametrize("variant", ["fixed", "error1", "error2"])
@pytest.mark.parametrize("config", [CONFIG_1, CONFIG_2, CONFIG_3], ids=["c1", "c2", "c3"])
def test_sampled_self_tests_agree_with_the_proof(config, variant):
    # the self-tests certify ran before the proof, now oracles: on the
    # shipped specs both accept
    variant = getattr(ProtocolVariant, variant)()
    model = JackalModel(replace(config, with_probes=True), variant)
    cert, findings = certify(config, variant)
    assert findings == []
    assert equivariance_findings(model, cert.group) == []
    assert selftest_findings(model, cert.slice_fields) == []


def test_certify_slices_the_model_it_is_given():
    # the slice is read off the kernel of the model certified: a guard
    # term on a copy's rstate (one that always holds, so every other
    # pass is unchanged) keeps the rstate family
    class Model(JackalModel):
        def kernel(self):
            return _ObservesRstate(self)

    model = Model(replace(CONFIG_1, with_probes=True), FIXED)
    cert, findings = certify(CONFIG_1, FIXED, model=model)
    assert findings == []
    assert "copy.rstate" not in cert.slice_fields


def test_certificate_for_other_variant_fires_jkl305():
    cert, _ = certify(CONFIG_1, FIXED)
    findings = validate(cert, CONFIG_1, ProtocolVariant.error1())
    assert [f.rule for f in findings] == ["JKL305"]
    assert findings[0].location == "certificate/variant"
    assert "issued for another variant" in findings[0].message


def test_certificate_for_other_config_fires_jkl305():
    cert, _ = certify(CONFIG_1, FIXED)
    findings = validate(cert, replace(CONFIG_1, rounds=2), FIXED)
    assert [f.rule for f in findings] == ["JKL305"]
    assert findings[0].location == "certificate/config"
    assert findings[0].data == {
        "expected": asdict(replace(cert.config, rounds=2)),
        "found": asdict(cert.config),
    }
    json.dumps(findings[0].data)  # the report's --json payload


def test_one_certificate_serves_the_plain_and_the_probe_view():
    # probes are no part of the spec a certificate is issued for: one
    # certificate serves the probe LTS (requirement 3) and the plain
    # LTS (requirements 1/2/4)
    cert, _ = certify(CONFIG_1, FIXED)
    for probes in (False, True):
        config = replace(CONFIG_1, with_probes=probes)
        assert validate(cert, config, FIXED) == []


def test_inadmissible_group_fires_jkl305():
    cert, _ = certify(CONFIG_2, FIXED)
    # CONFIG_2's processors host different thread counts: swapping
    # them is not admissible
    cert = replace(cert, group=(Permutation((1, 0), (2, 1, 0)),))
    findings = validate(cert, CONFIG_2, FIXED)
    assert [f.rule for f in findings] == ["JKL305"]
    assert findings[0].data == {
        "permutation": {"pid_map": [1, 0], "tid_map": [2, 1, 0]}
    }


def test_empty_group_fires_jkl305():
    cert, _ = certify(CONFIG_1, FIXED)
    cert = replace(cert, group=())
    rules = [f.rule for f in validate(cert, CONFIG_1, FIXED)]
    assert rules == ["JKL305"]


def test_certify_runs_one_cone(monkeypatch):
    # every requirement observes every label class, so one cone of
    # influence is every requirement's slice
    from repro.staticcheck import slicing

    calls = []
    cone = slicing._cone

    def counted(*args):
        calls.append(args)
        return cone(*args)

    monkeypatch.setattr(slicing, "_cone", counted)
    assert certify(CONFIG_1, FIXED)[0] is not None
    assert len(calls) == 1
