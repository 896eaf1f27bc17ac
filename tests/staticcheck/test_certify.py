"""The certifier and the certificate trust chain (JKL301–JKL305)."""

import importlib
import inspect
import json
from dataclasses import replace

import pytest

from repro.jackal.model import JackalModel
from repro.jackal.params import CONFIG_1, CONFIG_2, ProtocolVariant
from repro.staticcheck import certificates
from repro.staticcheck.certificates import (
    ReductionCertificate,
    spec_fingerprint,
    validate,
)
from repro.staticcheck.independence import ample_table
from repro.staticcheck.symmetry import certify

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
    assert cert.signature_valid()
    assert cert.fingerprint == spec_fingerprint(config, FIXED)
    assert cert.group  # at least one non-identity permutation
    assert cert.independence == ample_table(config)
    assert validate(cert, config, FIXED) == []


def test_certify_error_variants_too():
    # the error variants are index-generic as well — symmetry is about
    # the topology, not about whether the protocol is correct
    for variant in (ProtocolVariant.error1(), ProtocolVariant.error2()):
        cert, findings = certify(CONFIG_1, variant)
        assert findings == []
        assert cert is not None


class _AsymmetricModel(JackalModel):
    """A model with a processor-special-cased rule: thread t0's write
    kickoff is silently dropped, so permuting t0 with another thread no
    longer commutes with stepping."""

    def successors(self, state):
        return [
            (lbl, ns)
            for lbl, ns in super().successors(state)
            if not lbl.startswith("write(t0")
        ]


def test_asymmetrized_spec_is_refused():
    """The CI mutation smoke: a spec that special-cases an index must
    not receive a certificate."""
    model = _AsymmetricModel(replace(CONFIG_1, with_probes=True), FIXED)
    cert, findings = certify(CONFIG_1, FIXED, model=model)
    assert cert is None
    assert findings, "asymmetric spec must produce findings"
    assert {f.rule for f in findings} == {"JKL302"}
    assert all(f.severity.name == "ERROR" for f in findings)


def test_roundtrip_through_json(tmp_path):
    cert, _ = certify(CONFIG_1, FIXED)
    path = tmp_path / "CERT.json"
    cert.save(path)
    loaded = certificates.load(path)
    assert loaded == cert
    assert validate(loaded, CONFIG_1, FIXED) == []


def test_tampered_certificate_fires_jkl304(tmp_path):
    cert, _ = certify(CONFIG_1, FIXED)
    path = tmp_path / "CERT.json"
    cert.save(path)
    data = json.loads(path.read_text())
    # an attacker widens the group without re-signing
    data["group"].append({"pid_map": [1, 0], "tid_map": [1, 0]})
    tampered = ReductionCertificate.from_dict(data)
    rules = [f.rule for f in validate(tampered, CONFIG_1, FIXED)]
    assert rules == ["JKL304"]


def test_stale_fingerprint_fires_jkl303():
    cert, _ = certify(CONFIG_1, FIXED)
    # same certificate, different spec (another variant re-keys it)
    rules = [
        f.rule for f in validate(cert, CONFIG_1, ProtocolVariant.error1())
    ]
    assert rules == ["JKL303"]


def test_edited_kernel_rekeys_and_stales_old_certificates(monkeypatch):
    """Every certified sweep executes the frontier kernel, so an edited
    kernel rule must re-key the spec and refuse the old certificate."""
    from repro.jackal import kernel as kernel_mod

    cert, _ = certify(CONFIG_1, FIXED)
    getsource = inspect.getsource

    def edited(obj):
        text = getsource(obj)
        return text + "\n# an edited rule\n" if obj is kernel_mod else text

    monkeypatch.setattr(inspect, "getsource", edited)
    assert spec_fingerprint(CONFIG_1, FIXED) != cert.fingerprint
    rules = [f.rule for f in validate(cert, CONFIG_1, FIXED)]
    assert rules == ["JKL303"]


def test_wrong_schema_version_fires_jkl305():
    cert, _ = certify(CONFIG_1, FIXED)
    cert.schema_version = 99
    cert.sign()  # even correctly re-signed, the schema gates first
    rules = [f.rule for f in validate(cert, CONFIG_1, FIXED)]
    assert rules == ["JKL305"]


def test_inadmissible_group_fires_jkl305():
    cert, _ = certify(CONFIG_2, FIXED)
    # CONFIG_2's processors host different thread counts: swapping
    # them is not admissible, no matter how the entry is signed
    cert.group = [{"pid_map": [1, 0], "tid_map": [2, 1, 0]}]
    cert.sign()
    rules = [f.rule for f in validate(cert, CONFIG_2, FIXED)]
    assert "JKL305" in rules


def test_empty_group_fires_jkl305():
    cert, _ = certify(CONFIG_1, FIXED)
    cert.group = []
    cert.sign()
    rules = [f.rule for f in validate(cert, CONFIG_1, FIXED)]
    assert "JKL305" in rules


def test_independence_drift_fires_jkl305():
    cert, _ = certify(CONFIG_1, FIXED)
    cert.independence = dict(cert.independence, safe_classes=[])
    cert.sign()
    rules = [f.rule for f in validate(cert, CONFIG_1, FIXED)]
    assert rules == ["JKL305"]


@pytest.mark.parametrize("check", ["validate", "certify"])
def test_one_independence_table_per_validation(monkeypatch, check):
    # the slices section's label classes come from the table the check
    # stores or compares, not from a table built again per slice
    from repro.staticcheck import independence, slicing

    cert, _ = certify(CONFIG_1, FIXED)
    calls = []

    def counted(config):
        calls.append(config)
        return ample_table(config)

    monkeypatch.setattr(independence, "ample_table", counted)
    # slicing cannot build a table of its own: it is handed one
    assert not hasattr(slicing, "ample_table")
    if check == "validate":
        assert validate(cert, CONFIG_1, FIXED) == []
    else:
        assert certify(CONFIG_1, FIXED)[0].independence == cert.independence
    assert len(calls) == 1


def test_missing_field_raises():
    from repro.errors import ReproError

    with pytest.raises(ReproError, match="missing required field"):
        ReductionCertificate.from_dict({"fingerprint": "x"})


def test_fingerprint_is_stable_and_variant_sensitive():
    a = spec_fingerprint(CONFIG_1, FIXED)
    assert a == spec_fingerprint(CONFIG_1, FIXED)
    assert a != spec_fingerprint(CONFIG_2, FIXED)
    assert a != spec_fingerprint(CONFIG_1, ProtocolVariant.error1())
    # probes do not re-key: one certificate serves the probe LTS
    # (requirement 3) and the plain LTS (requirements 1/2/4)
    assert a == spec_fingerprint(
        replace(CONFIG_1, with_probes=True), FIXED
    )
