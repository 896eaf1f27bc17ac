"""Signed reduction certificates and the spec fingerprint keying them.

A :class:`ReductionCertificate` is the machine-checkable contract
between the static pass (:mod:`repro.staticcheck.symmetry`,
:mod:`repro.staticcheck.independence`) and the exploration backends:
*this* specification, at *this* fingerprint, is invariant under *these*
permutations, and *these* summand footprints justify ample pruning.
Backends refuse to reduce without a certificate that validates — the
failure modes are the JKL303–JKL305 rules:

* **JKL303** — fingerprint mismatch: the certificate was issued for a
  different (or since-edited) specification;
* **JKL304** — signature mismatch: the payload was edited after
  issuance (the signature is keyed-hash tamper *evidence*, not a
  cryptographic trust root — anyone with this source can re-sign);
* **JKL305** — malformed: wrong schema version, an inadmissible
  permutation for the configuration, or an independence table that
  does not match what the current analysis derives;
* **JKL404** — a schema-v3 section drifted: the ``formulas``
  (symmetrization, :mod:`repro.staticcheck.formulasym`) or ``slices``
  (cone-of-influence, :mod:`repro.staticcheck.slicing`) section no
  longer matches what re-deriving the analysis produces.

Schema v3 extends the certificate with those two formula-directed
sections: ``formulas`` records per-requirement orbit structure and
whether the plain LTS may take the full symmetry quotient;
``slices`` records the per-requirement field slices and the common
dropped set the backends project by. v1/v2 certificates are refused
outright (JKL305) — the backends must never reduce on a certificate
that predates the formula-side obligations.

The fingerprint covers the configuration, the variant flags, the
model's label vocabulary, the bit width of the frontier kernel's
:class:`~repro.jackal.kernel.Layout` (the rows every certified sweep
packs), and a digest of the model/kernel/spec/codec/requirements
sources: any change that could alter the transition relation *or the
certified formulas* re-keys the certificate and stales every old one
(JKL303).

Every refusal finding carries a machine-readable ``data`` payload
(expected-vs-found values, digests, the spec fingerprint) so the lint
JSON report is actionable without parsing messages.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field, replace
from typing import Any

from repro.errors import ReproError
from repro.jackal.params import Config, ProtocolVariant
from repro.staticcheck.findings import Finding, Severity

#: version of the certificate JSON layout; validation rejects others.
#: 3: ``formulas`` (symmetrization) and ``slices`` (cone-of-influence)
#: sections, requirements sources in the fingerprint.
CERT_SCHEMA_VERSION = 3

_SIGNING_TAG = b"repro-reduction-certificate-v3:"


def _config_dict(config: Config) -> dict:
    return {
        "threads_per_processor": list(config.threads_per_processor),
        "n_regions": config.n_regions,
        "initial_home": config.initial_home,
        "rounds": config.rounds,
        "writes_per_round": config.writes_per_round,
    }


def _variant_dict(variant: ProtocolVariant) -> dict:
    return asdict(variant)


def _canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def section_digest(section: dict) -> str:
    """Short sha256 of a certificate section's canonical JSON — the
    expected-vs-found value refusal findings carry (whole tables are
    too large for a diagnostic payload)."""
    return hashlib.sha256(_canonical(section)).hexdigest()[:16]


def spec_fingerprint(config: Config, variant: ProtocolVariant) -> str:
    """The sha256 key a certificate for this spec is issued under.

    Computed by ``repro lint`` on every run (it is part of the JSON
    report) and by every consumer before reducing.
    """
    from repro.jackal import codec as codec_mod
    from repro.jackal import kernel as kernel_mod
    from repro.jackal import model as model_mod
    from repro.jackal import requirements as req_mod
    from repro.jackal.model import JackalModel
    from repro.staticcheck.labelcheck import model_labels

    model = JackalModel(replace(config, with_probes=True), variant)
    sources = hashlib.sha256()
    # requirements are fingerprinted too: v3 certificates certify the
    # formulas themselves (symmetrization licenses the full quotient),
    # so editing a requirement must stale every certificate; the kernel
    # is the relation every certified sweep executes
    for mod in (model_mod, kernel_mod, codec_mod, req_mod):
        sources.update(inspect.getsource(mod).encode())
    payload = {
        "config": _config_dict(config),
        "variant": _variant_dict(variant),
        "labels": sorted(model_labels(model)),
        "state_bits": model.kernel().layout.n_bits,
        "sources": sources.hexdigest(),
    }
    return hashlib.sha256(_canonical(payload)).hexdigest()


@dataclass
class ReductionCertificate:
    """One certified reduction: symmetry group + independence table."""

    fingerprint: str
    config: dict
    variant: dict
    #: non-identity admissible permutations, ``{"pid_map", "tid_map"}``
    group: list = field(default_factory=list)
    #: per-label footprint table (see ``independence.ample_table``)
    independence: dict = field(default_factory=dict)
    #: formula symmetrization section (``formulasym.formulas_section``)
    formulas: dict = field(default_factory=dict)
    #: cone-of-influence slice section (``slicing._slices_section``)
    slices: dict = field(default_factory=dict)
    #: how hard the equivariance self-test looked before signing
    selftest: dict = field(default_factory=dict)
    schema_version: int = CERT_SCHEMA_VERSION
    signature: str = ""

    # -- signing ---------------------------------------------------------

    def _payload(self) -> dict:
        out = asdict(self)
        out.pop("signature")
        return out

    def _digest(self) -> str:
        return hashlib.sha256(
            _SIGNING_TAG + _canonical(self._payload())
        ).hexdigest()

    def sign(self) -> "ReductionCertificate":
        self.signature = self._digest()
        return self

    def signature_valid(self) -> bool:
        return bool(self.signature) and self.signature == self._digest()

    # -- (de)serialisation ----------------------------------------------

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ReductionCertificate":
        if not isinstance(data, dict):
            raise ReproError("certificate is not a JSON object")
        try:
            return cls(
                fingerprint=data["fingerprint"],
                config=data["config"],
                variant=data["variant"],
                group=data["group"],
                independence=data["independence"],
                # absent on pre-v3 certificates: let the schema gate
                # (JKL305) and section re-derivation (JKL404) refuse
                # with findings instead of failing the parse
                formulas=data.get("formulas", {}),
                slices=data.get("slices", {}),
                selftest=data.get("selftest", {}),
                schema_version=data["schema_version"],
                signature=data.get("signature", ""),
            )
        except KeyError as missing:
            raise ReproError(
                f"certificate is missing required field {missing}"
            ) from None

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")


def load(path: str) -> ReductionCertificate:
    """Read a certificate file (malformation raises ``ReproError``)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot read certificate {path}: {exc}") from exc
    return ReductionCertificate.from_dict(data)


def issue(
    config: Config,
    variant: ProtocolVariant,
    *,
    group: Iterable[Any],
    independence: dict,
    formulas: dict,
    slices: dict,
    selftest: dict,
) -> ReductionCertificate:
    """Build and sign a certificate (the certifier's final step)."""
    return ReductionCertificate(
        fingerprint=spec_fingerprint(config, variant),
        config=_config_dict(config),
        variant=_variant_dict(variant),
        group=[perm.as_dict() for perm in group],
        independence=independence,
        formulas=formulas,
        slices=slices,
        selftest=selftest,
    ).sign()


def validate(
    cert: ReductionCertificate,
    config: Config,
    variant: ProtocolVariant,
) -> list[Finding]:
    """Every reason ``cert`` must not be trusted for this spec.

    Empty list = valid. Consumers call this before reducing anything
    and refuse (:class:`~repro.errors.ReproError`) on any finding.
    """
    # runtime imports: symmetry/independence import this module
    from repro.staticcheck.formulasym import formulas_section
    from repro.staticcheck.independence import ample_table
    from repro.staticcheck.slicing import _slices_section
    from repro.staticcheck.symmetry import is_admissible

    findings: list[Finding] = []
    if cert.schema_version != CERT_SCHEMA_VERSION:
        findings.append(
            Finding(
                "JKL305",
                Severity.ERROR,
                "certificate/schema",
                f"unsupported certificate schema "
                f"{cert.schema_version!r} (this build reads "
                f"{CERT_SCHEMA_VERSION})",
                data={
                    "fingerprint": cert.fingerprint,
                    "expected": CERT_SCHEMA_VERSION,
                    "found": cert.schema_version,
                },
            )
        )
        return findings
    if not cert.signature_valid():
        findings.append(
            Finding(
                "JKL304",
                Severity.ERROR,
                "certificate/signature",
                "signature does not match the payload: the certificate "
                "was tampered with or corrupted after issuance",
                data={
                    "fingerprint": cert.fingerprint,
                    "expected": cert._digest(),
                    "found": cert.signature,
                },
            )
        )
        return findings
    expected = spec_fingerprint(config, variant)
    if cert.fingerprint != expected:
        findings.append(
            Finding(
                "JKL303",
                Severity.ERROR,
                "certificate/fingerprint",
                f"certificate is keyed to {cert.fingerprint[:12]}… but "
                f"the current spec fingerprints to {expected[:12]}…: "
                "stale certificate, re-run `repro lint --certify`",
                data={"expected": expected, "found": cert.fingerprint},
            )
        )
        return findings
    if not cert.group:
        findings.append(
            Finding(
                "JKL305",
                Severity.ERROR,
                "certificate/group",
                "certificate carries an empty permutation group: there "
                "is nothing to reduce by",
                data={
                    "fingerprint": cert.fingerprint,
                    "expected": ">= 1 admissible permutation",
                    "found": 0,
                },
            )
        )
    for entry in cert.group:
        pid_map = entry.get("pid_map") if isinstance(entry, dict) else None
        tid_map = entry.get("tid_map") if isinstance(entry, dict) else None
        if (
            pid_map is None
            or tid_map is None
            or not is_admissible(config, pid_map, tid_map)
        ):
            findings.append(
                Finding(
                    "JKL305",
                    Severity.ERROR,
                    "certificate/group",
                    f"group entry {entry!r} is not an admissible "
                    "processor/thread permutation for "
                    f"{config.describe()}",
                    data={
                        "fingerprint": cert.fingerprint,
                        "permutation": entry if isinstance(entry, dict)
                        else repr(entry),
                    },
                )
            )
            break
    derived_independence = ample_table(config)
    if cert.independence != derived_independence:
        findings.append(
            Finding(
                "JKL305",
                Severity.ERROR,
                "certificate/independence",
                "independence table does not match what the current "
                "analysis derives for this configuration: re-run "
                "`repro lint --certify`",
                data={
                    "fingerprint": cert.fingerprint,
                    "expected": section_digest(derived_independence),
                    "found": section_digest(cert.independence),
                },
            )
        )
    # v3 sections: re-derive both formula-directed analyses and demand
    # byte-for-byte agreement with what was signed (JKL404). Any
    # refusal of the re-derivation itself (JKL401/403) also lands here.
    derived_formulas, formula_findings = formulas_section(config)
    findings.extend(formula_findings)
    derived_slices, slice_findings = _slices_section(
        config, derived_independence
    )
    findings.extend(slice_findings)
    for name, stored, derived in (
        ("formulas", cert.formulas, derived_formulas),
        ("slices", cert.slices, derived_slices),
    ):
        if derived is not None and stored != derived:
            findings.append(
                Finding(
                    "JKL404",
                    Severity.ERROR,
                    f"certificate/{name}",
                    f"{name} section does not match what the current "
                    "analysis derives: the certified formula-directed "
                    "reduction is stale, re-run `repro lint --certify`",
                    data={
                        "fingerprint": cert.fingerprint,
                        "section": name,
                        "expected": section_digest(derived),
                        "found": section_digest(stored),
                    },
                )
            )
    return findings
