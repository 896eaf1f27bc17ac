"""Reduction certificates: what the certifier proved, validated before use.

A :class:`ReductionCertificate` is the contract between the static pass
(:mod:`repro.staticcheck.symmetry`, :mod:`repro.staticcheck.formulasym`,
:mod:`repro.staticcheck.slicing`) and the exploration backends: *this*
probe-free configuration and variant are invariant under *these*
permutations, and *these* packed fields are a certified slice.
:func:`~repro.staticcheck.symmetry.certify` computes one in-process and
makes every refusal (JKL301/302, JKL401–403) on the way, so a
certificate carries only what it proved: nothing in it can drift from
the analysis that derived it. Backends still refuse to reduce unless
:func:`validate` accepts it for the spec at hand, which checks what a
certificate handed in through the API can get wrong:

* **JKL305** — the certificate was issued for another configuration or
  variant, or its permutation group is empty or holds an inadmissible
  permutation.

Every refusal finding carries a JSON-serialisable ``data`` payload
(expected-vs-found values).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from repro.jackal.params import Config, ProtocolVariant
from repro.staticcheck.findings import Finding, Severity
from repro.staticcheck.symmetry import Permutation, is_admissible


@dataclass(frozen=True)
class ReductionCertificate:
    """One certified reduction: symmetry group + field slice."""

    #: the configuration it was issued for, without probes (one
    #: certificate serves the plain and the probe view)
    config: Config
    #: the protocol variant it was issued for
    variant: ProtocolVariant
    #: the non-identity admissible permutations, in group order
    group: tuple[Permutation, ...]
    #: the packed fields the certified cone-of-influence slice drops
    slice_fields: frozenset[str]


def validate(
    cert: ReductionCertificate,
    config: Config,
    variant: ProtocolVariant,
) -> list[Finding]:
    """Every reason ``cert`` must not be trusted for this spec.

    Empty list = valid. Consumers call this before reducing anything
    and refuse (:class:`~repro.errors.ReproError`) on any finding.
    """
    findings: list[Finding] = [
        Finding(
            "JKL305",
            Severity.ERROR,
            f"certificate/{name}",
            f"certificate was issued for another {name}: {issued!r} "
            f"(this spec: {expected!r})",
            data={"expected": asdict(expected), "found": asdict(issued)},
        )
        for name, issued, expected in (
            ("config", cert.config, replace(config, with_probes=False)),
            ("variant", cert.variant, variant),
        )
        if issued != expected
    ]
    if findings:
        return findings
    if not cert.group:
        findings.append(
            Finding(
                "JKL305",
                Severity.ERROR,
                "certificate/group",
                "certificate carries an empty permutation group: there "
                "is nothing to reduce by",
                data={"expected": ">= 1 admissible permutation", "found": 0},
            )
        )
    for perm in cert.group:
        if not is_admissible(config, perm.pid_map, perm.tid_map):
            findings.append(
                Finding(
                    "JKL305",
                    Severity.ERROR,
                    "certificate/group",
                    f"group entry {perm.as_dict()} is not an admissible "
                    "processor/thread permutation for "
                    f"{config.describe()}",
                    data={"permutation": perm.as_dict()},
                )
            )
            break
    return findings
