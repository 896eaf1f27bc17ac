"""Reduction certificates: computed in-process, validated before use.

A :class:`ReductionCertificate` is the contract between the static pass
(:mod:`repro.staticcheck.symmetry`,
:mod:`repro.staticcheck.independence`,
:mod:`repro.staticcheck.formulasym`, :mod:`repro.staticcheck.slicing`)
and the exploration backends: *this* configuration and variant are
invariant under *these* permutations, *these* summand footprints
justify ample pruning, and *these* formula and slice sections license
the full quotient and the field slice.
:func:`~repro.staticcheck.symmetry.certify` computes one; it is an
in-memory value, never written to or read from a file, so no
certificate outlives the code that derived it. Backends still refuse
to reduce unless :func:`validate` re-derives it for the spec at hand:

* **JKL305** — the certificate was issued for another configuration or
  variant, its permutation group is empty or holds an inadmissible
  permutation, or its independence table is not what the current
  analysis derives;
* **JKL404** — its ``formulas`` (symmetrization) or ``slices``
  (cone-of-influence) section is not what re-deriving the analysis
  produces.

Every refusal finding carries a machine-readable ``data`` payload
(expected-vs-found values or digests).
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.jackal.params import Config, ProtocolVariant
from repro.staticcheck.findings import Finding, Severity


def _config_dict(config: Config) -> dict:
    return {
        "threads_per_processor": list(config.threads_per_processor),
        "n_regions": config.n_regions,
        "initial_home": config.initial_home,
        "rounds": config.rounds,
        "writes_per_round": config.writes_per_round,
    }


def section_digest(section: dict) -> str:
    """Short sha256 of a certificate section's canonical JSON — the
    expected-vs-found value refusal findings carry (whole tables are
    too large for a diagnostic payload)."""
    canonical = json.dumps(section, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass
class ReductionCertificate:
    """One certified reduction: symmetry group + independence table."""

    #: the configuration it was issued for (probes excluded: one
    #: certificate serves the plain and the probe view)
    config: dict
    #: the protocol variant's flags
    variant: dict
    #: non-identity admissible permutations, ``{"pid_map", "tid_map"}``
    group: list = field(default_factory=list)
    #: per-label footprint table (see ``independence.ample_table``)
    independence: dict = field(default_factory=dict)
    #: formula symmetrization section (``formulasym.formulas_section``)
    formulas: dict = field(default_factory=dict)
    #: cone-of-influence slice section (``slicing._slices_section``)
    slices: dict = field(default_factory=dict)


def issue(
    config: Config,
    variant: ProtocolVariant,
    *,
    group: Iterable[Any],
    independence: dict,
    formulas: dict,
    slices: dict,
) -> ReductionCertificate:
    """Build a certificate (the certifier's final step)."""
    return ReductionCertificate(
        config=_config_dict(config),
        variant=asdict(variant),
        group=[perm.as_dict() for perm in group],
        independence=independence,
        formulas=formulas,
        slices=slices,
    )


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

    findings: list[Finding] = [
        Finding(
            "JKL305",
            Severity.ERROR,
            f"certificate/{name}",
            f"certificate was issued for another {name}: {issued!r} "
            f"(this spec: {expected!r})",
            data={"expected": expected, "found": issued},
        )
        for name, issued, expected in (
            ("config", cert.config, _config_dict(config)),
            ("variant", cert.variant, asdict(variant)),
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
                "analysis derives for this configuration",
                data={
                    "expected": section_digest(derived_independence),
                    "found": section_digest(cert.independence),
                },
            )
        )
    # re-derive both formula-directed analyses and demand agreement
    # with what the certificate carries (JKL404). Any refusal of the
    # re-derivation itself (JKL401/403) also lands here.
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
                    "reduction does not hold for this spec",
                    data={
                        "section": name,
                        "expected": section_digest(derived),
                        "found": section_digest(stored),
                    },
                )
            )
    return findings
