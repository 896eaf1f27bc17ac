"""Formula symmetrization: certify the *property* side of the quotient.

PR 6's symmetry certificate proves the model equivariant under the
admissible permutation group, which licenses the orbit quotient for
orbit-invariant properties — Requirement 3's formulas quote only
index-free probe labels, so the probe LTS has taken the full quotient
since then. The plain LTS could not: Requirement 4's per-thread
inevitability formulas (``[T*."write(t0)"] mu X. ...``) quote concrete
thread indices and are individually *not* invariant, so the backends
fell back to ample pruning only (the restriction recorded in ROADMAP
open item 2).

This pass closes that gap statically. For every requirement formula it
computes the orbit under the certified group — permuting a formula
means renaming the ``t<i>``/``p<j>`` tokens inside its action literals
— and classifies the formula family of each requirement:

* **invariant** — every group element maps the formula to itself
  (Requirement 3.1/3.2, and Requirement 4 on a one-thread orbit);
* **orbit-closed** — permuting maps each formula to another member of
  the same requirement's family (Requirement 4's ``write(t0)`` …
  family on symmetric topologies). The *orbit conjunction*
  ``∧_{t ∈ orbit} φ_t`` is then group-invariant as a property, which
  licenses the full-quotient *sweep*; the formulas themselves still
  quote concrete indices whose frames the quotient merges away, so the
  checker evaluates them on the quotient's group-unfolding
  (:func:`repro.lts.certreduce.unfold_full_quotient`), never on the
  quotient LTS directly;
* **asymmetric** — a permuted formula leaves the family. The full
  quotient would be unsound for it, so certification refuses:

  - **JKL401** — a formula is genuinely asymmetric under the group
    (its permutation is not in the requirement's family);
  - **JKL402** — permuting a formula literal produces a label outside
    the model's vocabulary (the property quotes an index the renamed
    model cannot emit).

Requirements 1 and 2 carry no formulas but are quotient-safe by
construction: deadlock freeness observes only the (index-generic)
done-state predicate, and Requirement 2 observes the
``assertion_violation`` label *class*, which is closed under index
renaming. The resulting ``formulas`` certificate section records all
of this in its ``plain_quotient: "full"`` verdict, which validation
re-derives (JKL404): a certified plain LTS is always swept under the
full symmetry quotient.
"""

from __future__ import annotations

from functools import reduce
from typing import TYPE_CHECKING, Sequence

from repro.errors import ReproError
from repro.mucalc.syntax import (
    ActionPredicate,
    ActLit,
    And,
    AndAct,
    AnyAct,
    Box,
    Diamond,
    Ff,
    Formula,
    Mu,
    Not,
    NotAct,
    Nu,
    Or,
    OrAct,
    RAct,
    RAlt,
    Regular,
    RSeq,
    RStar,
    Tt,
    Var,
)
from repro.staticcheck.findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.jackal.params import Config
    from repro.staticcheck.symmetry import Permutation

#: version of the ``formulas`` certificate section layout
FORMULAS_SCHEMA_VERSION = 1


# -- the group action on formulas ----------------------------------------


def _permute_pred(pred: ActionPredicate, perm: "Permutation") -> ActionPredicate:
    if isinstance(pred, AnyAct):
        return pred
    if isinstance(pred, ActLit):
        renamed = perm.apply_label(pred.label)
        return pred if renamed == pred.label else ActLit(renamed, pred.prefix)
    if isinstance(pred, NotAct):
        return NotAct(_permute_pred(pred.inner, perm))
    if isinstance(pred, OrAct):
        return OrAct(
            _permute_pred(pred.left, perm), _permute_pred(pred.right, perm)
        )
    if isinstance(pred, AndAct):
        return AndAct(
            _permute_pred(pred.left, perm), _permute_pred(pred.right, perm)
        )
    raise ReproError(f"cannot permute action predicate {pred!r}")


def _permute_regular(reg: Regular, perm: "Permutation") -> Regular:
    if isinstance(reg, RAct):
        return RAct(_permute_pred(reg.pred, perm))
    if isinstance(reg, RSeq):
        return RSeq(
            _permute_regular(reg.left, perm), _permute_regular(reg.right, perm)
        )
    if isinstance(reg, RAlt):
        return RAlt(
            _permute_regular(reg.left, perm), _permute_regular(reg.right, perm)
        )
    if isinstance(reg, RStar):
        return RStar(_permute_regular(reg.inner, perm))
    raise ReproError(f"cannot permute regular formula {reg!r}")


def permute_formula(f: Formula, perm: "Permutation") -> Formula:
    """The formula with every ``t<i>``/``p<j>`` label token renamed.

    Structural rebuild through the AST; fixpoint variables are inert
    (they name sets, not indices). The result is a plain formula, so
    equality against other family members is structural equality.
    """
    if isinstance(f, (Tt, Ff, Var)):
        return f
    if isinstance(f, And):
        return And(permute_formula(f.left, perm), permute_formula(f.right, perm))
    if isinstance(f, Or):
        return Or(permute_formula(f.left, perm), permute_formula(f.right, perm))
    if isinstance(f, Not):
        return Not(permute_formula(f.inner, perm))
    if isinstance(f, Diamond):
        return Diamond(
            _permute_regular(f.reg, perm), permute_formula(f.inner, perm)
        )
    if isinstance(f, Box):
        return Box(
            _permute_regular(f.reg, perm), permute_formula(f.inner, perm)
        )
    if isinstance(f, Mu):
        return Mu(f.var, permute_formula(f.body, perm))
    if isinstance(f, Nu):
        return Nu(f.var, permute_formula(f.body, perm))
    raise ReproError(f"cannot permute formula {f!r}")


# -- requirement formula families ----------------------------------------


def requirement_formula_families(
    config: "Config",
) -> dict[str, list[tuple[str, Formula]]]:
    """The named µ-calculus formulas each requirement evaluates on
    ``config`` — the exact objects :mod:`repro.jackal.requirements`
    checks (fair Requirement-4 variants on cyclic configurations), so
    the certificate certifies what actually runs."""
    from repro.jackal.requirements import (
        formula_3_1,
        formula_3_2_bad_state,
        formula_4_flush,
        formula_4_write,
    )

    fair = config.rounds is None
    families: dict[str, list[tuple[str, Formula]]] = {
        "3.1": [("formula_3_1", formula_3_1())]
    }
    if config.n_processors == 2:
        families["3.2"] = [("formula_3_2_bad_state", formula_3_2_bad_state())]
    fam4: list[tuple[str, Formula]] = []
    for tid in range(config.n_threads):
        fam4.append(
            (f"formula_4_write(t{tid})", formula_4_write(tid, fair=fair))
        )
        fam4.append(
            (f"formula_4_flush(t{tid})", formula_4_flush(tid, fair=fair))
        )
    families["4"] = fam4
    return families


def thread_orbits(config: "Config") -> tuple[tuple[int, ...], ...]:
    """The orbits of global thread ids under the admissible group,
    each sorted, in order of their smallest member."""
    from repro.staticcheck.symmetry import admissible_group

    group = admissible_group(config)
    orbits: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for t in range(config.n_threads):
        if t in seen:
            continue
        orbit = tuple(sorted({g.tid_map[t] for g in group}))
        seen.update(orbit)
        orbits.append(orbit)
    return tuple(orbits)


def _conjunction(formulas: Sequence[Formula]) -> Formula:
    return reduce(And, formulas)


def requirement4_orbit_formulas(
    config: "Config", *, fair: bool
) -> list[tuple[str, Formula]]:
    """Requirement 4 symmetrized: one orbit conjunction per thread
    orbit and completion kind, each group-invariant as a property —
    the invariance that licenses the full-quotient sweep. The checker
    evaluates them on the quotient's group-unfolding (the conjuncts
    quote concrete thread indices, which the quotient LTS itself
    cannot decide); failure attribution is per orbit
    (``write({t0,t1})``), matching the symmetry the certificate
    proves."""
    from repro.jackal.requirements import formula_4_flush, formula_4_write

    out: list[tuple[str, Formula]] = []
    for orbit in thread_orbits(config):
        ids = ",".join(f"t{t}" for t in orbit)
        out.append(
            (
                f"write({{{ids}}})",
                _conjunction([formula_4_write(t, fair=fair) for t in orbit]),
            )
        )
        out.append(
            (
                f"flush({{{ids}}})",
                _conjunction([formula_4_flush(t, fair=fair) for t in orbit]),
            )
        )
    return out


# -- the analysis ---------------------------------------------------------


def _family_status(
    req: str,
    family: list[tuple[str, Formula]],
    perms: Sequence["Permutation"],
) -> tuple[dict[str, str], list[list[str]], list[Finding]]:
    """Per-formula status, the orbit partition, and JKL401 findings."""
    lookup = {f: name for name, f in family}
    statuses: dict[str, str] = {}
    orbit_sets: list[frozenset[str]] = []
    findings: list[Finding] = []
    for name, f in family:
        members = {name}
        invariant = True
        for perm in perms:
            pf = permute_formula(f, perm)
            if pf == f:
                continue
            invariant = False
            other = lookup.get(pf)
            if other is None:
                findings.append(
                    Finding(
                        "JKL401",
                        Severity.ERROR,
                        f"requirement {req}/{name}",
                        "formula is asymmetric under the certified group: "
                        f"renaming by pid_map={list(perm.pid_map)} "
                        f"tid_map={list(perm.tid_map)} yields a formula "
                        "outside the requirement's family, so no "
                        "symmetrized orbit conjunction exists and the "
                        "full quotient would be unsound — refusing",
                        data={
                            "requirement": req,
                            "formula": name,
                            "permutation": perm.as_dict(),
                            "expected": sorted(n for _, n in lookup.items()),
                            "found": str(pf),
                        },
                    )
                )
                break
            members.add(other)
        statuses[name] = "invariant" if invariant else "orbit"
        orbit_sets.append(frozenset(members))
    orbits = sorted({tuple(sorted(o)) for o in orbit_sets})
    return statuses, [list(o) for o in orbits], findings


def formulas_section(
    config: "Config",
    families: dict[str, list[tuple[str, Formula]]] | None = None,
) -> tuple[dict | None, list[Finding]]:
    """Derive the ``formulas`` certificate section for ``config``.

    Pure and deterministic (certificate validation re-derives it and
    rejects drift as JKL404): the admissible group, the requirement
    formula families, and their orbit structure are all functions of
    the configuration alone. Returns ``(section, findings)``; the
    section is ``None`` when any family is asymmetric (JKL401) — there
    is no degraded section, matching how certification refuses.

    ``families`` overrides the shipped requirement families; the CI
    mutation smoke feeds a deliberately asymmetric family through it.
    """
    from repro.staticcheck.symmetry import admissible_group

    perms = [g for g in admissible_group(config) if not g.is_identity]
    if families is None:
        families = requirement_formula_families(config)
    requirements: dict[str, dict] = {
        "1": {
            "status": "invariant",
            "reason": "deadlock freeness observes only the index-generic "
            "done-state predicate",
        },
        "2": {
            "status": "invariant",
            "reason": "observed by the assertion_violation label class, "
            "closed under index renaming",
        },
    }
    findings: list[Finding] = []
    for req in sorted(families):
        family = families[req]
        statuses, orbits, fam_findings = _family_status(req, family, perms)
        findings.extend(fam_findings)
        if fam_findings:
            continue
        entry: dict = {
            "status": (
                "invariant"
                if all(s == "invariant" for s in statuses.values())
                else "orbit-closed"
            ),
            "formulas": {n: statuses[n] for n in sorted(statuses)},
            "orbits": orbits,
        }
        if req == "4":
            entry["mode"] = "fair" if config.rounds is None else "exact"
        requirements[req] = entry
    if findings:
        return None, findings
    section = {
        "schema": FORMULAS_SCHEMA_VERSION,
        "group_size": len(perms),
        "requirements": requirements,
        # every requirement checked on the plain LTS (1, 2, 4) is
        # invariant or orbit-closed, so the plain sweep may take the
        # full symmetry quotient instead of ample-only
        "plain_quotient": "full",
    }
    return section, findings


def vocabulary_findings(
    model: object,
    config: "Config",
    perms: Sequence["Permutation"],
    families: dict[str, list[tuple[str, Formula]]] | None = None,
) -> list[Finding]:
    """JKL402: a formula literal whose renaming leaves the model's
    label vocabulary. The literal itself matching (JKL201/202 vet
    that) but its orbit not means the property quotes structure the
    renamed model cannot emit — the quotient would silently turn the
    permuted conjunct off, so certification refuses instead."""
    from repro.staticcheck.labelcheck import formula_literals, model_labels

    vocab = model_labels(model)

    def matches(label: str, prefix: bool) -> bool:
        if prefix:
            return any(entry.startswith(label) for entry in vocab)
        return label in vocab

    if families is None:
        families = requirement_formula_families(config)
    findings: list[Finding] = []
    for req in sorted(families):
        for name, f in families[req]:
            for lit in formula_literals(f):
                if not matches(lit.label, lit.prefix):
                    continue  # JKL201/JKL202 report phantom originals
                for perm in perms:
                    renamed = perm.apply_label(lit.label)
                    if renamed == lit.label or matches(renamed, lit.prefix):
                        continue
                    findings.append(
                        Finding(
                            "JKL402",
                            Severity.ERROR,
                            f"requirement {req}/{name}",
                            f"permuting label {lit.label!r} by "
                            f"tid_map={list(perm.tid_map)} yields "
                            f"{renamed!r}, which the model never emits: "
                            "the formula's orbit leaves the label "
                            "vocabulary, so the symmetrized property "
                            "is vacuous — refusing the quotient",
                            data={
                                "requirement": req,
                                "formula": name,
                                "permutation": perm.as_dict(),
                                "expected": lit.label,
                                "found": renamed,
                            },
                        )
                    )
                    break
    return findings


def licenses_full_quotient(certificate: object) -> bool:
    """Whether a validated certificate's ``formulas`` section licenses
    the full symmetry quotient for the plain (probe-free) LTS."""
    section = getattr(certificate, "formulas", None)
    return bool(section) and section.get("plain_quotient") == "full"
