"""Formula symmetrization: certify the *property* side of the quotient.

The symmetry certificate proves the model equivariant under the
admissible permutation group, which licenses the orbit quotient for
orbit-invariant properties. Requirement 3's formulas quote only
index-free probe labels and are invariant; Requirement 4's per-thread
inevitability formulas (``[T*."write(t0)"] mu X. ...``) quote concrete
thread indices and are individually *not* invariant.

This pass settles that statically. Permuting a formula means renaming
the ``t<i>``/``p<j>`` tokens inside its action literals; under every
certified permutation each requirement formula must map to itself
(*invariant*: Requirement 3.1/3.2, and Requirement 4 on a one-thread
orbit) or to another member of its requirement's family
(*orbit-closed*: Requirement 4's ``write(t0)`` … family on symmetric
topologies). The *orbit conjunction* ``∧_{t ∈ orbit} φ_t`` of an
orbit-closed family is group-invariant as a property, which licenses
the full-quotient *sweep*; the formulas themselves still quote concrete
indices whose frames the quotient merges away, so the checker evaluates
them on the quotient's group-unfolding
(:func:`repro.lts.certreduce.unfold_full_quotient`), never on the
quotient LTS directly. Otherwise the full quotient would be unsound,
and certification refuses:

* **JKL401** — a formula is genuinely asymmetric under the group (its
  permutation is not in the requirement's family);
* **JKL402** — permuting a formula literal produces a label outside
  the model's vocabulary (the property quotes an index the renamed
  model cannot emit).

Requirements 1 and 2 carry no formulas but are quotient-safe by
construction: deadlock freeness observes only the (index-generic)
done-state predicate, and Requirement 2 observes the
``assertion_violation`` label *class*, which is closed under index
renaming. So every certificate licenses the full symmetry quotient for
the plain LTS.
"""

from __future__ import annotations

from functools import reduce
from typing import TYPE_CHECKING, Sequence

from repro.errors import ReproError
from repro.mucalc.syntax import (
    ActionPredicate,
    ActLit,
    And,
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


def formulas_section(
    config: "Config",
    families: dict[str, list[tuple[str, Formula]]] | None = None,
) -> list[Finding]:
    """JKL401 findings: formulas whose renaming under a certified
    permutation leaves their requirement's family, at most one per
    formula. Empty when every family is invariant or orbit-closed.

    ``families`` overrides the shipped requirement families; the CI
    mutation smoke feeds a deliberately asymmetric family through it.
    """
    from repro.staticcheck.symmetry import admissible_group

    perms = [g for g in admissible_group(config) if not g.is_identity]
    if families is None:
        families = requirement_formula_families(config)
    findings: list[Finding] = []
    for req in sorted(families):
        family = {f: name for name, f in families[req]}
        for name, f in families[req]:
            for perm in perms:
                pf = permute_formula(f, perm)
                if pf == f or pf in family:
                    continue
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
                            "expected": sorted(family.values()),
                            "found": str(pf),
                        },
                    )
                )
                break
    return findings


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
    """Whether ``certificate`` licenses the full symmetry quotient for
    the plain LTS: every certificate does (see the module docstring)."""
    # kept only for the benchmark's reduction passes, which still call
    # it; the benchmark change of ROADMAP item 1(a) deletes it
    return True
