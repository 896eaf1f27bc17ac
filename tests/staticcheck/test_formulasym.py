"""Formula symmetrization: the group action on formulas, orbit
closure of the shipped requirement families, and the JKL401/402
refusals that keep asymmetric specs off the full quotient."""

from types import SimpleNamespace

import pytest

from repro.jackal.params import CONFIG_1, CONFIG_2, ProtocolVariant
from repro.mucalc.syntax import ActLit, Box, Ff, RAct
from repro.staticcheck.formulasym import (
    formulas_section,
    licenses_full_quotient,
    permute_formula,
    requirement4_orbit_formulas,
    requirement_formula_families,
    thread_orbits,
    vocabulary_findings,
)
from repro.staticcheck.symmetry import admissible_group, certify

FIXED = ProtocolVariant.fixed()


def _nontrivial(config):
    return [g for g in admissible_group(config) if not g.is_identity]


# -- the group action on formulas --------------------------------------------


def test_permute_formula_renames_thread_tokens():
    from repro.jackal.requirements import formula_4_write

    swap = _nontrivial(CONFIG_1)[0]
    assert permute_formula(formula_4_write(0), swap) == formula_4_write(1)
    assert permute_formula(formula_4_write(1), swap) == formula_4_write(0)


def test_permute_formula_fixes_index_free_formulas():
    from repro.jackal.requirements import formula_3_1, formula_3_2_bad_state

    for perm in _nontrivial(CONFIG_1):
        assert permute_formula(formula_3_1(), perm) == formula_3_1()
        assert (
            permute_formula(formula_3_2_bad_state(), perm)
            == formula_3_2_bad_state()
        )


def test_thread_orbits_follow_the_topology():
    # CONFIG_1 = (1, 1): the two singleton-processor threads swap
    assert thread_orbits(CONFIG_1) == ((0, 1),)
    # CONFIG_2 = (2, 1): t0/t1 share a processor, t2 is alone
    assert thread_orbits(CONFIG_2) == ((0, 1), (2,))


def _conjuncts(f):
    from repro.mucalc.syntax import And

    if isinstance(f, And):
        return _conjuncts(f.left) + _conjuncts(f.right)
    return [f]


def test_orbit_formulas_conjoin_each_orbit():
    checks = requirement4_orbit_formulas(CONFIG_1, fair=False)
    assert [name for name, _ in checks] == ["write({t0,t1})", "flush({t0,t1})"]
    # each orbit conjunction is invariant (as a set of conjuncts —
    # permuting reorders them) under the whole group
    for _name, f in checks:
        for perm in _nontrivial(CONFIG_1):
            assert set(_conjuncts(permute_formula(f, perm))) == set(
                _conjuncts(f)
            )


# -- the shipped families certify --------------------------------------------


@pytest.mark.parametrize("config", [CONFIG_1, CONFIG_2], ids=["c1", "c2"])
def test_shipped_families_are_orbit_closed(config):
    assert formulas_section(config) == []
    families = requirement_formula_families(config)
    perms = _nontrivial(config)
    # 3.1 is invariant: every permutation fixes it
    ((_name, f31),) = families["3.1"]
    assert all(permute_formula(f31, perm) == f31 for perm in perms)
    # 4 is orbit-closed: permuting moves some formula to another member
    fam4 = {f for _name, f in families["4"]}
    images = {permute_formula(f, perm) for f in fam4 for perm in perms}
    assert images <= fam4 and any(
        permute_formula(f, perm) != f for f in fam4 for perm in perms
    )
    # and one orbit conjunction per thread orbit and completion kind
    fair = config.rounds is None
    assert len(requirement4_orbit_formulas(config, fair=fair)) == 2 * len(
        thread_orbits(config)
    )


def test_full_quotient_license_follows_the_section():
    cert, findings = certify(CONFIG_1, FIXED)
    assert cert is not None, findings
    assert licenses_full_quotient(cert)


# -- refusals ----------------------------------------------------------------


def test_asymmetric_family_is_refused_with_jkl401():
    # a family quoting only t0 cannot be orbit-closed: permuting it
    # leaves the family, so the full quotient must be refused
    from repro.jackal.requirements import formula_4_write

    findings = formulas_section(
        CONFIG_1, families={"4": [("only_t0", formula_4_write(0))]}
    )
    assert findings
    assert {f.rule for f in findings} == {"JKL401"}
    assert all(f.severity.name == "ERROR" for f in findings)
    data = findings[0].data
    assert data is not None and data["requirement"] == "4"
    assert "permutation" in data


class _FakeModel:
    """Just enough surface for ``labelcheck.model_labels``: a kernel
    emitting ``labels``."""

    def __init__(self, labels):
        self._kernel = SimpleNamespace(labels=list(labels))

    def kernel(self):
        return self._kernel


def test_vocabulary_gap_in_the_orbit_is_refused_with_jkl402():
    # "write(t0)" is emitted but its renaming "write(t1)" is not: the
    # symmetrized property would be vacuous, so JKL402 must refuse
    family = {"4": [("gap", Box(RAct(ActLit("write(t0)")), Ff()))]}
    findings = vocabulary_findings(
        _FakeModel(["write(t0)"]),
        CONFIG_1,
        _nontrivial(CONFIG_1),
        families=family,
    )
    assert {f.rule for f in findings} == {"JKL402"}
    assert findings[0].data is not None
    assert findings[0].data["expected"] == "write(t0)"
    assert findings[0].data["found"] == "write(t1)"


def test_phantom_literals_are_not_jkl402s_problem():
    # a literal the model never emits at all belongs to JKL201/202;
    # JKL402 only owns orbit gaps of genuine vocabulary
    family = {"4": [("phantom", Box(RAct(ActLit("write(t0)")), Ff()))]}
    findings = vocabulary_findings(
        _FakeModel(["unrelated"]),
        CONFIG_1,
        _nontrivial(CONFIG_1),
        families=family,
    )
    assert findings == []


def test_closed_vocabulary_passes_jkl402():
    family = {"4": [("ok", Box(RAct(ActLit("write(t0)")), Ff()))]}
    findings = vocabulary_findings(
        _FakeModel(["write(t0)", "write(t1)"]),
        CONFIG_1,
        _nontrivial(CONFIG_1),
        families=family,
    )
    assert findings == []
