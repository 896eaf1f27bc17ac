"""Cone-of-influence slicing: the derived slice, its refusals, and the
projection laws the certified reduction relies on.

The property tests sample real reachable states (bounded BFS, never the
exploration machinery; :mod:`tests.staticcheck.samplers`) and check, under random admissible permutations,
exactly the algebra :mod:`repro.lts.certreduce` depends on: projection
commutes with the group action, only the dropped fields change, and the
sliced encoding is the encoding of the projection.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.errors import ModelError
from repro.jackal import params
from repro.jackal.codec import PROJECTABLE_FIELDS
from repro.jackal.kernel import FrontierKernel
from repro.jackal.model import JackalModel
from repro.jackal.params import CONFIG_1, ProtocolVariant
from repro.staticcheck.slicing import _cone, _slices_section
from repro.staticcheck.symmetry import admissible_group
from tests.staticcheck.samplers import _sample_states, selftest_findings

FIXED = ProtocolVariant.fixed()
VARIANTS = ("fixed", "error1", "error2", "buggy", "no_migration", "alf")


def _model(config):
    return JackalModel(config, FIXED)


class _ObservesRstate(FrontierKernel):
    """The kernel with one more guard term, on a copy's rstate: a term
    that always holds, so the relation is the same, but the field is
    observed."""

    def _summands(self):
        rules = iter(super()._summands())
        first = next(rules)
        yield first._replace(guard=(*first.guard, (self.cp[0][0].rstate, ">=", 0)))
        yield from rules


class _IgnoresAho(FrontierKernel):
    """The kernel with every guard term on a thread's ``aho`` flag left
    out: the flag is then written but never observed."""

    def _summands(self):
        aho = {th.aho for th in self.th}
        for rule in super()._summands():
            yield rule._replace(guard=tuple(t for t in rule.guard if t[0] not in aho))


# -- the derived slice -------------------------------------------------------


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("config_no", [1, 2, 3], ids=["c1", "c2", "c3"])
def test_slice_is_exactly_the_rstate_family(config_no, variant):
    config = replace(getattr(params, f"CONFIG_{config_no}"), rounds=1, with_probes=True)
    model = JackalModel(config, getattr(ProtocolVariant, variant)())
    dropped, findings = _slices_section(model.kernel())
    assert findings == []
    assert dropped == PROJECTABLE_FIELDS


def test_cone_partitions_the_universe():
    kernel = _model(CONFIG_1).kernel()
    kept = _cone(kernel)
    leaves = set(kernel.layout.leaves)
    assert kept <= leaves
    family = kernel.layout.family
    assert {family[f] for f in leaves - kept} == PROJECTABLE_FIELDS
    assert not {family[f] for f in kept} & PROJECTABLE_FIELDS
    # no guard tests the violation flag; the requirements observe it
    assert kernel.f_violation in kept


def test_verify_slice_refuses_observed_fields():
    # a guard that tests one copy's rstate keeps the whole family: the
    # remote queues' and the migration slots' rstates are copied into it
    dropped, findings = _slices_section(_ObservesRstate(_model(CONFIG_1)))
    assert findings == []
    assert dropped == frozenset()


def test_verify_slice_refuses_unknown_fields():
    # a field outside the cone that the projector cannot zero refuses
    # the slice (JKL403)
    dropped, findings = _slices_section(_IgnoresAho(_model(CONFIG_1)))
    assert dropped == PROJECTABLE_FIELDS | {"thread.aho"}
    assert [f.rule for f in findings] == ["JKL403"]
    assert findings[0].severity.name == "ERROR"
    assert findings[0].data["found"] == ["thread.aho"]


def test_congruence_selftest_passes_on_the_shipped_model():
    assert selftest_findings(_model(CONFIG_1), PROJECTABLE_FIELDS) == []


def test_congruence_check_refuses_a_dropped_leaf_that_is_read(monkeypatch):
    # the cone never drops a leaf a guard reads; handed one that does,
    # the check over the rule instances refuses the slice
    from repro.staticcheck import slicing

    kernel = _model(CONFIG_1).kernel()
    cone = slicing._cone(kernel)
    for family, field in (("thread.phase", "thread0.phase"), ("mig.wl", "mig0_0.wl")):
        left = {f for f in cone if kernel.layout.family[f] != family}
        monkeypatch.setattr(slicing, "_cone", lambda _kernel: left)
        dropped, findings = _slices_section(kernel)
        assert family in dropped
        assert [(f.rule, f.location) for f in findings] == [("JKL403", "slice/congruence")]
        # a guard reads the phase; a kept copy.wl is copied from mig.wl
        assert findings[0].data["field"] == field


# -- projection laws ---------------------------------------------------------

_MODEL = _model(CONFIG_1)
_CODEC = _MODEL.codec()
_STATES = _sample_states(_MODEL, 150)
_PERMS = admissible_group(CONFIG_1)
_PROJECT = _CODEC.projector(PROJECTABLE_FIELDS)


@settings(max_examples=200, deadline=None)
@given(
    si=st.integers(0, len(_STATES) - 1),
    pi=st.integers(0, len(_PERMS) - 1),
)
def test_projection_commutes_with_admissible_permutations(si, pi):
    state, perm = _STATES[si], _PERMS[pi]
    assert _PROJECT(perm.apply(state)) == perm.apply(_PROJECT(state))


@settings(max_examples=200, deadline=None)
@given(si=st.integers(0, len(_STATES) - 1))
def test_projection_changes_only_dropped_fields(si):
    state = _STATES[si]
    proj = _PROJECT(state)
    threads, copies, hq, rq, hqa, rqa, locks, migs = state
    pthreads, pcopies, phq, prq, phqa, prqa, plocks, pmigs = proj
    # everything outside the slice is untouched
    assert (pthreads, phq, phqa, plocks) == (threads, hq, hqa, locks)
    for row, prow in zip(copies, pcopies):
        for (h, _rs, wl, lt), (ph, prs, pwl, plt) in zip(row, prow):
            assert (ph, pwl, plt) == (h, wl, lt)
            assert prs == 0
    for q, pq in ((rq, prq), (rqa, prqa)):
        for m, pm in zip(q, pq):
            if m == 0:
                assert pm == 0
            else:
                assert pm[:5] + pm[6:] == m[:5] + m[6:]
                assert pm[5] == 0
    for row, prow in zip(migs, pmigs):
        for m, pm in zip(row, prow):
            if m == 0:
                assert pm == 0
            else:
                assert pm[0] == m[0] and pm[1] == 0


@settings(max_examples=200, deadline=None)
@given(
    si=st.integers(0, len(_STATES) - 1),
    pi=st.integers(0, len(_PERMS) - 1),
)
def test_sliced_encoding_is_encoding_of_projection(si, pi):
    state, perm = _STATES[si], _PERMS[pi]
    permuted = perm.apply(state)
    # projection and permutation commute, so slicing before or after
    # canonicalising identifies the same states
    assert _CODEC.encode(_PROJECT(permuted)) == _CODEC.encode(
        perm.apply(_PROJECT(state))
    )
    # idempotent: projecting a projection is the identity (same object)
    proj = _PROJECT(permuted)
    assert _PROJECT(proj) is proj


def test_projector_refuses_unsliceable_fields():
    with pytest.raises(ModelError, match="thr.phase"):
        _CODEC.projector({"thr.phase"})
