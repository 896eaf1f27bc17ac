"""Cone-of-influence slicing: the derived slice, its refusals, and the
projection laws the certified reduction relies on.

The property tests sample real reachable states (bounded BFS, never the
exploration machinery) and check, under random admissible permutations,
exactly the algebra :mod:`repro.lts.certreduce` depends on: projection
commutes with the group action, only the dropped fields change, and the
sliced encoding is the encoding of the projection.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.errors import ModelError
from repro.jackal.codec import PROJECTABLE_FIELDS
from repro.jackal.model import JackalModel
from repro.jackal.params import CONFIG_1, CONFIG_2, ProtocolVariant
from repro.staticcheck.slicing import (
    RSTATE_FIELDS,
    UNIVERSE,
    _cone,
    _label_classes,
    _refutations,
    _slices_section,
    selftest_findings,
)
from repro.staticcheck.symmetry import _sample_states, admissible_group

FIXED = ProtocolVariant.fixed()


def _model(config):
    return JackalModel(config, FIXED)


# -- the derived slice -------------------------------------------------------


@pytest.mark.parametrize("config", [CONFIG_1, CONFIG_2], ids=["c1", "c2"])
def test_slice_is_exactly_the_rstate_family(config):
    dropped, findings = _slices_section(config)
    assert findings == []
    assert dropped == RSTATE_FIELDS
    assert RSTATE_FIELDS <= PROJECTABLE_FIELDS


def test_cone_partitions_the_universe():
    kept, dropped = _cone(CONFIG_1, _label_classes(CONFIG_1))
    assert kept | dropped == frozenset(UNIVERSE)
    assert not kept & dropped
    assert dropped == RSTATE_FIELDS


def test_verify_slice_refuses_observed_fields():
    # dropping a field every guard reads must be a JKL403 refusal
    findings = _refutations(
        CONFIG_1, _label_classes(CONFIG_1), RSTATE_FIELDS | {"thr.phase"}
    )
    assert findings
    assert {f.rule for f in findings} == {"JKL403"}
    assert all(f.severity.name == "ERROR" for f in findings)
    assert any(f.data for f in findings)


def test_verify_slice_refuses_unknown_fields():
    findings = _refutations(CONFIG_1, _label_classes(CONFIG_1), {"no.such.field"})
    assert {f.rule for f in findings} == {"JKL403"}


def test_congruence_selftest_passes_on_the_shipped_model():
    assert selftest_findings(_model(CONFIG_1), RSTATE_FIELDS) == []


# -- projection laws ---------------------------------------------------------

_MODEL = _model(CONFIG_1)
_CODEC = _MODEL.codec()
_STATES = _sample_states(_MODEL, 150)
_PERMS = admissible_group(CONFIG_1)
_PROJECT = _CODEC.projector(RSTATE_FIELDS)


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
