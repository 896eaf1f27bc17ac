"""Unit and property tests for the symmetry certifier's group machinery.

The property tests are the satellite obligations: codec round-trips
commute with random admissible permutations on configurations 1 and 2,
and the canonical key of ``canonicalize`` is constant on every orbit
it claims to canonicalize.
"""

import random

import pytest

from repro.jackal.model import JackalModel
from repro.jackal.params import CONFIG_1, CONFIG_2, CONFIG_3, ProtocolVariant
from repro.staticcheck.symmetry import (
    Permutation,
    admissible_group,
    is_admissible,
)
from tests.staticcheck.samplers import _sample_states


def _model(config, variant=None, probes=False):
    from dataclasses import replace

    return JackalModel(
        replace(config, with_probes=probes),
        variant or ProtocolVariant.fixed(),
    )


# -- group structure ---------------------------------------------------------


@pytest.mark.parametrize(
    "config,order", [(CONFIG_1, 2), (CONFIG_2, 2), (CONFIG_3, 6)]
)
def test_admissible_group_order(config, order):
    group = admissible_group(config)
    assert len(group) == order
    assert sum(1 for g in group if g.is_identity) == 1


def test_group_is_closed_under_composition():
    group = admissible_group(CONFIG_3)
    maps = {(g.pid_map, g.tid_map) for g in group}
    for a in group:
        for b in group:
            pid = tuple(a.pid_map[p] for p in b.pid_map)
            tid = tuple(a.tid_map[t] for t in b.tid_map)
            assert (pid, tid) in maps


def test_admissibility_respects_thread_topology():
    # CONFIG_2 is 2p(2+1): the processors host different thread counts,
    # so swapping them is NOT admissible
    assert not is_admissible(CONFIG_2, [1, 0], [2, 1, 0])
    # but swapping p0's two threads is
    assert is_admissible(CONFIG_2, [0, 1], [1, 0, 2])
    # non-permutations are rejected outright
    assert not is_admissible(CONFIG_1, [0, 0], [0, 1])


def test_permutation_moves_initial_state_components():
    model = _model(CONFIG_1)
    (perm,) = [g for g in admissible_group(CONFIG_1) if not g.is_identity]
    state = model.initial_state()
    permuted = perm.apply(state)
    # the home moves with the processor permutation, so the initial
    # state (home fixed at processor 0) is not a fixed point
    assert permuted != state
    # applying the involution twice is the identity
    assert perm.apply(permuted) == state


def test_apply_label_renames_every_index():
    perm = Permutation((1, 0), (1, 0))
    assert perm.apply_label("send_datareq(t0,p0,p1)") == (
        "send_datareq(t1,p1,p0)"
    )
    assert perm.apply_label("c_home") == "c_home"


# -- property: codec round-trip commutes with permutation --------------------


@pytest.mark.parametrize("config", [CONFIG_1, CONFIG_2])
def test_codec_round_trip_under_random_permutations(config):
    model = _model(config, probes=True)
    codec = model.codec()
    group = [g for g in admissible_group(config) if not g.is_identity]
    states = _sample_states(model, 150)
    rng = random.Random(7)
    for state in states:
        perm = rng.choice(group)
        permuted = perm.apply(state)
        assert codec.decode(codec.encode(permuted)) == permuted
        assert codec.decode(codec.encode(state)) == state


# -- property: the canonical key is an orbit invariant -----------------------


@pytest.mark.parametrize("config", [CONFIG_1, CONFIG_2])
def test_encode_canonical_is_orbit_invariant(config):
    model = _model(config, probes=True)
    codec = model.codec()
    group = admissible_group(config)
    nontrivial = [g for g in group if not g.is_identity]
    for state in _sample_states(model, 150):
        key = codec.canonicalize(state, nontrivial)[0]
        orbit_keys = {
            codec.canonicalize(g.apply(state), nontrivial)[0]
            for g in group
        }
        # the whole orbit maps to one canonical key, and that key is
        # the minimum packed key over the orbit
        assert orbit_keys == {key}
        assert key == min(codec.encode(g.apply(state)) for g in group)


def test_canonicalize_returns_matching_key_and_representative():
    model = _model(CONFIG_1)
    codec = model.codec()
    nontrivial = [
        g for g in admissible_group(CONFIG_1) if not g.is_identity
    ]
    state = model.initial_state()
    key, rep = codec.canonicalize(state, nontrivial)
    assert codec.encode(rep) == key
    # when the state already is the representative, the identical
    # object comes back (certreduce counts on this for its hit counter)
    key2, rep2 = codec.canonicalize(rep, nontrivial)
    assert key2 == key and rep2 is rep
