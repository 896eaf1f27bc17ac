"""Tests for the packed state codec.

The codec must be a bijection between reachable protocol states and
packed integers (``decode(encode(s)) == s``): its keys are what the
certified symmetry quotient minimises over.
"""

import pytest

from repro.errors import ExplorationLimitError
from repro.jackal import Config, JackalModel, ProtocolVariant
from repro.jackal.codec import StateCodec
from repro.jackal.model import VIOLATION
from repro.lts.explore import breadth_first_states

CONFIGS = [
    (Config(threads_per_processor=(1, 1), rounds=1, with_probes=False),
     ProtocolVariant.fixed()),
    (Config(threads_per_processor=(2,), rounds=2, with_probes=False),
     ProtocolVariant.fixed()),
    (Config(threads_per_processor=(1, 1), n_regions=2, rounds=1,
            with_probes=False), ProtocolVariant.fixed()),
    (Config(threads_per_processor=(1, 1), rounds=1, with_probes=False),
     ProtocolVariant.error1()),
    (Config(threads_per_processor=(1, 1), rounds=1, with_probes=False),
     ProtocolVariant.error2()),
    (Config(threads_per_processor=(1, 1), rounds=None, with_probes=False),
     ProtocolVariant.fixed()),
]


def _sample_states(model, cap=4000):
    try:
        return list(breadth_first_states(model, max_states=cap))
    except ExplorationLimitError:
        # enough states sampled; the generator raises at the cap
        return list(breadth_first_states(model, max_states=None))[:cap]


@pytest.mark.parametrize("cfg,variant", CONFIGS)
def test_roundtrip_over_reachable_states(cfg, variant):
    model = JackalModel(cfg, variant)
    codec = model.codec()
    states = _sample_states(model)
    keys = [codec.encode(s) for s in states]
    for s, k in zip(states, keys):
        assert codec.decode(k) == s
    # injective: distinct states get distinct keys
    assert len(set(keys)) == len(states)


def test_cold_decode_matches_warm_encode():
    """The memos must never be load-bearing: a codec that has decoded
    nothing (cold caches) must invert keys produced by another
    instance, and re-encoding its decodes must reproduce the keys."""
    cfg = Config(threads_per_processor=(1, 1), rounds=1, with_probes=False)
    model = JackalModel(cfg)
    warm = model.codec()
    cold = StateCodec(JackalModel(cfg))
    states = _sample_states(model, cap=1500)
    for s in states:
        k = warm.encode(s)
        assert cold.decode(k) == s
        assert cold.encode(cold.decode(k)) == k


def test_violation_is_key_zero():
    codec = JackalModel(Config(rounds=1)).codec()
    assert codec.encode(VIOLATION) == 0
    assert codec.decode(0) == VIOLATION


def test_ordinary_keys_are_odd_and_bounded():
    model = JackalModel(
        Config(threads_per_processor=(1, 1), rounds=1, with_probes=False)
    )
    codec = model.codec()
    for s in _sample_states(model, cap=500):
        k = codec.encode(s)
        assert k & 1  # tag bit distinguishing real states from VIOLATION
        assert k.bit_length() <= codec.n_bits


def test_codec_cached_on_model():
    model = JackalModel(Config(rounds=1))
    assert model.codec() is model.codec()

