"""Tests for the state codec, a per-state view of the kernel's layout.

The codec must be a bijection between reachable protocol states and
integer keys (``decode(encode(s)) == s``): its keys are what the
certified symmetry quotient minimises over.
"""

import pytest

from repro.errors import ExplorationLimitError, ModelError
from repro.jackal import Config, JackalModel, ProtocolVariant
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
    (Config(threads_per_processor=(1, 1, 1), rounds=1, with_probes=False),
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


def _lexicographic(state):
    """``state``'s fields in the documented key order, as nested tuples:
    threads, copies, hq, hqa, rq, rqa, locks, migrations; an empty slot
    sorts first, a message by (kind, payload)."""
    threads, copies, hq, rq, hqa, rqa, locks, migs = state

    def slots(queue):
        return tuple((0,) if m == 0 else (1, *m) for m in queue)

    return (threads, copies, slots(hq), slots(hqa), slots(rq), slots(rqa),
            locks, tuple(slots(row) for row in migs))


@pytest.mark.parametrize("cfg,variant", CONFIGS)
def test_keys_order_states_lexicographically(cfg, variant):
    # the symmetry quotient's representative is the least key of an
    # orbit, and the ample choice follows the representative: the
    # certified counts depend on this order, not only on injectivity
    model = JackalModel(cfg, variant)
    states = _sample_states(model)
    assert (sorted(states, key=model.codec().encode)
            == sorted(states, key=_lexicographic))


def test_value_wider_than_its_field_is_refused():
    model = JackalModel(Config(rounds=1))
    codec = model.codec()
    threads, *rest = model.initial_state()
    wdone = model.kernel().layout["thread0.wdone"]
    ph, reg, aho, _wdone, rounds, dirty = threads[0]
    wide = (ph, reg, aho, wdone.mask + 1, rounds, dirty)
    with pytest.raises(ModelError, match="thread0.wdone"):
        codec.encode(((wide, *threads[1:]), *rest))


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
    assert codec.n_bits == model.kernel().layout.n_bits


def test_codec_cached_on_model():
    model = JackalModel(Config(rounds=1))
    assert model.codec() is model.codec()

