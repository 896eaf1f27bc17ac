"""Transition systems shared by the sweep tests."""

from __future__ import annotations

from repro.jackal import Config, JackalModel


def jackal(tpp=(1, 1)):
    """The probe-free one-round Jackal model of a topology."""
    return JackalModel(
        Config(threads_per_processor=tpp, rounds=1, with_probes=False)
    )


class ScalarOnly:
    """A model minus its frontier kernel: ``explore_fast`` expands it one
    state at a time through ``successors_fast``, as it does a
    :class:`~repro.lts.certreduce.ReducedSystem`."""

    def __init__(self, model):
        self.model = model
        self.initial_state = model.initial_state
        self.successors = model.successors

    def successors_fast(self, state):
        return self.model.successors_fast(state)


class PairCodec:
    """``(level, pos)`` <-> one non-negative int of two 16-bit fields —
    the ``encode``/``decode``/``n_bytes`` surface the ring workers use."""

    n_bytes = 4

    @staticmethod
    def encode(state):
        return state[0] << 16 | state[1]

    @staticmethod
    def decode(key):
        return (key >> 16, key & 0xFFFF)


class Diamond:
    """A diamond lattice of given width — branches recombine."""

    def __init__(self, width=5):
        self.width = width

    def initial_state(self):
        return (0, 0)

    def successors(self, s):
        level, pos = s
        if level >= self.width:
            return []
        return [("l", (level + 1, pos)), ("r", (level + 1, pos + 1))]

    def codec(self):
        return PairCodec()


class GeneratorDiamond(Diamond):
    """Diamond whose ``successors`` is a generator, not a sequence.

    The :class:`~repro.lts.explore.TransitionSystem` protocol only
    promises an Iterable; a worker that calls ``len()`` on the result
    silently drops every transition of such systems.
    """

    def successors(self, s):
        yield from Diamond.successors(self, s)
