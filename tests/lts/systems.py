"""Transition systems shared by the sweep tests."""


class ScalarOnly:
    """A model minus its frontier kernel: ``explore_fast`` expands it one
    state at a time through ``successors_fast`` (no product path takes
    that loop any more)."""

    def __init__(self, model):
        self.model = model
        self.initial_state = model.initial_state
        self.successors = model.successors

    def successors_fast(self, state):
        return self.model.successors_fast(state)
