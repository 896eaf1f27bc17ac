"""Execution traces and the one trace replayer.

A :class:`Trace` is a finite sequence of action labels, optionally
annotated with the states it passes through. The paper reports that its
shortest error traces exceeded 100 transitions and typical deadlock
traces exceeded 300; the trace machinery here is what lets us measure
those lengths in the reproduction.

:func:`replay` is the only code that replays a trace on a model: a
counterexample counts as evidence only if it replays label for label,
so a label that is not enabled (or a prefix of one) is refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro.errors import TraceError


@dataclass(frozen=True)
class Trace:
    """A finite run: labels, and optionally the visited states.

    When states are present, ``len(states) == len(labels) + 1`` and
    ``states[i] --labels[i]--> states[i+1]``.
    """

    labels: tuple[str, ...]
    states: tuple[Hashable, ...] = field(default=())

    def __post_init__(self):
        if self.states and len(self.states) != len(self.labels) + 1:
            raise TraceError(
                f"trace with {len(self.labels)} labels must carry "
                f"{len(self.labels) + 1} states, got {len(self.states)}"
            )

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    @property
    def final_state(self) -> Hashable:
        """Last visited state (requires state annotations)."""
        if not self.states:
            raise TraceError("trace carries no state annotations")
        return self.states[-1]

    def format(self, *, numbered: bool = True) -> str:
        """Human-readable one-action-per-line rendering."""
        if numbered:
            width = len(str(len(self.labels)))
            return "\n".join(
                f"{i + 1:>{width}}. {lab}" for i, lab in enumerate(self.labels)
            )
        return "\n".join(self.labels)


def replay(system, labels: Sequence[str]) -> Trace:
    """Replay ``labels`` on a transition system from its initial state.

    At each step the unique successor carrying the expected label is
    followed. Raises :class:`~repro.errors.TraceError` if a label is not
    enabled or is ambiguous (several successors carry it) — ambiguity
    would make the replayed end state ill-defined.

    Returns the fully state-annotated :class:`Trace`.
    """
    state = system.initial_state()
    states = [state]
    for i, label in enumerate(labels):
        matches = [nxt for lab, nxt in system.successors(state) if lab == label]
        if not matches:
            enabled = sorted({lab for lab, _ in system.successors(state)})
            raise TraceError(
                f"step {i + 1}: label {label!r} not enabled; enabled: {enabled}"
            )
        if len(set(matches)) > 1:
            raise TraceError(f"step {i + 1}: label {label!r} is ambiguous")
        state = matches[0]
        states.append(state)
    return Trace(tuple(labels), tuple(states))
