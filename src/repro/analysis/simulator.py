"""A scriptable stepper over any transition system.

The paper (Section 6) calls for "a simulation tool that helps to
automatically execute and interpret long traces". :class:`Simulator`
walks any :class:`~repro.lts.explore.TransitionSystem`: list the
enabled actions, take one (by index, exact label, or prefix), undo,
replay a whole trace, and inspect the current state.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.errors import TraceError
from repro.lts.trace import Trace


class Simulator:
    """Interactive/scripted execution of a transition system.

    Examples
    --------
    >>> from repro.jackal import JackalModel, CONFIG_1
    >>> sim = Simulator(JackalModel(CONFIG_1))
    >>> sorted(lab for lab, _ in sim.enabled())[:1]
    ['homequeue_empty']
    >>> sim.step("write(t0)")  # doctest: +ELLIPSIS
    'write(t0)'
    >>> sim.undo()
    >>> len(sim.history())
    0
    """

    def __init__(self, system):
        self.system = system
        self._states: list[Hashable] = [system.initial_state()]
        self._labels: list[str] = []

    # -- inspection -----------------------------------------------------------

    @property
    def state(self) -> Hashable:
        """Current state."""
        return self._states[-1]

    def enabled(self) -> list[tuple[str, Hashable]]:
        """Enabled ``(label, next state)`` pairs, stable order."""
        return list(self.system.successors(self.state))

    def enabled_labels(self) -> list[str]:
        """Enabled labels (with duplicates, in successor order)."""
        return [lab for lab, _ in self.enabled()]

    def history(self) -> Trace:
        """The trace taken so far (state-annotated)."""
        return Trace(tuple(self._labels), tuple(self._states))

    def depth(self) -> int:
        """Number of steps taken."""
        return len(self._labels)

    def describe(self) -> dict | str:
        """Decoded current state when the system supports it."""
        decode = getattr(self.system, "decode_state", None)
        return decode(self.state) if decode else repr(self.state)

    # -- stepping ----------------------------------------------------------------

    def step(self, choice: int | str) -> str:
        """Take a transition.

        ``choice`` is an index into :meth:`enabled`, an exact label, or
        a unique label prefix. Returns the label taken.
        """
        moves = self.enabled()
        if not moves:
            raise TraceError("no enabled transitions (terminal state)")
        if isinstance(choice, int):
            if not 0 <= choice < len(moves):
                raise TraceError(
                    f"choice {choice} out of range 0..{len(moves) - 1}"
                )
            label, nxt = moves[choice]
        else:
            exact = [(lab, s) for lab, s in moves if lab == choice]
            if not exact:
                exact = [(lab, s) for lab, s in moves if lab.startswith(choice)]
            if not exact:
                raise TraceError(
                    f"label {choice!r} not enabled; enabled: "
                    f"{sorted({lab for lab, _ in moves})}"
                )
            firsts = {s for _l, s in exact}
            if len(firsts) > 1 and len({lab for lab, _ in exact}) > 1:
                raise TraceError(
                    f"prefix {choice!r} ambiguous: {sorted({lab for lab, _ in exact})}"
                )
            label, nxt = exact[0]
        self._states.append(nxt)
        self._labels.append(label)
        return label

    def undo(self, n: int = 1) -> None:
        """Undo the last ``n`` steps."""
        if n > len(self._labels):
            raise TraceError(f"cannot undo {n} steps, only {len(self._labels)} taken")
        del self._states[len(self._states) - n :]
        del self._labels[len(self._labels) - n :]

    def run(self, labels: Sequence[str]) -> Trace:
        """Replay a whole label sequence from the current state."""
        for lab in labels:
            self.step(lab)
        return self.history()
