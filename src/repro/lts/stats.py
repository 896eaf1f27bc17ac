"""Descriptive statistics over LTSs (Table 8 style reporting)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.lts.lts import LTS, TAU


@dataclass(frozen=True)
class LTSSummary:
    """The numbers reported per configuration in the paper's Table 8,
    plus a few structural extras."""

    states: int
    transitions: int
    labels: int
    tau_transitions: int
    terminal_states: int
    avg_out_degree: float
    max_out_degree: int

    def as_row(self) -> dict[str, object]:
        """Flat dict for tabular printing."""
        return {
            "states": self.states,
            "transitions": self.transitions,
            "labels": self.labels,
            "tau": self.tau_transitions,
            "terminal": self.terminal_states,
            "avg_deg": round(self.avg_out_degree, 3),
            "max_deg": self.max_out_degree,
        }


def lts_summary(lts: LTS) -> LTSSummary:
    """Compute an :class:`LTSSummary` for ``lts``."""
    n = lts.n_states
    out_deg = [0] * n
    src, lbl, _dst = lts.transition_arrays()
    for s in src:
        out_deg[s] += 1
    tau_count = lts.label_counts().get(TAU, 0)
    terminal = sum(1 for d in out_deg if d == 0)
    m = lts.n_transitions
    return LTSSummary(
        states=n,
        transitions=m,
        labels=len(lts.labels),
        tau_transitions=tau_count,
        terminal_states=terminal,
        avg_out_degree=(m / n) if n else 0.0,
        max_out_degree=max(out_deg, default=0),
    )

