"""The Table 8 runner behind ``repro table8`` (experiment T8).

:func:`run_table8` returns one :class:`Table8Row` per configuration;
callers can re-run the table under modified parameters. The error hunts
(E1, E2) are single requirement checks and need no runner.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.jackal.params import CONFIG_1, CONFIG_2, CONFIG_3, Config, ProtocolVariant
from repro.jackal.requirements import RequirementReport, check_all_requirements
from repro.obs.core import current as _current_tracer


@dataclass
class Table8Row:
    """One row of the Table-8 reproduction."""

    config: str
    states: int
    transitions: int
    requirements: dict[str, RequirementReport]
    seconds: float

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.requirements.values())

    def as_dict(self) -> dict[str, object]:
        return {
            "config": self.config,
            "states": self.states,
            "transitions": self.transitions,
            "req_checked": ", ".join(sorted(self.requirements)),
            "all_hold": self.all_hold,
            "seconds": round(self.seconds, 2),
        }


def run_table8(
    *,
    rounds: int | None = 2,
    variant: ProtocolVariant = ProtocolVariant.fixed(),
    max_states: int | None = None,
    configs: dict[str, Config] | None = None,
) -> list[Table8Row]:
    """Regenerate Table 8 (experiment T8).

    Configuration 3 is checked for requirements 1-2 only, as in the
    paper. With cyclic threads (``rounds=None``) that row does not fit
    8 GiB unreduced, so it is decided exactly on its certified symmetry
    quotient, and its ``config`` says so: the counts are quotient ones.
    A configuration that cannot be certified raises
    :class:`~repro.errors.ReproError` naming the findings. A row's
    ``seconds`` are its ``table8_row`` span's.
    """
    if configs is None:
        configs = {"1": CONFIG_1, "2": CONFIG_2, "3": CONFIG_3}
    rows = []
    for name, cfg in configs.items():
        skip = ("3.1", "3.2", "4") if cfg.n_processors > 2 else ()
        c = dataclasses.replace(cfg, rounds=rounds)
        with _current_tracer().span("table8_row") as span:
            certificate = None
            if skip and rounds is None:
                from repro.staticcheck.symmetry import certified

                certificate = certified(c, variant)
                name = f"{name} (certified quotient)"
            res = check_all_requirements(
                c, variant, skip=skip, max_states=max_states,
                certificate=certificate,
            )
            states = max(r.lts_states for r in res.values())
            transitions = max(r.lts_transitions for r in res.values())
            span.fields.update(
                config=name, states=states, transitions=transitions
            )
        rows.append(Table8Row(
            config=name, states=states, transitions=transitions,
            requirements=res, seconds=span.seconds,
        ))
    return rows
