"""repro — reproduction of *Model Checking a Cache Coherence Protocol
for a Java DSM Implementation* (Pang, Fokkink, Hofman, Veldema;
IPPS 2003).

The package rebuilds the paper's subject and the part of its
toolchain that decides a verdict; the protocol is written once, as a
direct Python model (the muCRL specification step has no stand-in):

* :mod:`repro.lts` — explicit-state LTS generation (the reference
  BFS, the level-vectorised engine), the certified symmetry reduction
  and the ``.aut`` interchange format;
* :mod:`repro.mucalc` — a regular alternation-free mu-calculus model
  checker (the CADP *Evaluator* stand-in);
* :mod:`repro.jackal` — the Jackal DSM cache coherence protocol model,
  its buggy and fixed variants, and the paper's four requirements;
* :mod:`repro.analysis` — trace explanation and experiment reporting.

Quickstart::

    from repro.jackal import Config, ProtocolVariant
    from repro.jackal.requirements import check_requirement_1

    # two processors with one thread each: the paper's configuration 1
    config = Config(threads_per_processor=(1, 1), rounds=1)
    report = check_requirement_1(config, ProtocolVariant.fixed())
    assert report.holds
"""

from repro.errors import (
    ReproError,
    ExplorationLimitError,
    FormulaSyntaxError,
    FormulaSemanticsError,
    ModelError,
    TraceError,
    AutFormatError,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "ExplorationLimitError",
    "FormulaSyntaxError",
    "FormulaSemanticsError",
    "ModelError",
    "TraceError",
    "AutFormatError",
    "__version__",
]
