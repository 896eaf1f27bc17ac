"""repro — reproduction of *Model Checking a Cache Coherence Protocol
for a Java DSM Implementation* (Pang, Fokkink, Hofman, Veldema;
IPPS 2003).

The package rebuilds the paper's entire toolchain and subject:

* :mod:`repro.algebra` — a muCRL-style process algebra with data,
  parallel composition, encapsulation and hiding;
* :mod:`repro.lts` — explicit-state LTS generation (serial, the
  level-vectorised engine, bitstate), reductions and the ``.aut``
  interchange format;
* :mod:`repro.mucalc` — a regular alternation-free mu-calculus model
  checker (the CADP *Evaluator* stand-in);
* :mod:`repro.jackal` — the Jackal DSM cache coherence protocol model,
  its buggy and fixed variants, and the paper's four requirements;
* :mod:`repro.analysis` — trace explanation and experiment reporting.

Quickstart::

    from repro.jackal import JackalModel, Config, ProtocolVariant
    from repro.jackal.requirements import check_requirement_1

    model = JackalModel(Config(n_processors=2, threads_per_processor=(1, 1)),
                        ProtocolVariant.fixed())
    report = check_requirement_1(model)
    assert report.holds
"""

from repro.errors import (
    ReproError,
    SpecificationError,
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
    "SpecificationError",
    "ExplorationLimitError",
    "FormulaSyntaxError",
    "FormulaSemanticsError",
    "ModelError",
    "TraceError",
    "AutFormatError",
    "__version__",
]
