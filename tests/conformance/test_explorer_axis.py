"""The explorer-only axis: the engine's sweep of the frontier kernel
against the reference explorer's sweep of ``JackalModel.successors``
(:func:`tests.conformance.harness.explorer_agrees`), on configurations
hypothesis draws beyond the matrix's cells. The examples are the
hand-picked :data:`~tests.conformance.harness.EXPLORER_CELLS` and one
single-processor configuration.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.jackal.params import Config
from tests.conformance.harness import EXPLORER_CELLS, VARIANTS, explorer_config
from tests.jackal.test_model_properties import configs


def _examples(test):
    for variant, *params in EXPLORER_CELLS:
        test = example(config=explorer_config(*params), variant=variant)(test)
    single = Config(threads_per_processor=(2,), with_probes=False)
    return example(config=single, variant="fixed")(test)


@settings(max_examples=10, deadline=None)
@given(config=configs(), variant=st.sampled_from(VARIANTS))
@_examples
def test_engine_on_kernel_equals_reference_explorer(
    explorer_agrees, config, variant
):
    explorer_agrees(config, variant)
