"""Every path agrees with the verdict table and with every other path,
cell by cell (see :mod:`tests.conformance.harness`)."""

from __future__ import annotations

import pytest

from tests.conformance import harness


@pytest.mark.parametrize(
    "path,cell", harness.MATRIX,
    ids=[f"{path}-{cell}" for path, cell in harness.MATRIX],
)
def test_paths_agree(agree, path, cell):
    agree(cell, path)
