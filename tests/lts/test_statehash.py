"""Tests for the well-mixed hashing helpers."""

from repro.lts.statehash import mix64


def test_mix64_bijective_sample():
    seen = {mix64(x) for x in range(4096)}
    assert len(seen) == 4096
