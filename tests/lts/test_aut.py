"""Tests for the Aldebaran .aut format."""

import io

import pytest
from hypothesis import given

from repro.errors import AutFormatError
from repro.lts.aut import read_aut, write_aut
from repro.lts.lts import TAU
from tests.conftest import random_lts
from tests.oracles import lts_of


def test_roundtrip(small_lts):
    text = write_aut(small_lts)
    back = read_aut(io.StringIO(text))
    assert back == small_lts


def test_header_format(small_lts):
    text = write_aut(small_lts)
    assert text.splitlines()[0] == "des (0, 4, 4)"


def test_tau_written_as_i():
    l = lts_of([(0, TAU, 1)])
    text = write_aut(l)
    assert "(0, i, 1)" in text
    assert read_aut(io.StringIO(text)).labels == [TAU]


def test_quoted_labels_roundtrip():
    l = lts_of([(0, 'say "hi", friend', 1)])
    back = read_aut(io.StringIO(write_aut(l)))
    assert back.labels == ['say "hi", friend']


def test_parenthesised_labels_roundtrip():
    l = lts_of([(0, "write(t0)", 1)])
    text = write_aut(l)
    assert "(0, write(t0), 1)" in text
    assert read_aut(io.StringIO(text)) == l


def test_write_to_path(tmp_path, small_lts):
    p = tmp_path / "x.aut"
    write_aut(small_lts, p)
    assert read_aut(p) == small_lts


def test_read_from_text_with_newlines(small_lts):
    text = write_aut(small_lts)
    assert read_aut(text) == small_lts


def test_empty_input_rejected():
    with pytest.raises(AutFormatError):
        read_aut(io.StringIO(""))


def test_bad_header_rejected():
    with pytest.raises(AutFormatError, match="header"):
        read_aut(io.StringIO("hello world"))


def test_transition_count_mismatch():
    with pytest.raises(AutFormatError, match="promises"):
        read_aut(io.StringIO("des (0, 2, 2)\n(0, a, 1)\n"))


def test_state_out_of_range():
    for text, where in (
        ("des (0, 1, 2)\n(0, a, 7)\n", "line 2"),
        ("des (0, 1, 2)\n(-1, a, 1)\n", "line 2"),
        ("des (0, 1, 2)\n(0, a, -1)\n", "line 2"),
        ("des (5, 0, 2)\n", "header"),
        ("des (0, 0, 0)\n", "header"),
    ):
        with pytest.raises(AutFormatError, match=f"{where}.*out of range"):
            read_aut(io.StringIO(text))


def test_unterminated_quote():
    with pytest.raises(AutFormatError, match="quote"):
        read_aut(io.StringIO('des (0, 1, 2)\n(0, "oops, 1)\n'))


def test_blank_lines_skipped(small_lts):
    text = write_aut(small_lts).replace("\n", "\n\n")
    assert read_aut(io.StringIO(text)) == small_lts


@given(random_lts())
def test_roundtrip_random(l):
    assert read_aut(io.StringIO(write_aut(l))) == l
