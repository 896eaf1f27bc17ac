"""Aldebaran ``.aut`` format I/O.

``.aut`` is the textual LTS interchange format of CADP, which the muCRL
toolset emits and the paper's toolchain consumed:

.. code-block:: text

    des (<initial>, <n_transitions>, <n_states>)
    (<src>, "<label>", <dst>)
    ...

Labels containing special characters are quoted; the hidden action may
be written ``i``, ``tau`` or ``"i"`` and is normalised to ``tau`` on
input.
"""

from __future__ import annotations

import io
import re
from pathlib import Path
from typing import TextIO

from repro.errors import AutFormatError
from repro.lts.lts import LTS, TAU

_HEADER = re.compile(r"^\s*des\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*$")
_UNQUOTED = re.compile(r"^[A-Za-z0-9_.!?:()'\[\]{}<>=+\-*/|&^%$#@~;, ]*$")


def _parse_transition(line: str, lineno: int) -> tuple[int, str, int]:
    line = line.strip()
    if not (line.startswith("(") and line.endswith(")")):
        raise AutFormatError(f"line {lineno}: expected (src, label, dst)")
    body = line[1:-1]
    # src up to first comma
    try:
        src_txt, rest = body.split(",", 1)
        src = int(src_txt.strip())
    except ValueError as exc:
        raise AutFormatError(f"line {lineno}: bad source state") from exc
    rest = rest.strip()
    if rest.startswith('"'):
        end = rest.find('"', 1)
        while end != -1 and end + 1 < len(rest) and rest[end - 1] == "\\":
            end = rest.find('"', end + 1)
        if end == -1:
            raise AutFormatError(f"line {lineno}: unterminated label quote")
        label = rest[1:end].replace('\\"', '"')
        tail = rest[end + 1 :].strip()
        if not tail.startswith(","):
            raise AutFormatError(f"line {lineno}: expected comma after label")
        dst_txt = tail[1:].strip()
    else:
        try:
            label, dst_txt = rest.rsplit(",", 1)
        except ValueError as exc:
            raise AutFormatError(f"line {lineno}: bad transition body") from exc
        label = label.strip()
        dst_txt = dst_txt.strip()
    try:
        dst = int(dst_txt)
    except ValueError as exc:
        raise AutFormatError(f"line {lineno}: bad destination state") from exc
    if label in ("i", "tau", "TAU"):
        label = TAU
    return src, label, dst


def read_aut(source: str | Path | TextIO) -> LTS:
    """Parse an ``.aut`` file (path, text, or open file) into an LTS."""
    if isinstance(source, (str, Path)):
        p = Path(source)
        if isinstance(source, Path) or "\n" not in str(source):
            text = p.read_text()
        else:
            text = str(source)
    else:
        text = source.read()
    lines = text.splitlines()
    if not lines:
        raise AutFormatError("empty .aut input")
    m = _HEADER.match(lines[0])
    if not m:
        raise AutFormatError(f"bad header: {lines[0]!r}")
    initial, n_trans, n_states = (int(g) for g in m.groups())
    if initial >= n_states:
        raise AutFormatError(
            f"header: initial state {initial} out of range (header says "
            f"{n_states} states)"
        )
    lts = LTS(initial=initial)
    lts.ensure_states(n_states)
    count = 0
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        src, label, dst = _parse_transition(line, lineno)
        if not (0 <= src < n_states and 0 <= dst < n_states):
            raise AutFormatError(
                f"line {lineno}: state index out of range (header says "
                f"{n_states} states)"
            )
        lts.add_transition(src, label, dst)
        count += 1
    if count != n_trans:
        raise AutFormatError(
            f"header promises {n_trans} transitions, found {count}"
        )
    return lts


def write_aut(lts: LTS, target: str | Path | TextIO | None = None) -> str:
    """Serialise ``lts`` to ``.aut``; returns the text.

    ``target`` may be a path or open file; when ``None`` only the text is
    returned.
    """
    buf = io.StringIO()
    buf.write(f"des ({lts.initial}, {lts.n_transitions}, {lts.n_states})\n")
    for t in lts.transitions():
        label = t.label
        if label == TAU:
            out = "i"
        elif _UNQUOTED.match(label) and "," not in label:
            out = label
        else:
            out = '"' + label.replace('"', '\\"') + '"'
        buf.write(f"({t.src}, {out}, {t.dst})\n")
    text = buf.getvalue()
    if isinstance(target, (str, Path)):
        Path(target).write_text(text)
    elif target is not None:
        target.write(text)
    return text
