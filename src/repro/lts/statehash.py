"""Well-mixed 64-bit state hashing.

Python's built-in ``hash`` is deliberately cheap: small ints hash to
themselves and tuple hashing, while avalanche-free, leaves strong
arithmetic structure in the low bits. That is fine for dictionaries
(which probe with the full hash) but poor where this package reduces
a hash *modulo a table size*: the bitstate tables of
:mod:`repro.lts.bitstate` (``bit = h % n_bits``) and the visited-row
slot table of :mod:`repro.lts.rowset`. Protocol states are nested
tuples of small ints, so neighbouring states produce clustered raw
hashes and crowded slots.

:func:`mix64` is the splitmix64 finaliser (Steele et al., the same
mixer used as a seeder for xorshift generators): a bijection on 64-bit
words with full avalanche, so every output bit depends on every input
bit. Routing raw hashes through it makes ``% n`` behave like a uniform
draw without changing equality semantics.
"""

from __future__ import annotations

from typing import Hashable

_MASK64 = (1 << 64) - 1

#: splitmix64 increment (the golden-ratio constant), reused as the
#: second-hash salt in double hashing
GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """splitmix64 finaliser: avalanche a 64-bit word (bijective)."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def state_key64(state: Hashable) -> int:
    """A well-mixed 64-bit key for ``state``: its built-in hash, mixed,
    which keeps table positions uniform for arbitrary hashable states."""
    return mix64(hash(state))


def double_hashes(h: int, k: int, n: int) -> list[int]:
    """``k`` double-hashed positions in ``range(n)`` derived from ``h``.

    The classic Bloom-filter schema ``h1 + i*h2`` with independent
    mixes of ``h``; ``h2`` is forced odd so the stride cycles through
    the whole table even when ``n`` is a power of two.
    """
    h1 = mix64(h)
    h2 = mix64(h ^ GOLDEN_GAMMA) | 1
    return [((h1 + i * h2) & _MASK64) % n for i in range(k)]
