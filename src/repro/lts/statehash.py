"""Well-mixed 64-bit state hashing.

Python's built-in ``hash`` is deliberately cheap: small ints hash to
themselves and tuple hashing, while avalanche-free, leaves strong
arithmetic structure in the low bits. That is fine for dictionaries
(which probe with the full hash) but poor where this package reduces
a hash *modulo a table size*: the visited-row slot table of
:mod:`repro.lts.rowset`. Protocol states are packed rows of small
words, so neighbouring states produce clustered raw hashes and
crowded slots.

:func:`mix64` is the splitmix64 finaliser (Steele et al., the same
mixer used as a seeder for xorshift generators): a bijection on 64-bit
words with full avalanche, so every output bit depends on every input
bit. Routing raw hashes through it makes ``% n`` behave like a uniform
draw without changing equality semantics. It is the scalar reference
the row set's vectorised hash is tested against.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """splitmix64 finaliser: avalanche a 64-bit word (bijective)."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)
