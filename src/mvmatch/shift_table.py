"""Bad-character shift table for the multi-view Horspool search.

For a pattern of length m, a symbol's shift is the distance from the last
pattern position to the symbol's latest occurrence strictly before that
last position.  Symbols occurring only at the last position, and symbols
absent from the pattern, shift by m.  All shifts are therefore in [1, m],
which is what guarantees the search always advances.
"""

from __future__ import annotations

from .core import Pattern, SymbolId


class ShiftTable:
    """Sparse shift map with default m for symbols not stored.

    Kept sparse because token alphabets can be vocabulary-sized while the
    pattern touches only a handful of symbols.
    """

    def __init__(self, shifts: dict[SymbolId, int], default_shift: int):
        self.shifts = shifts
        self.default_shift = default_shift


def build_shift_table(pattern: Pattern) -> ShiftTable:
    """One left-to-right pass over p[0..m-2]; later occurrences overwrite
    earlier ones, which realizes the minimum-offset rule."""
    m = pattern.m
    shifts: dict[SymbolId, int] = {}
    symbols = pattern.symbols
    for q in range(m - 1):
        shifts[symbols[q]] = m - 1 - q
    return ShiftTable(shifts=shifts, default_shift=m)
