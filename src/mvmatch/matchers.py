"""Search algorithms: multi-view Horspool, with its bad-character shift
table, and the naive baseline, each as a fast and an instrumented kernel.

All searchers return every overlapping occurrence as a sorted list of
0-based window positions.  The fast kernels are the timed algorithms.  The
instrumented kernels additionally return SearchStats: the window positions
tried (the alignment trace) and the text-symbol reads the convention below
counts, the machine-independent work measures for benchmarking.  Both
Horspool kernels run one alignment loop, a generator that looks each
view's shift up in a dense list indexed by symbol id.  The fast kernel
keeps only the windows whose last symbol matches, the instrumented one
every window tried; both verify those hits one offset at a time.  The
naive tries every window in Python, so its cost hangs on n and m, not on
how common the pattern's symbols are in the text.  Text symbol ids must
lie in [0, num_symbols) of the text's registry, as every constructor in
the package gives: a larger id raises IndexError, and a negative one reads
another symbol's shift, which can change the trace and the reads (never
the matches) without an error.

Counting convention: at each Horspool alignment the k reads used for the
shift (one per view, all at the window's last position) count as k reads;
the read of the last pattern symbol's view is shared with the last-character
comparison and is not double-counted.  Verification reads of the remaining
offsets count one each, stopping at the first mismatch.
"""

from __future__ import annotations

from collections.abc import Sequence

from .core import MatchingError, MultiViewText, Pattern, RegistryMismatch, SymbolId


class SearchStats:
    """Work counters for one search invocation."""

    def __init__(self, trace: Sequence[int], symbol_reads: int, matches_found: int):
        self.trace = trace  # window positions tried, in order
        self.symbol_reads = symbol_reads
        self.matches_found = matches_found

    @property
    def alignments(self) -> int:
        return len(self.trace)


class ShiftTable:
    """Bad-character shifts of one pattern: a sparse map with default m.

    A symbol's shift is the distance from the last pattern position to its
    latest occurrence strictly before it; a symbol occurring only there, or
    absent, shifts by m.  All shifts are thus in [1, m], so the search always
    advances.  One left-to-right pass over p[0..m-2]: later occurrences
    overwrite earlier ones, which realizes the minimum-offset rule.  Sparse,
    because token alphabets can be vocabulary-sized while the pattern touches
    only a handful of symbols.
    """

    def __init__(self, pattern: Pattern):
        m = pattern.m
        shifts: dict[SymbolId, int] = {}
        symbols = pattern.symbols
        for q in range(m - 1):
            shifts[symbols[q]] = m - 1 - q
        self.shifts = shifts
        self.default_shift = m
        self.symbols = symbols  # the pattern it was built for


build_shift_table = ShiftTable


def _pattern_rows(text: MultiViewText, pattern: Pattern):
    """Per-offset (view sequence, expected symbol) pairs."""
    # Identity check: symbol ids from another registry are meaningless here.
    if text.registry is not pattern.registry:
        raise RegistryMismatch(
            "text and pattern were built against different registries"
        )
    view_of = text.registry.symbol_to_view
    views = text.views
    return [(views[view_of[s]], s) for s in pattern.symbols]


def _horspool_windows(text: MultiViewText, pattern: Pattern, table: ShiftTable | None):
    """Yield, in order, the windows multi-view Horspool tries, each shifting
    by the minimum bad-character offset over all views at the window's last
    position.  A generator, so that the fast kernel keeps no trace."""
    if table is None:
        table = ShiftTable(pattern)
    elif table.symbols != pattern.symbols:
        raise MatchingError("the shift table was built for another pattern")
    shift = [table.default_shift] * text.registry.num_symbols
    for symbol, distance in table.shifts.items():
        shift[symbol] = distance
    views = text.views
    last = pattern.m - 1
    limit = text.n - pattern.m  # the last window start; < 0 if m > n
    j = 0
    while j <= limit:
        yield j
        j += min([shift[row[j + last]] for row in views])


def _verify(rows, starts):
    """The starts that hold at every (row, symbol) offset, and the reads a
    left-to-right check of each start makes up to its first mismatch:
    offset q is read by exactly the starts that held at offsets 0..q-1."""
    reads = 0
    for q, (row, sym) in enumerate(rows):
        reads += len(starts)
        starts = [i for i in starts if row[i + q] == sym]
    return starts, reads


def search_naive(text: MultiViewText, pattern: Pattern) -> list[int]:
    """Try every window, comparing offsets left to right until mismatch."""
    matches: list[int] = []
    rows = _pattern_rows(text, pattern)
    # empty when m > n
    for i in range(text.n - pattern.m + 1):
        for q, (row, sym) in enumerate(rows):
            if row[i + q] != sym:
                break
        else:
            matches.append(i)
    return matches


def search_naive_instrumented(
    text: MultiViewText, pattern: Pattern
) -> tuple[list[int], SearchStats]:
    trace = range(text.n - pattern.m + 1)
    matches, reads = _verify(_pattern_rows(text, pattern), trace)
    return matches, SearchStats(trace, reads, len(matches))


def _verify_hits(rows, windows):
    """_verify over the windows whose last symbol matches, which the shift
    step has already read."""
    (last_row, last_sym), last = rows[-1], len(rows) - 1
    return _verify(rows[:-1], [j for j in windows if last_row[j + last] == last_sym])


def search_horspool(
    text: MultiViewText, pattern: Pattern, table: ShiftTable | None = None
) -> list[int]:
    """Multi-view Horspool: shift by the minimum bad-character offset over all
    views at the window's last position, then verify the windows whose last
    symbol matched.

    A shift table built for this pattern may be passed to reuse
    pre-processing across texts; one built for other symbols is refused.
    """
    rows = _pattern_rows(text, pattern)
    return _verify_hits(rows, _horspool_windows(text, pattern, table))[0]


def search_horspool_instrumented(
    text: MultiViewText, pattern: Pattern
) -> tuple[list[int], SearchStats]:
    """search_horspool that also records the alignment trace and the reads."""
    rows = _pattern_rows(text, pattern)
    trace = list(_horspool_windows(text, pattern, None))
    matches, reads = _verify_hits(rows, trace)
    # the k shift reads per alignment; the last-symbol view's read is shared
    return matches, SearchStats(trace, reads + len(text.views) * len(trace), len(matches))


# algorithm -> (fast kernel, instrumented kernel)
KERNELS = {
    "horspool": (search_horspool, search_horspool_instrumented),
    "naive": (search_naive, search_naive_instrumented),
}
