"""Search algorithms: multi-view Horspool, with its bad-character shift
table, and the naive baseline, each as a fast and an instrumented kernel.

All searchers return every overlapping occurrence as a sorted list of
0-based window positions.  The fast kernels are the timed algorithms.  The
instrumented kernels additionally return SearchStats: the window positions
tried (the alignment trace) and the text-symbol reads the convention below
counts, the machine-independent work measures for benchmarking.  They
verify one offset at a time over all candidate windows, with the same counts.

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


def _horspool_setup(text: MultiViewText, pattern: Pattern, table: ShiftTable | None):
    """The shift lookup and its default, the last offset's (row, symbol), the
    prefix rows, the views the shift reads and the last window start (< 0 if m > n)."""
    rows = _pattern_rows(text, pattern)
    if table is None:
        table = ShiftTable(pattern)
    elif table.symbols != pattern.symbols:
        raise MatchingError("the shift table was built for another pattern")
    return (table.shifts.get, table.default_shift, rows[-1], rows[:-1], text.views,
            text.n - pattern.m)


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


def search_horspool(
    text: MultiViewText, pattern: Pattern, table: ShiftTable | None = None
) -> list[int]:
    """Multi-view Horspool: compare the last position first, verify left to
    right on a hit, then shift by the minimum bad-character offset over all
    views' symbols at the window's last position.

    A shift table built for this pattern may be passed to reuse
    pre-processing across texts; one built for other symbols is refused.
    """
    shift_of, default, (last_row, last_sym), prefix, views, limit = \
        _horspool_setup(text, pattern, table)
    m = pattern.m
    matches: list[int] = []
    j = 0
    while j <= limit:
        e = j + m - 1
        if last_row[e] == last_sym:
            for q, (row, sym) in enumerate(prefix):
                if row[j + q] != sym:
                    break
            else:
                matches.append(j)
        j += min(shift_of(row[e], default) for row in views)
    return matches


def search_horspool_instrumented(
    text: MultiViewText, pattern: Pattern
) -> tuple[list[int], SearchStats]:
    """search_horspool that also records the alignment trace and the reads."""
    shift_of, default, (last_row, last_sym), prefix, views, limit = \
        _horspool_setup(text, pattern, None)
    last = pattern.m - 1
    trace: list[int] = []
    visit = trace.append
    j = 0
    while j <= limit:
        visit(j)
        j += min(shift_of(row[j + last], default) for row in views)
    hits = [j for j in trace if last_row[j + last] == last_sym]
    matches, reads = _verify(prefix, hits)
    # the k shift reads per alignment; the last-symbol view's read is shared
    return matches, SearchStats(trace, reads + len(views) * len(trace), len(matches))


# algorithm -> (fast kernel, instrumented kernel)
KERNELS = {
    "horspool": (search_horspool, search_horspool_instrumented),
    "naive": (search_naive, search_naive_instrumented),
}
