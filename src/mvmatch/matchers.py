"""Search algorithms: multi-view Horspool, with its bad-character shift
table, and the naive baseline, each as a fast and an instrumented kernel.

All searchers return every overlapping occurrence as a sorted list of
0-based window positions.  The fast kernels are the timed algorithms.  The
instrumented kernels additionally return SearchStats: the window positions
tried (the alignment trace) and the text-symbol reads the convention below
counts, the machine-independent work measures for benchmarking.  Both
Horspool kernels run one alignment loop, a generator that looks a shift up
in a dense list indexed by symbol id, for each view of p[0..m-2] only: a
view the pattern leaves out there always shifts by m.  One, two or three
such views each step in their own loop, with one lookup per view and one
compare fewer; more step with a list min.  The fast kernel tests the last
symbol inside that loop, which yields only the windows where it matches;
the instrumented kernel's test always holds, so it gets every window tried
and tests the last symbol after.  Both verify those hits one offset at a
time, offset 0 read as row[i].  Both naive kernels run that same check over
every window: each offset filters a list of the windows that held so far,
so the naive's cost follows how many windows survive each offset, and it
holds one O(n) list of candidates.  Text symbol ids must lie in
[0, num_symbols) of the text's registry, as every constructor in the
package gives.  Only the Horspool kernels index by a text symbol, and only
in the views of p[0..m-2], at each window's last position: there a larger
id raises IndexError, and a negative one reads another symbol's shift,
which can change the trace and the reads (never the matches) without an
error.  Elsewhere, and in the naive kernels, symbols are only compared.

Counting convention: at each Horspool alignment, R reads, where R is the
number of distinct views among the pattern's symbols.  These are the
shift step's reads of the views of p[0..m-2] and the last-character
comparison's read of p[m-1]'s view, all at the window's last position; a
view read by both counts once.  Verification reads of the remaining
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
    overwrite earlier ones, which realizes the minimum-offset rule.  It holds
    at most m-1 entries; each Horspool search expands it into a dense list
    with one slot per registry symbol.
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


def _horspool_windows(text: MultiViewText, pattern: Pattern, table: ShiftTable | None,
                      test_row: Sequence[int], test_sym: int):
    """Yield, in order, the windows multi-view Horspool tries whose last
    position holds test_sym in test_row, each shifting by the minimum
    bad-character offset over all views there.  A generator that tests in
    its loop, so that the fast kernel keeps no trace and resumes on hits only.

    Only the views of p[0..m-2], the rows, are read: a symbol of any other
    view shifts by m, which no row exceeds, so the minimum over the rows is
    the minimum over all k views.  With m=1 there are no rows, every shift
    is 1 and every window is tried.

    Each row count up to three has its own loop, one lookup per row: one
    row steps by its shift, two by the smaller of theirs in one compare,
    three by their minimum in two compares.  More use a list min.
    """
    if table is None:
        table = ShiftTable(pattern)
    elif table.symbols != pattern.symbols:
        raise MatchingError("the shift table was built for another pattern")
    view_of = text.registry.symbol_to_view
    views = text.views
    rows = [views[v] for v in sorted({view_of[s] for s in pattern.symbols[:-1]})]
    if not rows:
        yield from (end for end in range(text.n) if test_row[end] == test_sym)
        return
    shift = [table.default_shift] * text.registry.num_symbols
    for symbol, distance in table.shifts.items():
        shift[symbol] = distance
    last = pattern.m - 1
    end, n = last, text.n  # the window's last position; none if m > n
    if len(rows) == 1:
        a, = rows
        while end < n:
            if test_row[end] == test_sym:
                yield end - last
            end += shift[a[end]]
    elif len(rows) == 2:
        a, b = rows
        while end < n:
            if test_row[end] == test_sym:
                yield end - last
            s = shift[a[end]]
            t = shift[b[end]]
            end += t if t < s else s
    elif len(rows) == 3:
        a, b, c = rows
        while end < n:
            if test_row[end] == test_sym:
                yield end - last
            s = shift[a[end]]
            t = shift[b[end]]
            u = shift[c[end]]
            if t < s:
                s = t
            end += u if u < s else s
    else:
        while end < n:
            if test_row[end] == test_sym:
                yield end - last
            end += min([shift[row[end]] for row in rows])


def _verify(rows, starts):
    """The starts that hold at every (row, symbol) offset, and the reads a
    left-to-right check of each start makes up to its first mismatch:
    offset q is read by exactly the starts that held at offsets 0..q-1.
    Offset 0 reads row[i], sparing a new int i + 0 per start."""
    reads = 0
    for q, (row, sym) in enumerate(rows):
        reads += len(starts)
        starts = ([i for i in starts if row[i + q] == sym] if q
                  else [i for i in starts if row[i] == sym])
    return starts, reads


def search_naive(text: MultiViewText, pattern: Pattern) -> list[int]:
    """Try every window, offset by offset, as the instrumented naive does:
    each offset keeps the windows that held at every offset before it."""
    return _verify(_pattern_rows(text, pattern), range(text.n - pattern.m + 1))[0]


def search_naive_instrumented(
    text: MultiViewText, pattern: Pattern
) -> tuple[list[int], SearchStats]:
    trace = range(text.n - pattern.m + 1)
    matches, reads = _verify(_pattern_rows(text, pattern), trace)
    return matches, SearchStats(trace, reads, len(matches))


def search_horspool(
    text: MultiViewText, pattern: Pattern, table: ShiftTable | None = None
) -> list[int]:
    """Multi-view Horspool: shift by the minimum bad-character offset over the
    views of p[0..m-2] at the window's last position, which equals the
    minimum over all views, then verify the windows whose last symbol
    matched.

    A shift table built for this pattern may be passed; that saves only
    building its (m-1)-entry dict, as the dense list is rebuilt on every
    call.  One built for other symbols is refused.
    """
    rows = _pattern_rows(text, pattern)
    return _verify(rows[:-1], list(_horspool_windows(text, pattern, table, *rows[-1])))[0]


def search_horspool_instrumented(
    text: MultiViewText, pattern: Pattern
) -> tuple[list[int], SearchStats]:
    """search_horspool that also records the alignment trace and the reads."""
    rows = _pattern_rows(text, pattern)
    trace = list(_horspool_windows(text, pattern, None, bytes(text.n), 0))  # every window
    (last_row, last_sym), last = rows[-1], len(rows) - 1
    matches, reads = _verify(rows[:-1], [j for j in trace if last_row[j + last] == last_sym])
    # R reads per alignment, one per distinct view of the pattern: the shift
    # step's rows and the last symbol's view, whose read a row may share
    view_of = text.registry.symbol_to_view
    r = len({view_of[s] for s in pattern.symbols})
    return matches, SearchStats(trace, reads + r * len(trace), len(matches))


# algorithm -> (fast kernel, instrumented kernel)
KERNELS = {
    "horspool": (search_horspool, search_horspool_instrumented),
    "naive": (search_naive, search_naive_instrumented),
}
