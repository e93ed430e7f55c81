"""Search algorithms: multi-view Horspool and the naive baseline, each as a
fast kernel and an instrumented kernel.

All searchers return every overlapping occurrence as a sorted list of
0-based window positions.  The instrumented kernels additionally return
SearchStats: the window positions tried (the alignment trace) and the
text-symbol reads, which serve as machine-independent work measures for
benchmarking.

Counting convention: at each Horspool alignment the k reads used for the
shift (one per view, all at the window's last position) count as k reads;
the read of the last pattern symbol's view is shared with the last-character
comparison and is not double-counted.  Verification reads of the remaining
offsets count one each, stopping at the first mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import MultiViewText, Pattern, check_same_registry
from .shift_table import ShiftTable, build_shift_table


@dataclass
class SearchStats:
    """Work counters for one search invocation."""

    trace: Sequence[int] = ()  # window positions tried, in order
    symbol_reads: int = 0
    matches_found: int = 0

    @property
    def alignments(self) -> int:
        return len(self.trace)


def _pattern_rows(text: MultiViewText, pattern: Pattern):
    """Per-offset (view sequence, expected symbol) pairs."""
    view_of = text.registry.symbol_to_view
    views = text.views
    return [(views[view_of[s]], s) for s in pattern.symbols]


def search_naive(text: MultiViewText, pattern: Pattern) -> list[int]:
    """Try every window, comparing offsets left to right until mismatch."""
    check_same_registry(text, pattern)
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
    check_same_registry(text, pattern)
    matches: list[int] = []
    stats = SearchStats(range(text.n - pattern.m + 1))
    rows = _pattern_rows(text, pattern)
    reads = 0
    for i in stats.trace:
        for q, (row, sym) in enumerate(rows):
            reads += 1
            if row[i + q] != sym:
                break
        else:
            matches.append(i)
    stats.symbol_reads = reads
    stats.matches_found = len(matches)
    return matches, stats


def search_horspool(
    text: MultiViewText, pattern: Pattern, table: ShiftTable | None = None
) -> list[int]:
    """Multi-view Horspool: compare the last position first, verify left to
    right on a hit, then shift by the minimum bad-character offset over all
    views' symbols at the window's last position.

    A prebuilt shift table may be passed to reuse pre-processing across
    texts.
    """
    check_same_registry(text, pattern)
    n, m = text.n, pattern.m
    matches: list[int] = []
    if table is None:
        table = build_shift_table(pattern)
    shift_of = table.shifts.get
    default = table.default_shift
    rows = _pattern_rows(text, pattern)
    last_row, last_sym = rows[-1]
    prefix = rows[:-1]
    views = text.views
    limit = n - m  # negative when m > n: no window
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
    check_same_registry(text, pattern)
    n, m = text.n, pattern.m
    matches: list[int] = []
    trace: list[int] = []
    stats = SearchStats(trace)
    table = build_shift_table(pattern)
    shift_of = table.shifts.get
    default = table.default_shift
    rows = _pattern_rows(text, pattern)
    last_row, last_sym = rows[-1]
    prefix = rows[:-1]
    views = text.views
    visit = trace.append
    limit = n - m
    reads = 0
    j = 0
    while j <= limit:
        visit(j)
        e = j + m - 1
        if last_row[e] == last_sym:
            for q, (row, sym) in enumerate(prefix):
                reads += 1
                if row[j + q] != sym:
                    break
            else:
                matches.append(j)
        j += min(shift_of(row[e], default) for row in views)
    # the k shift reads per alignment; the last-symbol view's read is shared
    stats.symbol_reads = reads + len(views) * len(trace)
    stats.matches_found = len(matches)
    return matches, stats


# algorithm -> (fast kernel, instrumented kernel)
KERNELS = {
    "horspool": (search_horspool, search_horspool_instrumented),
    "naive": (search_naive, search_naive_instrumented),
}
