"""Shared test utilities: independent instance generation and oracles.

Everything here is deliberately coded without reusing the library's search
or generation paths, so it can serve as the independent side of dual-route
checks.
"""

from __future__ import annotations

import random
from typing import Sequence

from mvmatch import (
    AlphabetRegistry,
    DisjointnessViolation,
    FormatError,
    MultiViewText,
    Pattern,
    resolve_pattern,
)


def make_text(rows: Sequence[Sequence[int]], registry: AlphabetRegistry) -> MultiViewText:
    return MultiViewText(tuple(tuple(r) for r in rows), registry)


def check_symbol_typing(text: MultiViewText) -> None:
    """Verify every symbol sits in the view whose sequence holds it.

    O(k*n); MultiViewText does not run it on construction so that bulk
    generation stays cheap.
    """
    view_of = text.registry.symbol_to_view
    for v, seq in enumerate(text.views):
        for sym in seq:
            if view_of[sym] != v:
                raise ValueError(
                    f"symbol {sym} (view {view_of[sym]}) stored in view {v}"
                )


def char_registry():
    """The two-view registry used by the worked examples: lowercase word
    tokens, uppercase tag tokens."""
    return AlphabetRegistry(["word", "tag"], [list("abc"), list("ABC")])


def char_text(reg, word_row: str, tag_row: str) -> MultiViewText:
    return make_text(
        [[reg.symbol_of(c) for c in word_row], [reg.symbol_of(c) for c in tag_row]],
        reg,
    )


def char_pattern(reg, tokens: str) -> Pattern:
    return resolve_pattern(list(tokens), reg)


def random_instance(rng: random.Random, k: int, n: int, sigma: int, m: int,
                    mode: str = "uniform"):
    """Instance generator independent of mvmatch.synth (stdlib random, own
    token naming).  Returns (text, pattern, planted_start_or_None)."""
    names = [f"view{v}" for v in range(k)]
    alphabets = [[f"t{v}x{i}" for i in range(sigma)] for v in range(k)]
    reg = AlphabetRegistry(names, alphabets)
    views = [[rng.randrange(sigma) + v * sigma for _ in range(n)] for v in range(k)]
    text = make_text(views, reg)
    pattern, planted = random_pattern(rng, text, m, mode)
    return text, pattern, planted


def random_pattern(rng: random.Random, text: MultiViewText, m: int, mode: str = "uniform"):
    """A pattern of m symbols over the text's registry: uniform over all its
    symbols, or planted by copying a random view at each offset of a random
    window.  Returns (pattern, planted_start_or_None)."""
    registry = text.registry
    planted = None
    if mode == "planted":
        assert m <= text.n
        planted = rng.randrange(text.n - m + 1)
        symbols = [text.views[rng.randrange(registry.k)][planted + q] for q in range(m)]
    else:
        symbols = [rng.randrange(registry.num_symbols) for _ in range(m)]
    return Pattern(tuple(symbols), registry), planted


def occurs_at_reference(text: MultiViewText, pattern: Pattern, i: int) -> bool:
    """Independently coded occurrence predicate: per-offset loop using the
    registry maps directly."""
    for j in range(pattern.m):
        sym = pattern.symbols[j]
        view = text.registry.symbol_to_view[sym]
        if text.views[view][i + j] != sym:
            return False
    return True


def oracle_scan(text: MultiViewText, pattern: Pattern) -> list[int]:
    """Brute-force window scan over the reference predicate."""
    n, m = text.n, pattern.m
    if m > n:
        return []
    return [i for i in range(n - m + 1) if occurs_at_reference(text, pattern, i)]


def bitset_positions(text: MultiViewText, pattern: Pattern) -> list[int]:
    """Match positions from bitsets, sharing no code with the kernels.

    For each offset q, a 0/1 byte string over view(q) marks where p[q]
    stands; read as an int and shifted right by 8q bits, its byte i says
    whether window i holds offset q.  The AND over all m offsets has a
    nonzero byte exactly at the match positions.  Each string compares the
    symbol id itself, so any alphabet size works.
    """
    view_of = text.registry.symbol_to_view
    bits = {sym: int.from_bytes(bytes(map(sym.__eq__, text.views[view_of[sym]])), "little")
            for sym in set(pattern.symbols)}
    hits = -1
    for q, sym in enumerate(pattern.symbols):
        hits &= bits[sym] >> (8 * q)
    return [i for i, byte in enumerate(hits.to_bytes(text.n, "little")) if byte]


def shift_oracle(pattern: Pattern, symbol: int) -> int:
    """Brute-force evaluation of the bad-character minimum: the offset set
    is {m} plus m-1-q for every q < m-1 where the pattern holds the symbol."""
    m = pattern.m
    candidates = {m}
    for q in range(m - 1):
        if pattern.symbols[q] == symbol:
            candidates.add(m - 1 - q)
    return min(candidates)


def naive_symbol_reads(text: MultiViewText, pattern: Pattern) -> int:
    """Reads a naive scan makes: per window, pattern offsets left to right
    up to and including the first mismatch (all m on a match)."""
    view_of = text.registry.symbol_to_view
    m = pattern.m
    reads = 0
    for i in range(text.n - m + 1):
        q = 0
        while q < m - 1 and text.views[view_of[pattern.symbols[q]]][i + q] == pattern.symbols[q]:
            q += 1
        reads += q + 1
    return reads


def pattern_view_count(text: MultiViewText, pattern: Pattern) -> int:
    """R, the Horspool reads per alignment: the views that hold at least one
    pattern symbol.  Each is read once at the window's last position, by the
    shift step or by the last-symbol comparison, or by both as one read."""
    view_of = text.registry.symbol_to_view
    return sum(1 for v in range(text.registry.k)
               if any(view_of[sym] == v for sym in pattern.symbols))


def multiview_horspool_trace(text: MultiViewText, pattern: Pattern) -> tuple[list[int], int]:
    """Windows a multi-view Horspool scan tries, and its verification reads.

    The last pattern symbol is compared first; on a hit, offsets 0..m-2 are
    read left to right up to and including the first mismatch.  The window
    then moves by the smallest shift_oracle over the k symbols at its end.
    """
    n, m = text.n, pattern.m
    view_of = text.registry.symbol_to_view

    def holds(j: int, q: int) -> bool:
        sym = pattern.symbols[q]
        return text.views[view_of[sym]][j + q] == sym

    trace: list[int] = []
    verify_reads = 0
    j = 0
    while j + m <= n:
        trace.append(j)
        if holds(j, m - 1):
            for q in range(m - 1):
                verify_reads += 1
                if not holds(j, q):
                    break
        j += min(shift_oracle(pattern, view[j + m - 1]) for view in text.views)
    return trace, verify_reads


def classic_horspool(text: Sequence, pattern: Sequence) -> list[int]:
    """Textbook single-view Horspool on plain sequences.

    Independent of the multi-view machinery; used as the reference for the
    k=1 degeneracy checks.
    """
    matches, _ = _classic_horspool(text, pattern)
    return matches


def classic_horspool_trace(text: Sequence, pattern: Sequence) -> list[int]:
    _, trace = _classic_horspool(text, pattern)
    return trace


def _classic_horspool(text: Sequence, pattern: Sequence):
    n, m = len(text), len(pattern)
    matches: list[int] = []
    trace: list[int] = []
    if m == 0 or m > n:
        return matches, trace
    skip = {}
    for q in range(m - 1):
        skip[pattern[q]] = m - 1 - q
    last = pattern[m - 1]
    j = 0
    while j <= n - m:
        trace.append(j)
        c = text[j + m - 1]
        if c == last:
            q = 0
            while q < m - 1 and text[j + q] == pattern[q]:
                q += 1
            if q == m - 1:
                matches.append(j)
        j += skip.get(c, m)
    return matches, trace


def reference_parse_text_file(data: bytes) -> tuple[AlphabetRegistry, MultiViewText]:
    """Line-by-line parser of the multi-track format, the reference for the
    bulk parser in mvmatch.formats: equal registries and views on valid
    input, the same exception, line and reason on invalid input."""
    try:
        content = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise FormatError(0, f"not valid UTF-8: {exc}") from None

    # Only "\n" ends a line: str.splitlines would also split tokens holding
    # U+2028, U+0085, "\x0c" and other separators.
    lines = content.replace("\r\n", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()  # the final newline
    if not lines:
        raise FormatError(0, "empty file: missing header line")
    header = lines[0].split("\t")
    if any(not name for name in header):
        raise FormatError(1, "empty view name in header")
    if len(set(header)) != len(header):
        raise FormatError(1, "duplicate view name in header")
    k = len(header)

    records: list[list[str]] = []
    # dicts keep insertion order, giving reproducible symbol ids
    vocabularies: list[dict[str, None]] = [{} for _ in range(k)]
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) != k:
            raise FormatError(lineno, f"expected {k} fields, got {len(fields)}")
        for v, token in enumerate(fields):
            if not token:
                raise FormatError(lineno, f"empty token in column {v + 1}")
            vocabularies[v][token] = None
        records.append(fields)

    try:
        registry = AlphabetRegistry(header, [list(v) for v in vocabularies])
    except DisjointnessViolation as exc:
        # the first line whose later view holds the shared token
        v = header.index(exc.view_b)
        lineno = next(i for i, fields in enumerate(records, start=2) if fields[v] == exc.token)
        raise FormatError(lineno, str(exc)) from None
    columns: list[list[int]] = [[] for _ in range(k)]
    lookup = registry.token_to_symbol
    for fields in records:
        for v, token in enumerate(fields):
            columns[v].append(lookup[token])
    text = MultiViewText(tuple(tuple(c) for c in columns), registry)
    return registry, text
