"""Shared test utilities: independent instance generation and oracles.

Everything here is deliberately coded without reusing the library's search
or generation paths, so it can serve as the independent side of dual-route
checks.
"""

from __future__ import annotations

import random
from typing import Sequence

from mvmatch import MultiViewText, Pattern, build_registry, make_text, resolve_pattern


def char_registry():
    """The two-view registry used by the worked examples: lowercase word
    tokens, uppercase tag tokens."""
    return build_registry(["word", "tag"], [list("abc"), list("ABC")])


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
    reg = build_registry(names, alphabets)
    views = [[rng.randrange(sigma) + v * sigma for _ in range(n)] for v in range(k)]
    planted = None
    if mode == "planted":
        assert m <= n
        planted = rng.randrange(n - m + 1)
        symbols = [views[rng.randrange(k)][planted + q] for q in range(m)]
    else:
        symbols = [rng.randrange(k * sigma) for _ in range(m)]
    text = make_text(views, reg)
    pattern = Pattern(tuple(symbols), reg)
    return text, pattern, planted


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


def shift_oracle(pattern: Pattern, symbol: int) -> int:
    """Brute-force evaluation of the bad-character minimum: the offset set
    is {m} plus m-1-q for every q < m-1 where the pattern holds the symbol."""
    m = pattern.m
    candidates = {m}
    for q in range(m - 1):
        if pattern.symbols[q] == symbol:
            candidates.add(m - 1 - q)
    return min(candidates)


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
