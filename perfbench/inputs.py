"""Seeded inputs for the benchmark workloads, and the oracle that checks them.

Nothing here imports mvmatch: the oracle must stay independent of the code
it checks.  A text is a (k, n) integer array, one row per view; a pattern
is a list of (row, value) pairs, one per pattern position.  The sizes below
do not depend on the seed, so every seed yields workloads of one shape.
"""

from __future__ import annotations

import numpy as np

# corpus_search: a multi-track TSV of about 1.5 MB.
CORPUS_K, CORPUS_N, CORPUS_SIGMA = 3, 100_000, 10
# vocab_queries: a Zipf word track plus a tag track, about 9k distinct symbols.
VOCAB_N, VOCAB_WORD_TYPES, VOCAB_ZIPF, VOCAB_TAGS = 100_000, 14_000, 1.1, 40

# Independent random streams drawn from one seed.
_CORPUS, _VOCAB, _SWEEP = 1, 2, 3


def rng_for(seed: int, stream: int, *more: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, stream, *more)))


def sweep_seed(seed: int, m: int, index: int) -> int:
    """Seed of kernel_sweep instance `index` at pattern length m."""
    return int(rng_for(seed, _SWEEP, m, index).integers(0, 2**63))


def oracle_positions(columns: np.ndarray, pattern) -> list[int]:
    """Every window where each pattern position equals its own row of the
    text: a vectorised AND over the aligned column slices."""
    n, m = columns.shape[1], len(pattern)
    if m > n:
        return []
    windows = n - m + 1
    hit = np.ones(windows, dtype=bool)
    for q, (row, value) in enumerate(pattern):
        hit &= columns[row, q:q + windows] == value
    return np.flatnonzero(hit).tolist()


def rows_of(columns: np.ndarray, symbols) -> list[tuple[int, int]] | None:
    """Pair each symbol with the one row that holds it.

    None when some symbol occurs in no row, so no window can match.
    """
    present = [set(np.unique(row).tolist()) for row in columns]
    pattern = []
    for symbol in symbols:
        rows = [r for r, values in enumerate(present) if symbol in values]
        if len(rows) > 1:
            raise ValueError(f"symbol {symbol} occurs in rows {rows}")
        if not rows:
            return None
        pattern.append((rows[0], symbol))
    return pattern


def planted(rng: np.random.Generator, columns: np.ndarray, m: int):
    """A window copied from the text, with a random row at each position."""
    k, n = columns.shape
    start = int(rng.integers(0, n - m + 1))
    rows = rng.integers(0, k, size=m).tolist()
    return [(r, int(columns[r, start + q])) for q, r in enumerate(rows)]


def uniform(rng: np.random.Generator, k: int, sigma: int, m: int):
    """Symbols drawn uniformly over the union of k alphabets of sigma each."""
    return [divmod(int(s), sigma) for s in rng.integers(0, k * sigma, size=m)]


def to_tsv(view_names, vocabularies, columns: np.ndarray) -> bytes:
    """The multi-track text format: a header of view names, then one
    tab-separated line per position."""
    cols = [np.asarray(vocab, dtype=object)[row].tolist()
            for vocab, row in zip(vocabularies, columns)]
    body = "\n".join(map("\t".join, zip(*cols)))
    return ("\t".join(view_names) + "\n" + body + "\n").encode("utf-8")


def pattern_string(vocabularies, pattern) -> str:
    return " ".join(vocabularies[row][value] for row, value in pattern)


def corpus(seed: int):
    """k=3 uniform tracks over 10 tokens each; returns names, vocabularies,
    columns and the generator that draws the patterns."""
    rng = rng_for(seed, _CORPUS)
    columns = rng.integers(0, CORPUS_SIGMA, size=(CORPUS_K, CORPUS_N))
    names = [f"v{v}" for v in range(CORPUS_K)]
    vocabularies = [[f"t{v}_{i}" for i in range(CORPUS_SIGMA)] for v in range(CORPUS_K)]
    return names, vocabularies, columns, rng


def _zipf(types: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, types + 1) ** exponent
    return weights / weights.sum()


def vocab_text(seed: int):
    """A word track with Zipf-distributed word types and a tag track."""
    rng = rng_for(seed, _VOCAB)
    words = rng.choice(VOCAB_WORD_TYPES, size=VOCAB_N, p=_zipf(VOCAB_WORD_TYPES, VOCAB_ZIPF))
    tags = rng.choice(VOCAB_TAGS, size=VOCAB_N, p=_zipf(VOCAB_TAGS, 1.0))
    columns = np.stack([words, tags])
    vocabularies = [[f"w{i}" for i in range(VOCAB_WORD_TYPES)],
                    [f"T{i}" for i in range(VOCAB_TAGS)]]
    return ["word", "tag"], vocabularies, columns, rng
