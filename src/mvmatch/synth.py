"""Deterministic random generation of multi-view instances.

Each view sequence is drawn uniformly i.i.d. over that view's alphabet.
Patterns are either uniform over the union alphabet or planted: copied
from a random text window, picking a random view per position, which
guarantees at least one occurrence.

View v's tokens render as ``v<v>_<index>`` so generated instances survive
a round trip through the multi-track text format.  Determinism holds
within this implementation: equal configs yield equal views and symbols,
each generated instance under its own registry, as every parsed text has.
`mvmatch bench` alone shares one registry across the instances of a run,
which it never searches across.
"""

from __future__ import annotations

import sys

from .core import AlphabetRegistry, MatchingError, MultiViewText, Pattern

PATTERN_MODES = ("uniform", "planted")


class InvalidConfig(MatchingError):
    """Raised when a GenConfig or BenchConfig is built outside its bounds."""


class GenConfig:
    def __init__(self, k: int, n: int, sigma: int, m: int, seed: int,
                 pattern_mode: str = "uniform"):
        if k < 1:
            raise InvalidConfig(f"k must be >= 1, got {k}")
        if n < 1:
            raise InvalidConfig(f"n must be >= 1, got {n}")
        if sigma < 1:
            raise InvalidConfig(f"sigma must be >= 1, got {sigma}")
        if m < 1:
            raise InvalidConfig(f"m must be >= 1, got {m}")
        if k * n > sys.maxsize // 8:  # numpy cannot size the int64 views
            raise InvalidConfig(f"k * n must be <= {sys.maxsize // 8}, got {k * n}")
        if seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {seed}")
        if pattern_mode not in PATTERN_MODES:
            raise InvalidConfig(f"unknown pattern_mode {pattern_mode!r}")
        if pattern_mode == "planted" and m > n:
            raise InvalidConfig(f"planted mode requires m <= n, got m={m}, n={n}")
        self.k = k
        self.n = n
        self.sigma = sigma
        self.m = m
        self.seed = seed
        self.pattern_mode = pattern_mode


def generate_instance(config: GenConfig) -> tuple[MultiViewText, Pattern]:
    text, pattern, _ = generate_instance_with_start(config)
    return text, pattern


def generate_instance_with_start(
    config: GenConfig,
) -> tuple[MultiViewText, Pattern, int | None]:
    """Like generate_instance, also returning the planted window position
    (None in uniform mode)."""
    return _generate(config, _registry(config.k, config.sigma))


def _registry(k: int, sigma: int) -> AlphabetRegistry:
    """k views of sigma tokens each: the symbol of (v, i) is v*sigma + i."""
    return AlphabetRegistry(
        [f"v{v}" for v in range(k)],
        [[f"v{v}_{i}" for i in range(sigma)] for v in range(k)],
    )


def _generate(
    config: GenConfig, registry: AlphabetRegistry
) -> tuple[MultiViewText, Pattern, int | None]:
    """generate_instance_with_start under a given _registry(config.k,
    config.sigma), so that a caller can share one across instances."""
    import numpy as np  # here, not at module top: `mvmatch search` never needs it

    k, n, sigma, m = config.k, config.n, config.sigma, config.m
    rng = np.random.default_rng(config.seed)

    raw = rng.integers(0, sigma, size=(k, n))
    offsets = np.arange(k, dtype=raw.dtype)[:, None] * sigma
    views = tuple(tuple(row) for row in (raw + offsets).tolist())

    planted: int | None = None
    if config.pattern_mode == "uniform":
        symbols = tuple(rng.integers(0, k * sigma, size=m).tolist())
    else:
        planted = int(rng.integers(0, n - m + 1))
        chosen = rng.integers(0, k, size=m).tolist()
        symbols = tuple(views[v][planted + q] for q, v in enumerate(chosen))

    text = MultiViewText(views, registry)
    pattern = Pattern(symbols, registry)
    return text, pattern, planted
