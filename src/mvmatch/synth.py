"""Deterministic random generation of multi-view instances.

Each view sequence is drawn uniformly i.i.d. over that view's alphabet.
Patterns are either uniform over the union alphabet or planted: copied
from a random text window, picking a random view per position, which
guarantees at least one occurrence.

View v's tokens render as ``v<v>_<index>`` so generated instances survive
a round trip through the multi-track text format.  Determinism holds
within this implementation: equal configs yield equal instances.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .core import (
    AlphabetRegistry,
    MatchingError,
    MultiViewText,
    Pattern,
    build_registry,
)

PATTERN_MODES = ("uniform", "planted")


class InvalidConfig(MatchingError):
    """A generation or benchmark configuration violates its bounds."""


@dataclass(frozen=True)
class GenConfig:
    k: int
    n: int
    sigma: int
    m: int
    seed: int
    pattern_mode: str = "uniform"

    def validate(self) -> None:
        if self.k < 1:
            raise InvalidConfig(f"k must be >= 1, got {self.k}")
        if self.n < 1:
            raise InvalidConfig(f"n must be >= 1, got {self.n}")
        if self.sigma < 1:
            raise InvalidConfig(f"sigma must be >= 1, got {self.sigma}")
        if self.m < 1:
            raise InvalidConfig(f"m must be >= 1, got {self.m}")
        if self.k * self.n > sys.maxsize // 8:  # numpy cannot size the int64 views
            raise InvalidConfig(f"k * n must be <= {sys.maxsize // 8}, got {self.k * self.n}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")
        if self.pattern_mode not in PATTERN_MODES:
            raise InvalidConfig(f"unknown pattern_mode {self.pattern_mode!r}")
        if self.pattern_mode == "planted" and self.m > self.n:
            raise InvalidConfig(
                f"planted mode requires m <= n, got m={self.m}, n={self.n}"
            )


@lru_cache(maxsize=64)
def synthetic_registry(k: int, sigma: int) -> AlphabetRegistry:
    """Registry for k views of sigma tokens each; symbol of (v, i) is
    v*sigma + i."""
    names = [f"v{v}" for v in range(k)]
    alphabets = [[f"v{v}_{i}" for i in range(sigma)] for v in range(k)]
    return build_registry(names, alphabets)


def generate_instance(config: GenConfig) -> tuple[MultiViewText, Pattern]:
    text, pattern, _ = generate_instance_with_start(config)
    return text, pattern


def generate_instance_with_start(
    config: GenConfig,
) -> tuple[MultiViewText, Pattern, Optional[int]]:
    """Like generate_instance, also returning the planted window position
    (None in uniform mode)."""
    import numpy as np  # here, not at module top: `mvmatch search` never needs it

    config.validate()
    k, n, sigma, m = config.k, config.n, config.sigma, config.m
    registry = synthetic_registry(k, sigma)
    rng = np.random.default_rng(config.seed)

    raw = rng.integers(0, sigma, size=(k, n))
    offsets = np.arange(k, dtype=raw.dtype)[:, None] * sigma
    views = tuple(tuple(row) for row in (raw + offsets).tolist())

    planted: Optional[int] = None
    if config.pattern_mode == "uniform":
        symbols = tuple(rng.integers(0, k * sigma, size=m).tolist())
    else:
        planted = int(rng.integers(0, n - m + 1))
        chosen = rng.integers(0, k, size=m).tolist()
        symbols = tuple(views[v][planted + q] for q, v in enumerate(chosen))

    text = MultiViewText(views, registry)
    pattern = Pattern(symbols, registry)
    return text, pattern, planted
