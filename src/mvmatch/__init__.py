"""Exact pattern matching over multi-view (aligned multi-track) texts."""

from .core import (
    AlphabetRegistry,
    DisjointnessViolation,
    EmptyPattern,
    MatchingError,
    MultiViewText,
    OutOfBounds,
    Pattern,
    RegistryMismatch,
    UnknownSymbol,
    occurs_at,
    resolve_pattern,
)
from .matchers import (
    SearchStats,
    ShiftTable,
    build_shift_table,
    search_horspool,
    search_horspool_instrumented,
    search_naive,
    search_naive_instrumented,
)
from .synth import GenConfig, InvalidConfig, generate_instance, generate_instance_with_start
from .formats import (
    FormatError,
    parse_pattern_string,
    parse_text_file,
    serialize_pattern,
    serialize_text,
)

__all__ = [
    "AlphabetRegistry",
    "DisjointnessViolation",
    "EmptyPattern",
    "FormatError",
    "GenConfig",
    "InvalidConfig",
    "MatchingError",
    "MultiViewText",
    "OutOfBounds",
    "Pattern",
    "RegistryMismatch",
    "SearchStats",
    "ShiftTable",
    "UnknownSymbol",
    "build_shift_table",
    "generate_instance",
    "generate_instance_with_start",
    "occurs_at",
    "parse_pattern_string",
    "parse_text_file",
    "resolve_pattern",
    "search_horspool",
    "search_horspool_instrumented",
    "search_naive",
    "search_naive_instrumented",
    "serialize_pattern",
    "serialize_text",
]

__version__ = "0.1.0"
