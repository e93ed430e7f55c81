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
    build_registry,
    make_text,
    occurs_at,
    resolve_pattern,
)
from .shift_table import ShiftTable, build_shift_table
from .matchers import (
    SearchStats,
    search_horspool,
    search_horspool_instrumented,
    search_naive,
    search_naive_instrumented,
)
from .synth import GenConfig, InvalidConfig, generate_instance, generate_instance_with_start
from .bench import BenchConfig, BenchRow, run_benchmark, write_csv
from .formats import (
    FormatError,
    parse_pattern_string,
    parse_text_file,
    serialize_pattern,
    serialize_text,
)

__all__ = [
    "AlphabetRegistry",
    "BenchConfig",
    "BenchRow",
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
    "build_registry",
    "build_shift_table",
    "generate_instance",
    "generate_instance_with_start",
    "make_text",
    "occurs_at",
    "parse_pattern_string",
    "parse_text_file",
    "resolve_pattern",
    "run_benchmark",
    "search_horspool",
    "search_horspool_instrumented",
    "search_naive",
    "search_naive_instrumented",
    "serialize_pattern",
    "serialize_text",
    "write_csv",
]

__version__ = "0.1.0"
