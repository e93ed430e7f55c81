"""Multi-track text file format and pattern strings.

The text format is CoNLL-flavoured: UTF-8 (a leading byte-order mark is
ignored), one record per LF- or CRLF-terminated line, fields
tab-separated, first line a header of distinct view names.  Column v of
the body holds view v's token at each position; column vocabularies must
be pairwise disjoint.  Tokens may not contain tabs or newlines and there
is no quoting.  Patterns are plain whitespace-separated token strings.
"""

from __future__ import annotations

from .core import (
    AlphabetRegistry,
    MatchingError,
    MultiViewText,
    Pattern,
    build_registry,
    resolve_pattern,
)


class FormatError(MatchingError):
    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


def parse_text_file(data: bytes) -> tuple[AlphabetRegistry, MultiViewText]:
    """Parse a multi-track file; the registry is built from the observed
    column vocabularies, in order of first appearance."""
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

    registry = build_registry(header, [list(v) for v in vocabularies])
    columns: list[list[int]] = [[] for _ in range(k)]
    lookup = registry.token_to_symbol
    for fields in records:
        for v, token in enumerate(fields):
            columns[v].append(lookup[token])
    text = MultiViewText(tuple(tuple(c) for c in columns), registry)
    return registry, text


def serialize_text(text: MultiViewText) -> bytes:
    """Inverse of parse_text_file at the token level."""
    registry = text.registry
    token_of = registry.symbol_to_token
    out = ["\t".join(registry.view_names)]
    for pos in range(text.n):
        out.append("\t".join(token_of[view[pos]] for view in text.views))
    return ("\n".join(out) + "\n").encode("utf-8")


def parse_pattern_string(s: str, registry: AlphabetRegistry) -> Pattern:
    """Whitespace-separated tokens resolved against the registry."""
    return resolve_pattern(s.split(), registry)


def serialize_pattern(pattern: Pattern) -> bytes:
    return (" ".join(pattern.tokens()) + "\n").encode("utf-8")
