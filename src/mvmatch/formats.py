"""Multi-track text file format and pattern strings.

The text format is CoNLL-flavoured: UTF-8 (a leading byte-order mark is
ignored), one record per LF- or CRLF-terminated line, fields
tab-separated, first line a header of distinct view names.  Column v of
the body holds view v's token at each position; column vocabularies must
be pairwise disjoint.  Tokens may not contain tabs or newlines and there
is no quoting.  Pattern strings are tokens separated by runs of space,
tab, CR and LF; any other character, other whitespace included (U+00A0,
U+2028, U+0085, "\x0c", ...), belongs to a token.

Known limitation: a token holding a space or a CR cannot be named in a
pattern string, though the text format accepts it.
"""

from __future__ import annotations

from .core import (
    AlphabetRegistry,
    DisjointnessViolation,
    MatchingError,
    MultiViewText,
    Pattern,
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
    if not content:
        raise FormatError(0, "empty file: missing header line")

    # Only "\n" ends a line: str.splitlines would also split tokens holding
    # U+2028, U+0085, "\x0c" and other separators.
    content = content.replace("\r\n", "\n")
    header_line, _, body = content.partition("\n")
    header = header_line.split("\t")
    if any(not name for name in header):
        raise FormatError(1, "empty view name in header")
    if len(set(header)) != len(header):
        raise FormatError(1, "duplicate view name in header")
    k = len(header)

    if body and not body.endswith("\n"):
        body += "\n"
    n = body.count("\n")
    # One split for the whole body: each "\n" becomes a field of its own, so
    # every line has exactly k fields iff the fields are k tokens and one
    # "\n", n times over, followed by the "" after the last newline.  An
    # empty token shows as two tabs in a row or a tab at the start.
    joined = body.replace("\n", "\t\n\t")
    fields = joined.split("\t")
    if (len(fields) != (k + 1) * n + 1 or fields[k::k + 1].count("\n") != n
            or joined.startswith("\t") or "\t\t" in joined):
        _raise_first_bad_line(body, k)
    columns = [fields[v:-1:k + 1] for v in range(k)]
    del joined, fields

    # dicts keep insertion order, giving reproducible symbol ids
    try:
        registry = AlphabetRegistry(header, [dict.fromkeys(column) for column in columns])
    except DisjointnessViolation as exc:  # the first line whose later view holds it
        line = columns[header.index(exc.view_b)].index(exc.token) + 2
        raise FormatError(line, str(exc)) from None
    lookup = registry.token_to_symbol.__getitem__
    views = tuple(tuple(map(lookup, column)) for column in columns)
    return registry, MultiViewText(views, registry)


def _raise_first_bad_line(body: str, k: int) -> None:
    """Raise the FormatError of the first body line that does not hold k
    non-empty fields; called only when the bulk checks found one."""
    for lineno, line in enumerate(body[:-1].split("\n"), start=2):
        fields = line.split("\t")
        if len(fields) != k:
            raise FormatError(lineno, f"expected {k} fields, got {len(fields)}")
        for v, token in enumerate(fields):
            if not token:
                raise FormatError(lineno, f"empty token in column {v + 1}")


def serialize_text(text: MultiViewText) -> bytes:
    """Inverse of parse_text_file at the token level.

    Raises FormatError, with the line the field would have had, when a view
    name or a token written into the text could not be read back.
    """
    registry = text.registry
    names = registry.view_names
    k = len(names)
    for v, name in enumerate(names):
        reason = _unwritable(name, v, k)
        if reason is None and v == 0 and name.startswith("\ufeff"):
            reason = "starts with a byte-order mark"
        if reason is not None:
            raise FormatError(1, f"view name {name!r} {reason}")
    if len(set(names)) != k:
        raise FormatError(1, "duplicate view name in header")

    token_of = registry.symbol_to_token
    bad = {}
    for symbol, (token, v) in enumerate(zip(token_of, registry.symbol_to_view)):
        reason = _unwritable(token, v, k)
        if reason is not None:
            bad[symbol] = reason
    if bad:
        # Only a token the text holds is written: report its first line.
        for pos in range(text.n):
            for v, view in enumerate(text.views):
                if view[pos] in bad:
                    raise FormatError(
                        pos + 2,
                        f"token {token_of[view[pos]]!r} in view {names[v]!r} {bad[view[pos]]}",
                    )

    out = ["\t".join(names)]
    for pos in range(text.n):
        out.append("\t".join(token_of[view[pos]] for view in text.views))
    return ("\n".join(out) + "\n").encode("utf-8")


def _unwritable(field: str, column: int, k: int) -> str | None:
    """Why ``field`` in 0-based ``column`` of a k-column line would not parse
    back as itself, or None if it would."""
    if not field:
        return "is empty"
    if "\t" in field or "\n" in field:
        return "holds a tab or newline"
    if column == k - 1 and field.endswith("\r"):
        return "ends in a carriage return in the last column"
    return None


def _pattern_tokens(s: str) -> list[str]:
    """Split on runs of space, tab, CR and LF only."""
    spaced = s.replace("\t", " ").replace("\r", " ").replace("\n", " ")
    return [token for token in spaced.split(" ") if token]


def parse_pattern_string(s: str, registry: AlphabetRegistry) -> Pattern:
    """Tokens separated by runs of space, tab, CR and LF, resolved against
    the registry."""
    return resolve_pattern(_pattern_tokens(s), registry)


def serialize_pattern(pattern: Pattern) -> bytes:
    """Inverse of parse_pattern_string; raises FormatError for a token that
    would not read back as itself."""
    for token in pattern.tokens():
        if _pattern_tokens(token) != [token]:
            raise FormatError(
                1, f"pattern token {token!r} is empty or holds a space, tab, CR or LF"
            )
    return (" ".join(pattern.tokens()) + "\n").encode("utf-8")
