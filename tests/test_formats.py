"""The bulk text parser against the line-by-line reference, and the
serializers' refusal to write what would not parse back."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvmatch import AlphabetRegistry, FormatError, MatchingError, resolve_pattern
from mvmatch.formats import (
    parse_pattern_string,
    parse_text_file,
    serialize_pattern,
    serialize_text,
)

from helpers import make_text, reference_parse_text_file

PROPERTY = settings(max_examples=400, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# Pieces the format treats specially, or that look like it might.
FRAGMENTS = ["a", "b", "c", "A", "B", "w", "t", "\u00e9", "x y", "\t", "\t", "\n", "\n",
             "\r\n", "\r", "\ufeff", "\u2028", "\x85", "\x0c", ""]


def outcome(parse, data):
    """What a parser does with ``data``, in comparable form."""
    try:
        registry, text = parse(data)
    except FormatError as exc:
        return ("FormatError", exc.line, exc.reason)
    except MatchingError as exc:
        return (type(exc).__name__, str(exc))
    return ("ok", registry.view_names, registry.token_to_symbol, registry.symbol_to_view,
            registry.symbol_to_token, text.views)


def assert_same_as_reference(data):
    assert outcome(parse_text_file, data) == outcome(reference_parse_text_file, data)


@st.composite
def fragment_files(draw):
    text = "".join(draw(st.lists(st.sampled_from(FRAGMENTS), max_size=40)))
    return text.encode("utf-8")


@st.composite
def grid_files(draw):
    """Mostly well-formed files: per-column alphabets, with the odd empty
    token, wrong field count, CRLF ending, BOM or missing final newline."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(0, 12))
    alphabets = [[f"{c}{v}" for c in ("a", "b\u2028", "c\x85", "d\r", "e\x0c")]
                 for v in range(k)]
    lines = ["\t".join(f"view{v}" for v in range(k))]
    for _ in range(n):
        row = [draw(st.sampled_from(alphabets[v])) for v in range(k)]
        flaw = draw(st.sampled_from(["none"] * 12 + ["empty", "extra", "missing"]))
        if flaw == "empty":
            row[draw(st.integers(0, k - 1))] = ""
        elif flaw == "extra":
            row.append(draw(st.sampled_from(alphabets[-1])))
        elif flaw == "missing":
            row.pop()
        lines.append("\t".join(row))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = ending.join(lines) + draw(st.sampled_from([ending, ""]))
    return draw(st.sampled_from(["", "\ufeff"])).encode() + text.encode("utf-8")


@PROPERTY
@given(fragment_files())
def test_fragments_parse_like_reference(data):
    assert_same_as_reference(data)


@PROPERTY
@given(grid_files())
def test_grids_parse_like_reference(data):
    assert_same_as_reference(data)


@PROPERTY
@given(st.binary(max_size=64))
def test_arbitrary_bytes_parse_like_reference(data):
    # outcome() lets anything but a MatchingError escape and fail the test
    assert_same_as_reference(data)


@pytest.mark.parametrize("data, line, reason", [
    # an empty token on line 2 comes before a field-count error on line 3
    (b"a\tb\nx\t\ny\n", 2, "empty token in column 2"),
    (b"a\tb\nx\ny\t\n", 2, "expected 2 fields, got 1"),
    (b"w\na\n\nb\n", 3, "empty token in column 1"),
    (b"w\tt\na\tA\n\nb\tB\n", 3, "expected 2 fields, got 1"),
    (b"w\tt\na\tA\nb\tB\tC", 3, "expected 2 fields, got 3"),
])
def test_first_bad_line_wins(data, line, reason):
    with pytest.raises(FormatError) as exc:
        parse_text_file(data)
    assert (exc.value.line, exc.value.reason) == (line, reason)
    assert_same_as_reference(data)


def one_line_text(names, tokens):
    registry = AlphabetRegistry(names, [[t] for t in tokens])
    return make_text([[s] for s in range(len(tokens))], registry)


@pytest.mark.parametrize("names, tokens, line", [
    (["w"], ["a\tb"], 2),
    (["w"], ["a\nb"], 2),
    (["w", "t"], ["a", "T\r"], 2),
    (["w", "t"], ["a", ""], 2),
    (["w", "t"], ["a", "\r"], 2),
    (["w", "t\r"], ["a", "T"], 1),
    (["w\tx", "t"], ["a", "T"], 1),
    (["w", "w"], ["a", "T"], 1),
    (["", "t"], ["a", "T"], 1),
    (["\ufeffw", "t"], ["a", "T"], 1),
])
def test_serialize_refuses_what_would_not_parse_back(names, tokens, line):
    with pytest.raises(FormatError) as exc:
        serialize_text(one_line_text(names, tokens))
    assert exc.value.line == line


def test_serialize_reports_first_line_holding_a_bad_token():
    registry = AlphabetRegistry(["w", "t"], [["a", "b"], ["T", "U\r"]])
    text = make_text([[0, 0, 1], [2, 3, 3]], registry)
    with pytest.raises(FormatError) as exc:
        serialize_text(text)
    assert exc.value.line == 3


def test_serialize_ignores_bad_tokens_the_text_does_not_hold():
    registry = AlphabetRegistry(["w", "t"], [["a", ""], ["T", "U\r"]])
    text = make_text([[0], [2]], registry)
    assert parse_text_file(serialize_text(text))[1].n == 1


adversarial_tokens = st.text(
    alphabet=st.sampled_from("ab\t\n\r \ufeff\u2028\x85\x0c\x0b\u00e9"), max_size=4)


@PROPERTY
@given(st.data())
def test_serialize_round_trips_or_refuses(data):
    k = data.draw(st.integers(1, 3))
    names = data.draw(st.lists(adversarial_tokens, min_size=k, max_size=k))
    tokens = data.draw(st.lists(adversarial_tokens, min_size=k, max_size=3 * k, unique=True))
    alphabets = [tokens[v::k] for v in range(k)]
    registry = AlphabetRegistry(names, alphabets)
    n = data.draw(st.integers(0, 6))
    rows = [[registry.symbol_of(data.draw(st.sampled_from(alphabets[v]))) for _ in range(n)]
            for v in range(k)]
    text = make_text(rows, registry)
    try:
        written = serialize_text(text)
    except FormatError:
        return
    parsed_registry, parsed = parse_text_file(written)
    assert parsed_registry.view_names == registry.view_names
    assert [[parsed_registry.symbol_to_token[s] for s in view] for view in parsed.views] == \
        [[registry.symbol_to_token[s] for s in view] for view in text.views]


@PROPERTY
@given(st.data())
def test_serialize_pattern_round_trips_or_refuses(data):
    tokens = data.draw(st.lists(adversarial_tokens, min_size=1, max_size=6, unique=True))
    registry = AlphabetRegistry(["w"], [tokens])
    pattern = resolve_pattern(data.draw(st.lists(st.sampled_from(tokens), min_size=1,
                                                 max_size=5)), registry)
    unwritable = any(not t or set(t) & set(" \t\r\n") for t in pattern.tokens())
    try:
        written = serialize_pattern(pattern)
    except FormatError:
        assert unwritable
        return
    assert not unwritable
    assert parse_pattern_string(written.decode("utf-8"), registry).symbols == pattern.symbols
