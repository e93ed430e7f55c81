import random

from mvmatch import AlphabetRegistry, build_shift_table, resolve_pattern

from helpers import char_pattern, char_registry, random_instance, shift_oracle


def shift(table, symbol):
    """A stored symbol's shift, else the table's default m."""
    return table.shifts.get(symbol, table.default_shift)


def test_babb_table():
    reg = char_registry()
    table = build_shift_table(char_pattern(reg, "BAbB"))
    assert shift(table, reg.symbol_of("B")) == 3
    assert shift(table, reg.symbol_of("A")) == 2
    assert shift(table, reg.symbol_of("b")) == 1
    for other in ("a", "c", "C"):
        assert shift(table, reg.symbol_of(other)) == 4
    assert table.default_shift == 4


def test_aaaab_table():
    # the pattern AaAab; B does not occur, so it gets the default m
    reg = char_registry()
    table = build_shift_table(char_pattern(reg, "AaAab"))
    assert shift(table, reg.symbol_of("a")) == 1
    assert shift(table, reg.symbol_of("A")) == 2
    assert shift(table, reg.symbol_of("b")) == 5
    assert shift(table, reg.symbol_of("B")) == 5


def test_unit_pattern_all_shift_one():
    reg = AlphabetRegistry(["w"], [["x", "y"]])
    table = build_shift_table(resolve_pattern(["x"], reg))
    assert table.default_shift == 1
    for sym in range(reg.num_symbols):
        assert shift(table, sym) == 1


def test_last_position_rule():
    reg = char_registry()
    # c occurs only at the last position -> default m
    table = build_shift_table(char_pattern(reg, "abc"))
    assert shift(table, reg.symbol_of("c")) == 3
    # c occurs at the last position and earlier -> distance to that earlier one
    table = build_shift_table(char_pattern(reg, "cabc"))
    assert shift(table, reg.symbol_of("c")) == 3
    table = build_shift_table(char_pattern(reg, "acbc"))
    assert shift(table, reg.symbol_of("c")) == 2


def test_shifts_within_bounds_and_match_oracle():
    rng = random.Random(2024)
    for _ in range(400):
        k = rng.randint(1, 4)
        sigma = rng.randint(1, 6)
        _, pattern, _ = random_instance(rng, k, 1, sigma, rng.randint(1, 12))
        table = build_shift_table(pattern)
        m = pattern.m
        for sym in range(pattern.registry.num_symbols):
            got = shift(table, sym)
            assert 1 <= got <= m
            assert got == shift_oracle(pattern, sym)


def test_single_view_matches_classic_table():
    # classic Horspool bad-character table, coded directly on a string
    rng = random.Random(7)
    alphabet = "abcdef"
    for _ in range(200):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
        reg = AlphabetRegistry(["w"], [list(alphabet)])
        table = build_shift_table(resolve_pattern(list(s), reg))
        m = len(s)
        classic = {}
        for q in range(m - 1):
            classic[s[q]] = m - 1 - q
        for c in alphabet:
            assert shift(table, reg.symbol_of(c)) == classic.get(c, m)
