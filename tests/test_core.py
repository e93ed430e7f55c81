import random

import pytest

from mvmatch import (
    AlphabetRegistry,
    DisjointnessViolation,
    EmptyPattern,
    OutOfBounds,
    Pattern,
    UnknownSymbol,
    occurs_at,
    resolve_pattern,
)

from helpers import (
    char_pattern,
    char_registry,
    char_text,
    check_symbol_typing,
    make_text,
    occurs_at_reference,
    random_instance,
)


class TestBuildRegistry:
    def test_two_views_four_symbols(self):
        reg = AlphabetRegistry(["word", "tag"], [["a", "b"], ["A", "B"]])
        assert reg.num_symbols == 4
        assert reg.symbol_to_view[reg.symbol_of("a")] == 0
        assert reg.symbol_to_view[reg.symbol_of("b")] == 0
        assert reg.symbol_to_view[reg.symbol_of("A")] == 1
        assert reg.symbol_to_view[reg.symbol_of("B")] == 1

    def test_ids_contiguous_in_registration_order(self):
        reg = AlphabetRegistry(["w", "t"], [["a", "b"], ["A"]])
        assert [reg.symbol_of(t) for t in ("a", "b", "A")] == [0, 1, 2]

    def test_single_view(self):
        reg = AlphabetRegistry(["word"], [["x"]])
        assert reg.k == 1
        assert reg.num_symbols == 1

    def test_disjointness_violation(self):
        with pytest.raises(DisjointnessViolation) as exc:
            AlphabetRegistry(["w", "t"], [["a"], ["a"]])
        assert exc.value.token == "a"
        assert (exc.value.view_a, exc.value.view_b) == ("w", "t")

    def test_duplicate_within_one_view_rejected(self):
        with pytest.raises(DisjointnessViolation):
            AlphabetRegistry(["w"], [["a", "a"]])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            AlphabetRegistry(["w", "t"], [["a"]])

    def test_no_views(self):
        with pytest.raises(ValueError):
            AlphabetRegistry([], [])

    def test_totality(self):
        reg = AlphabetRegistry(["w", "t"], [["a", "b"], ["A", "B"]])
        for sym in range(reg.num_symbols):
            assert reg.symbol_to_view[sym] in (0, 1)
            assert reg.symbol_of(reg.symbol_to_token[sym]) == sym


class TestResolvePattern:
    def test_mixed_views(self):
        reg = AlphabetRegistry(["word", "tag"], [list("abc"), list("ABC")])
        p = resolve_pattern(list("BAbB"), reg)
        assert p.m == 4
        assert tuple(reg.symbol_to_view[s] for s in p.symbols) == (1, 1, 0, 1)

    def test_unit_pattern(self):
        reg = char_registry()
        assert resolve_pattern(["a"], reg).m == 1

    def test_unknown_symbol(self):
        reg = AlphabetRegistry(["w", "t"], [["a", "b"], ["A", "B"]])
        with pytest.raises(UnknownSymbol) as exc:
            resolve_pattern(["Z"], reg)
        assert exc.value.token == "Z"

    def test_empty_pattern(self):
        with pytest.raises(EmptyPattern):
            resolve_pattern([], char_registry())

    def test_round_trip(self):
        reg = char_registry()
        tokens = list("BAbBca")
        assert resolve_pattern(tokens, reg).tokens() == tuple(tokens)


class TestText:
    def test_unequal_lengths_rejected(self):
        reg = char_registry()
        with pytest.raises(ValueError):
            make_text([[0, 1], [3]], reg)

    def test_wrong_view_count_rejected(self):
        reg = char_registry()
        with pytest.raises(ValueError):
            make_text([[0, 1]], reg)

    def test_symbol_typing_check(self):
        reg = char_registry()
        text = char_text(reg, "ab", "AB")
        check_symbol_typing(text)
        bad = make_text([[reg.symbol_of("A"), 0], [3, 4]], reg)
        with pytest.raises(ValueError):
            check_symbol_typing(bad)


class TestOccursAt:
    def test_paper_match_at_one(self):
        reg = char_registry()
        text = char_text(reg, "baaaab", "AAAABB")
        p = char_pattern(reg, "AaAab")
        assert occurs_at(text, p, 1) is True

    def test_paper_fail_at_zero_last_char(self):
        reg = char_registry()
        text = char_text(reg, "baaaab", "AAAABB")
        p = char_pattern(reg, "AaAab")
        assert occurs_at(text, p, 0) is False

    def test_paper_babb_match_at_four(self):
        reg = char_registry()
        text = char_text(reg, "cabbaabc", "BABABACB")
        p = char_pattern(reg, "BAbB")
        assert occurs_at(text, p, 4) is True

    def test_out_of_bounds(self):
        reg = char_registry()
        text = char_text(reg, "ab", "AB")
        p = char_pattern(reg, "a")
        with pytest.raises(OutOfBounds):
            occurs_at(text, p, 2)
        with pytest.raises(OutOfBounds):
            occurs_at(text, p, -1)

    def test_matches_reference_predicate(self):
        rng = random.Random(1234)
        for _ in range(300):
            k = rng.randint(1, 3)
            n = rng.randint(1, 40)
            m = rng.randint(1, min(6, n))
            text, pattern, _ = random_instance(rng, k, n, rng.randint(1, 4), m)
            for i in range(n - m + 1):
                assert occurs_at(text, pattern, i) == occurs_at_reference(
                    text, pattern, i
                )

    def test_masking(self):
        # mutating a view the pattern never constrains at the aligned offset
        # cannot change the outcome
        rng = random.Random(99)
        for _ in range(200):
            k = rng.randint(2, 3)
            n = rng.randint(3, 30)
            m = rng.randint(1, min(5, n))
            text, pattern, _ = random_instance(rng, k, n, 3, m)
            i = rng.randrange(n - m + 1)
            before = occurs_at(text, pattern, i)
            pattern_views = [text.registry.symbol_to_view[s] for s in pattern.symbols]
            views = [list(v) for v in text.views]
            for j in range(m):
                for v in range(k):
                    if v != pattern_views[j]:
                        base = v * 3
                        views[v][i + j] = base + rng.randrange(3)
            mutated = make_text(views, text.registry)
            assert occurs_at(mutated, pattern, i) == before

    def test_empty_symbols_rejected(self):
        with pytest.raises(EmptyPattern):
            Pattern((), char_registry())
