import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvmatch import (
    MatchingError,
    RegistryMismatch,
    build_registry,
    build_shift_table,
    occurs_at,
    resolve_pattern,
    search_horspool,
    search_horspool_instrumented,
    search_naive,
    search_naive_instrumented,
)

from mvmatch.matchers import KERNELS

from helpers import (
    bitset_positions,
    char_pattern,
    char_registry,
    char_text,
    classic_horspool,
    classic_horspool_trace,
    make_text,
    multiview_horspool_trace,
    naive_symbol_reads,
    oracle_scan,
    random_instance,
    random_pattern,
)


@pytest.fixture
def babb_instance():
    reg = char_registry()
    text = char_text(reg, "cabbaabc", "BABABACB")
    return reg, text, char_pattern(reg, "BAbB")


def test_babb_horspool(babb_instance):
    _, text, p = babb_instance
    assert search_horspool(text, p) == [4]


def test_babb_trace(babb_instance):
    _, text, p = babb_instance
    assert search_horspool_instrumented(text, p)[1].trace == [0, 1, 4]


def test_babb_naive(babb_instance):
    _, text, p = babb_instance
    assert search_naive(text, p) == [4]


def test_aaaab_match():
    reg = char_registry()
    text = char_text(reg, "baaaab", "AAAABB")
    p = char_pattern(reg, "AaAab")
    assert search_horspool(text, p) == [1]
    assert search_naive(text, p) == [1]


def test_pattern_longer_than_text():
    reg = char_registry()
    text = char_text(reg, "ab", "AB")
    p = char_pattern(reg, "aba")
    assert search_horspool(text, p) == []
    assert search_naive(text, p) == []
    for run in (search_horspool_instrumented, search_naive_instrumented):
        matches, stats = run(text, p)
        assert matches == [] and list(stats.trace) == []
        assert stats.alignments == 0 and stats.symbol_reads == 0


def test_unit_pattern_matches_everywhere():
    reg = build_registry(["w"], [["a"]])
    text = make_text([[0, 0, 0]], reg)
    p = resolve_pattern(["a"], reg)
    assert search_naive(text, p) == [0, 1, 2]
    assert search_horspool(text, p) == [0, 1, 2]


def test_single_window():
    reg = char_registry()
    text = char_text(reg, "ab", "AB")
    p = char_pattern(reg, "ab")
    assert search_horspool_instrumented(text, p)[1].trace == [0]


def test_registry_mismatch():
    reg1 = char_registry()
    reg2 = char_registry()
    text = char_text(reg1, "ab", "AB")
    p = char_pattern(reg2, "a")
    for fn in (
        search_horspool,
        search_naive,
        search_horspool_instrumented,
        search_naive_instrumented,
        lambda t, p: search_horspool(t, p, build_shift_table(p)),
        lambda t, p: occurs_at(t, p, 0),
    ):
        with pytest.raises(RegistryMismatch):
            fn(text, p)


def test_shift_table_must_be_built_for_the_pattern(babb_instance):
    reg, text, babb = babb_instance
    ab = char_pattern(reg, "ab")
    with pytest.raises(MatchingError, match="built for another pattern"):
        search_horspool(text, ab, build_shift_table(babb))
    # compared by symbols: a table from a distinct, equal Pattern is accepted
    table = build_shift_table(char_pattern(reg, "ab"))
    assert search_horspool(text, ab, table) == search_naive(text, ab) == [1, 5]


def test_babb_instrumented_counts(babb_instance):
    _, text, p = babb_instance
    matches, stats = search_horspool_instrumented(text, p)
    assert matches == [4]
    assert stats.alignments == 3
    assert stats.matches_found == 1
    # 2 shift reads per alignment, plus verification reads of 1 (at j=1)
    # and 3 (at j=4)
    assert stats.symbol_reads == 3 * 2 + 1 + 3

    matches, stats = search_naive_instrumented(text, p)
    assert matches == [4]
    assert stats.alignments == 5
    # reads per window until first mismatch: 4, 1, 3, 1, 4
    assert stats.symbol_reads == 13


def test_naive_instrumented_unit_pattern():
    reg = build_registry(["w"], [["a"]])
    text = make_text([[0, 0, 0]], reg)
    p = resolve_pattern(["a"], reg)
    matches, stats = search_naive_instrumented(text, p)
    assert matches == [0, 1, 2] and list(stats.trace) == [0, 1, 2]
    assert stats.alignments == 3 and stats.symbol_reads == 3


def test_naive_first_read_kills_every_window():
    reg = build_registry(["w"], [["a", "z"]])
    text = make_text([[0] * 10], reg)
    p = resolve_pattern(["z", "a"], reg)
    matches, stats = search_naive_instrumented(text, p)
    assert matches == []
    assert stats.symbol_reads == 10 - 2 + 1


def test_random_equivalence_small():
    rng = random.Random(31337)
    for _ in range(1500):
        k = rng.randint(1, 4)
        n = rng.randint(1, 80)
        sigma = rng.randint(1, 6)
        m = rng.randint(1, 10)
        mode = "planted" if (rng.random() < 0.5 and m <= n) else "uniform"
        text, pattern, _ = random_instance(rng, k, n, sigma, m, mode)
        expected = oracle_scan(text, pattern)
        assert search_naive(text, pattern) == expected
        assert search_horspool(text, pattern) == expected


@st.composite
def small_instances(draw):
    """Instances from the independent generator: k in [1, 5], sigma in
    [1, 4], n in [1, 40], m in [1, n + 2]; planted only when m <= n."""
    k = draw(st.integers(1, 5))
    sigma = draw(st.integers(1, 4))
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, n + 2))
    mode = draw(st.sampled_from(["uniform", "planted"])) if m <= n else "uniform"
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    text, pattern, _ = random_instance(rng, k, n, sigma, m, mode)
    return text, pattern


@settings(max_examples=400, deadline=None)
@given(small_instances())
def test_kernels_and_counts_match_oracles(instance):
    text, pattern = instance
    expected = oracle_scan(text, pattern)
    assert search_naive(text, pattern) == expected
    assert search_horspool(text, pattern) == expected
    assert search_horspool(text, pattern, build_shift_table(pattern)) == expected

    matches, stats = search_naive_instrumented(text, pattern)
    assert matches == expected and stats.matches_found == len(expected)
    assert list(stats.trace) == list(range(text.n - pattern.m + 1))
    assert stats.symbol_reads == naive_symbol_reads(text, pattern)

    matches, stats = search_horspool_instrumented(text, pattern)
    trace, verify_reads = multiview_horspool_trace(text, pattern)
    assert matches == expected and stats.matches_found == len(expected)
    assert list(stats.trace) == trace and stats.alignments == len(trace)
    assert stats.symbol_reads == text.registry.k * len(trace) + verify_reads


def test_bitset_oracle_agrees_with_oracle_scan():
    rng = random.Random(2718)
    for _ in range(1000):
        n = rng.randint(1, 40)
        m = rng.randint(1, n + 2)
        mode = "planted" if (rng.random() < 0.5 and m <= n) else "uniform"
        text, pattern, _ = random_instance(
            rng, rng.randint(1, 5), n, rng.randint(1, 4), m, mode)
        assert bitset_positions(text, pattern) == oracle_scan(text, pattern)


# Desk scale: one text of DESK_N positions per (k, sigma), searched with
# planted and uniform patterns of each length in DESK_M; m = n and m = n + 1
# run on its first DESK_SMALL_N positions.  DESK_K covers one and two views,
# the benchmark workloads' k <= 3, and more views than any workload has.
DESK_N = 8_000
DESK_SMALL_N = 60
DESK_M = (1, 2, 10, 30)
DESK_K = (1, 2, 3, 4, 8)


def _naive_counts(text, pattern):
    return list(range(text.n - pattern.m + 1)), naive_symbol_reads(text, pattern)


def _horspool_counts(text, pattern):
    trace, verify_reads = multiview_horspool_trace(text, pattern)
    return trace, text.registry.k * len(trace) + verify_reads


# algorithm -> oracle of its instrumented kernel's (trace, symbol_reads)
COUNT_ORACLES = {"horspool": _horspool_counts, "naive": _naive_counts}


def test_every_kernel_matches_the_bitset_oracle_at_desk_scale():
    rng = random.Random(1980)
    for k in DESK_K:
        for sigma in (1, 2, 4, 10, 300):
            text, _, _ = random_instance(rng, k, DESK_N, sigma, 1)
            small = make_text([view[:DESK_SMALL_N] for view in text.views], text.registry)
            cases = [(text, m, mode) for m in DESK_M for mode in ("planted", "uniform")]
            cases += [(small, DESK_SMALL_N, "planted"), (small, DESK_SMALL_N, "uniform"),
                      (small, DESK_SMALL_N + 1, "uniform")]
            for haystack, m, mode in cases:
                pattern, _ = random_pattern(rng, haystack, m, mode)
                expected = bitset_positions(haystack, pattern)
                where = f"k={k} sigma={sigma} n={haystack.n} m={m} {mode}"
                for name, (fast, instrumented) in KERNELS.items():
                    assert fast(haystack, pattern) == expected, f"{name} {where}"
                    matches, stats = instrumented(haystack, pattern)
                    assert matches == expected, f"{name}_instrumented {where}"
                    assert stats.matches_found == len(expected), f"{name}_instrumented {where}"
                    trace, reads = COUNT_ORACLES[name](haystack, pattern)
                    assert list(stats.trace) == trace, f"{name}_instrumented {where}"
                    assert stats.symbol_reads == reads, f"{name}_instrumented {where}"


def test_results_sorted_unique():
    rng = random.Random(5)
    for _ in range(200):
        text, pattern, _ = random_instance(rng, 2, rng.randint(1, 60), 2, rng.randint(1, 4))
        got = search_horspool(text, pattern)
        assert got == sorted(set(got))


def test_horspool_alignments_never_exceed_naive():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(2, 100)
        m = rng.randint(1, min(8, n))
        text, pattern, _ = random_instance(rng, rng.randint(1, 3), n, rng.randint(1, 5), m)
        _, hs = search_horspool_instrumented(text, pattern)
        _, ns = search_naive_instrumented(text, pattern)
        assert hs.alignments <= ns.alignments
        assert hs.alignments <= n - m + 1
        assert hs.matches_found <= hs.alignments
        if hs.alignments:
            assert hs.symbol_reads >= hs.alignments


def test_trace_strictly_increasing_within_bounds():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 100)
        m = rng.randint(1, 12)
        text, pattern, _ = random_instance(rng, rng.randint(1, 3), n, rng.randint(1, 5), m)
        trace = search_horspool_instrumented(text, pattern)[1].trace
        if m > n:
            assert trace == []
            continue
        assert trace[0] == 0
        assert all(b > a for a, b in zip(trace, trace[1:]))
        assert all(0 <= j <= n - m for j in trace)


def test_single_view_degeneracy_trace():
    rng = random.Random(404)
    alphabet = "abcd"
    reg = build_registry(["w"], [list(alphabet)])
    for _ in range(400):
        n = rng.randint(1, 120)
        m = rng.randint(1, min(8, max(1, n)))
        s = "".join(rng.choice(alphabet) for _ in range(n))
        pat = "".join(rng.choice(alphabet) for _ in range(m))
        text = make_text([[reg.symbol_of(c) for c in s]], reg)
        pattern = resolve_pattern(list(pat), reg)
        assert search_horspool_instrumented(text, pattern)[1].trace == classic_horspool_trace(s, pat)
        assert search_horspool(text, pattern) == classic_horspool(s, pat)


def test_classic_horspool_textbook_example():
    assert classic_horspool("abdabc", "abc") == [3]
    assert classic_horspool("aaa", "a") == [0, 1, 2]
