import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvmatch import (
    AlphabetRegistry,
    MatchingError,
    Pattern,
    RegistryMismatch,
    build_shift_table,
    occurs_at,
    resolve_pattern,
    search_horspool,
    search_horspool_instrumented,
    search_naive,
    search_naive_instrumented,
)

from mvmatch.matchers import KERNELS, _horspool_windows

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
    pattern_view_count,
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
    reg = AlphabetRegistry(["w"], [["a"]])
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
    reg = AlphabetRegistry(["w"], [["a"]])
    text = make_text([[0, 0, 0]], reg)
    p = resolve_pattern(["a"], reg)
    matches, stats = search_naive_instrumented(text, p)
    assert matches == [0, 1, 2] and list(stats.trace) == [0, 1, 2]
    assert stats.alignments == 3 and stats.symbol_reads == 3


def test_naive_first_read_kills_every_window():
    reg = AlphabetRegistry(["w"], [["a", "z"]])
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
    assert stats.symbol_reads == pattern_view_count(text, pattern) * len(trace) + verify_reads


@st.composite
def view_subset_instances(draw):
    """Instances whose pattern is drawn from a random nonempty subset of the
    k in [1, 5] views, uniform over its symbols or planted from a window of
    those views; sigma in [1, 4], n in [1, 40], m in [1, n + 2]."""
    k = draw(st.integers(1, 5))
    sigma = draw(st.integers(1, 4))
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, n + 2))
    chosen = draw(st.lists(st.integers(0, k - 1), min_size=1, unique=True))
    planted = m <= n and draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    text, _, _ = random_instance(rng, k, n, sigma, 1)
    if planted:
        start = rng.randrange(n - m + 1)
        symbols = [text.views[rng.choice(chosen)][start + q] for q in range(m)]
    else:
        view_of = text.registry.symbol_to_view
        pool = [s for s in range(text.registry.num_symbols) if view_of[s] in chosen]
        symbols = [rng.choice(pool) for _ in range(m)]
    return text, Pattern(tuple(symbols), text.registry)


@settings(max_examples=400, deadline=None)
@given(view_subset_instances())
def test_horspool_reads_only_the_pattern_views(instance):
    text, pattern = instance
    expected = [i for i in range(text.n - pattern.m + 1) if occurs_at(text, pattern, i)]
    assert search_horspool(text, pattern) == expected
    matches, stats = search_horspool_instrumented(text, pattern)
    trace, verify_reads = multiview_horspool_trace(text, pattern)
    assert matches == expected and stats.trace == trace
    assert stats.symbol_reads == pattern_view_count(text, pattern) * len(trace) + verify_reads


def _edge_instance(n, m, seed):
    """A k=3, sigma=2 instance from the independent generator, planted when
    m <= n."""
    mode = "planted" if m <= n else "uniform"
    text, pattern, _ = random_instance(random.Random(seed), 3, n, 2, m, mode)
    return text, pattern


def _shift_rows_instance(r, seed):
    """A k=5, sigma=2 instance whose p[0..m-2] is copied from a window of
    views 0..r-1 in turn and whose p[m-1] is view 4's, so the Horspool
    step runs with exactly r shift rows (r <= 4)."""
    rng = random.Random(seed)
    text, _, _ = random_instance(rng, 5, 30, 2, 1)
    m = 2 * r + 1
    start = rng.randrange(text.n - m + 1)
    symbols = [text.views[q % r][start + q] for q in range(m - 1)]
    symbols.append(text.views[4][start + m - 1])
    return text, Pattern(tuple(symbols), text.registry)


@settings(max_examples=400, deadline=None)
@given(small_instances())
@example(_edge_instance(7, 1, 0))  # m=1: no shift rows, every window tried
@example(_edge_instance(7, 7, 1))  # m=n: one window
@example(_edge_instance(7, 9, 2))  # m>n: none
@example(_shift_rows_instance(1, 3))  # the one-row step
@example(_shift_rows_instance(2, 4))  # the two-row step
@example(_shift_rows_instance(3, 5))  # the three-row step
@example(_shift_rows_instance(4, 6))  # the list step
def test_fast_horspool_loop_yields_the_last_symbol_hits_of_the_trace(instance):
    """Testing p[m-1] inside the alignment loop yields exactly the windows
    of the instrumented trace whose last symbol matches, in order: the
    candidates the fast kernel verifies.  The oracle trace, which shares no
    code with the loop, filtered the same way, agrees."""
    text, pattern = instance
    last = pattern.m - 1
    sym = pattern.symbols[last]
    row = text.views[text.registry.symbol_to_view[sym]]
    trace = search_horspool_instrumented(text, pattern)[1].trace
    hits = [j for j in trace if row[j + last] == sym]
    oracle_hits = [j for j in multiview_horspool_trace(text, pattern)[0] if row[j + last] == sym]
    assert list(_horspool_windows(text, pattern, None, row, sym)) == hits == oracle_hits


def _five_view_registry():
    return AlphabetRegistry([f"v{v}" for v in range(5)],
                            [[f"{v}{c}" for c in "ab"] for v in range(5)])


def test_pattern_over_one_of_five_views_reads_one_view():
    reg = _five_view_registry()
    rows = [[reg.symbol_of(f"{v}{c}") for c in "abaababa"] for v in range(5)]
    text = make_text(rows, reg)
    p = resolve_pattern(["2a", "2a", "2b"], reg)
    matches, stats = search_horspool_instrumented(text, p)
    assert matches == search_horspool(text, p) == [2]
    assert stats.trace == [0, 1, 2, 5]
    # one read per alignment, plus the two verification reads at window 2
    assert stats.symbol_reads == 4 * 1 + 2


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_every_shift_step_over_exactly_r_of_five_views(r):
    """Patterns over exactly r views, so the Horspool step runs with every
    row count from 0 (m=1) to r: one, two and three rows each take their
    own loop, and four or five the list step."""
    rng = random.Random(4000 + r)
    reg = _five_view_registry()
    n = 40
    rows = [[reg.symbol_of(f"{v}{rng.choice('ab')}") for _ in range(n)] for v in range(5)]
    text = make_text(rows, reg)
    chosen = rng.sample(range(5), r)
    view_of = reg.symbol_to_view
    row_counts = set()
    for m in sorted({*range(1, r + 2), r + 3, 12, n, n + 2}):
        views = [chosen[q % r] for q in range(m)]
        for planted in ([False, True] if m <= n else [False]):
            for _ in range(3):
                start = rng.randrange(n - m + 1) if planted else None
                symbols = [rows[v][start + q] if planted else reg.symbol_of(f"{v}{rng.choice('ab')}")
                           for q, v in enumerate(views)]
                p = Pattern(tuple(symbols), reg)
                row_counts.add(len({view_of[s] for s in symbols[:-1]}))
                assert pattern_view_count(text, p) == min(m, r)
                expected = [i for i in range(n - m + 1) if occurs_at(text, p, i)]
                assert search_horspool(text, p) == expected
                assert search_horspool(text, p, build_shift_table(p)) == expected
                assert search_naive(text, p) == expected
                matches, stats = search_horspool_instrumented(text, p)
                trace, verify_reads = multiview_horspool_trace(text, p)
                assert matches == expected and stats.trace == trace
                assert stats.symbol_reads == min(m, r) * len(trace) + verify_reads
    assert row_counts == set(range(r + 1))


@pytest.mark.parametrize("n", [0, 1, 7])
def test_unit_pattern_tries_every_window_and_reads_one_view(n):
    reg = _five_view_registry()
    rows = [[reg.symbol_of(f"{v}{'ab'[i % 2]}") for i in range(n)] for v in range(5)]
    text = make_text(rows, reg)
    p = resolve_pattern(["3a"], reg)
    expected = list(range(0, n, 2))
    assert search_horspool(text, p) == search_horspool(text, p, build_shift_table(p)) == expected
    matches, stats = search_horspool_instrumented(text, p)
    assert matches == expected and stats.trace == list(range(n))
    assert stats.symbol_reads == n
    with pytest.raises(MatchingError, match="built for another pattern"):
        search_horspool(text, p, build_shift_table(resolve_pattern(["3b"], reg)))


# Tokens "<view letter><digit>": with "abc" views, a0, b0 and c0 are
# fillers every pattern below leaves out, so each shifts by m.
_COMPARE_CASES = {
    # One row a with shifts a1 2, a2 1; b1, the last symbol, is not in
    # p[0..m-2], so it shifts by m like every filler.
    "one row": (["a1", "a2", "b1"], [
        (("a1", "b0", "c0"), 2),  # row a, below m
        (("a2", "b0", "c0"), 1),  # row a, below m
        (("a0", "b0", "c0"), 3),  # m
        (("a0", "b1", "c0"), 3),  # m; last symbol matches
    ]),
    # Three rows a, b, c with shifts a1 6, b1 5, c1 4, a2 3, b2 2, c2 1.
    # Distinct views never share a shift below m, so three rows tie only
    # at m, where all three do.
    "three rows": (["a1", "b1", "c1", "a2", "b2", "c2", "a3"], [
        (("a2", "b1", "c1"), 3),  # row a; c below b, so a compare of c with b alone fails
        (("a1", "b2", "c1"), 2),  # row b
        (("a2", "b1", "c2"), 1),  # row c
        (("a0", "b0", "c1"), 4),  # row c, a and b tied at m above it
        (("a3", "b1", "c0"), 5),  # row b, a and c tied at m; last symbol matches
        (("a2", "b0", "c0"), 3),  # row a, b and c tied at m
        (("a0", "b0", "c0"), 7),  # three-way tie at m
    ]),
    # Two rows a and b, one compare, with shifts a1 4, b1 3, a2 2, b2 1.
    # View c is not in the pattern and is never read.
    "two rows": (["a1", "b1", "a2", "b2", "a3"], [
        (("a2", "b1", "c0"), 2),  # row a
        (("a1", "b2", "c0"), 1),  # row b
        (("a3", "b1", "c0"), 3),  # row b; last symbol matches
        (("a0", "b0", "c0"), 5),  # a and b tied at m
    ]),
}


@pytest.mark.parametrize("case", sorted(_COMPARE_CASES))
def test_two_compare_shift_step_takes_each_row_and_tie(case):
    """A hand-built three-view text whose successive alignments take their
    minimum shift from each row of the one-, two- or three-row step in
    turn, and from ties, then end on a planted occurrence."""
    tokens, plan = _COMPARE_CASES[case]
    reg = AlphabetRegistry(["a", "b", "c"], [[f"{v}{d}" for d in range(4)] for v in "abc"])
    p = resolve_pattern(tokens, reg)
    m = p.m
    rows = [[], [], []]
    trace = []
    end = m - 1
    for ends_at, shift in plan:
        for row, token in zip(rows, ends_at):
            row.extend([f"{token[0]}0"] * (end - len(row)) + [token])
        trace.append(end - m + 1)
        end += shift
    start = end - m + 1
    for v, row in zip("abc", rows):
        row.extend([f"{v}0"] * (start + m - len(row)))
    for q, token in enumerate(tokens):
        rows["abc".index(token[0])][start + q] = token
    text = make_text([[reg.symbol_of(t) for t in row] for row in rows], reg)
    trace.append(start)
    expected = [i for i in range(text.n - m + 1) if occurs_at(text, p, i)]
    assert expected[-1] == start
    oracle_trace, verify_reads = multiview_horspool_trace(text, p)
    assert oracle_trace == trace
    assert search_horspool(text, p) == search_horspool(text, p, build_shift_table(p)) == expected
    matches, stats = search_horspool_instrumented(text, p)
    assert matches == expected and stats.trace == trace
    assert stats.symbol_reads == pattern_view_count(text, p) * len(trace) + verify_reads


@pytest.mark.parametrize("sigma", [1, 2])
@pytest.mark.parametrize("n", [0, 1, 7])
def test_offset_major_naive_at_its_edges(n, sigma):
    """The naive keeps a list of surviving windows per offset: at sigma=1
    every window survives every offset; m=n leaves one window and m>n
    none, still a list."""
    reg = AlphabetRegistry(["a", "b", "c"], [[f"{v}{d}" for d in range(sigma)] for v in "abc"])
    rng = random.Random(700 + 10 * n + sigma)
    text = make_text([[reg.symbol_of(f"{v}{rng.randrange(sigma)}") for _ in range(n)]
                      for v in "abc"], reg)
    for m in sorted({1, n, n + 1} - {0}):
        p = resolve_pattern([f"{rng.choice('abc')}{rng.randrange(sigma)}" for _ in range(m)], reg)
        expected = [i for i in range(n - m + 1) if occurs_at(text, p, i)]
        found = search_naive(text, p)
        matches, stats = search_naive_instrumented(text, p)
        assert type(found) is list
        assert found == expected == matches
        assert stats.symbol_reads == naive_symbol_reads(text, p)
        if sigma == 1:
            assert found == list(range(n - m + 1))


# Out-of-range symbol ids, as the matchers module documents them.  The
# five-view registry has ten symbols, ids 0..9; views 0..3 of each text
# below alternate a, b by position, and view 4 is set per test.
_SHIFT_PATHS = [["0a", "4b"], ["0a", "1b", "2a", "3b", "4b"]]  # 1 row; 4 rows, list min


def _alternating_rows(reg, n):
    return [[reg.symbol_of(f"{v}{'ab'[i % 2]}") for i in range(n)] for v in range(5)]


@pytest.mark.parametrize("past", [0, 10**9])
@pytest.mark.parametrize("tokens", _SHIFT_PATHS)
def test_an_id_past_the_registry_in_a_shift_view_raises_index_error(tokens, past):
    """Both Horspool kernels look a shift up by the symbol at the first
    window's end in p[0]'s view, which holds an id >= num_symbols there;
    the naive kernels only compare it."""
    reg = _five_view_registry()
    rows = _alternating_rows(reg, 12)
    rows[0][len(tokens) - 1] = reg.num_symbols + past
    text = make_text(rows, reg)
    p = resolve_pattern(tokens, reg)
    for kernel in (search_horspool, search_horspool_instrumented):
        with pytest.raises(IndexError):
            kernel(text, p)
    expected = oracle_scan(text, p)
    assert search_naive(text, p) == search_naive_instrumented(text, p)[0] == expected


@pytest.mark.parametrize("tokens", [["4b"]] + _SHIFT_PATHS)
def test_an_id_past_the_registry_only_in_the_last_symbols_view_never_matches(tokens):
    """View 4, which holds only p[m-1], has an id >= num_symbols at two of
    every three positions, so at tried window ends too: no kernel indexes
    by it, each only compares it, and it never matches."""
    reg = _five_view_registry()
    n = 16
    rows = _alternating_rows(reg, n)
    rows[4] = [reg.symbol_of("4b") if i % 3 == 0 else reg.num_symbols + i for i in range(n)]
    text = make_text(rows, reg)
    p = resolve_pattern(tokens, reg)
    m = p.m
    expected = oracle_scan(text, p)
    assert expected and all((j + m - 1) % 3 == 0 for j in expected)
    assert search_horspool(text, p) == expected
    matches, stats = search_horspool_instrumented(text, p)
    trace, verify_reads = multiview_horspool_trace(text, p)
    assert matches == expected and stats.trace == trace
    assert stats.symbol_reads == pattern_view_count(text, p) * len(trace) + verify_reads
    assert any(rows[4][j + m - 1] >= reg.num_symbols for j in trace)
    assert search_naive(text, p) == search_naive_instrumented(text, p)[0] == expected


def test_negative_ids_never_change_the_matches():
    """A negative id reads another symbol's shift, never more than m, so no
    occurrence is skipped; every kernel finds exactly the windows a plain
    comparison does."""
    rng = random.Random(4242)
    for _ in range(600):
        n = rng.randint(1, 40)
        m = rng.randint(1, n + 2)
        mode = "planted" if (rng.random() < 0.5 and m <= n) else "uniform"
        k, sigma = rng.randint(1, 5), rng.randint(1, 4)
        clean, pattern, _ = random_instance(rng, k, n, sigma, m, mode)
        num_symbols = clean.registry.num_symbols
        rows = [list(view) for view in clean.views]
        for _ in range(rng.randint(1, n)):
            rows[rng.randrange(k)][rng.randrange(n)] = -rng.randint(1, num_symbols)
        text = make_text(rows, clean.registry)
        expected = oracle_scan(text, pattern)
        for fast, instrumented in KERNELS.values():
            assert fast(text, pattern) == instrumented(text, pattern)[0] == expected


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
    return trace, pattern_view_count(text, pattern) * len(trace) + verify_reads


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
    reg = AlphabetRegistry(["w"], [list(alphabet)])
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
