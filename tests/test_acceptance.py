"""Acceptance suite: one test per release criterion.

Each test prints a pass line on success (visible with `pytest -s`, and each
test's outcome shows under `pytest -v`).  Run with:

    pytest tests/test_acceptance.py -v -s
"""

import random
import time

from mvmatch import (
    GenConfig,
    BenchConfig,
    build_shift_table,
    generate_instance,
    generate_instance_with_start,
    run_benchmark,
    search_horspool,
    search_horspool_instrumented,
    search_naive,
)
from mvmatch.cli import main

from helpers import (
    char_pattern,
    char_registry,
    char_text,
    classic_horspool_trace,
    oracle_scan,
    random_instance,
    shift_oracle,
)


def _passed(label: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\n[PASS] {label}{suffix}")


def test_criterion_1_golden_traces():
    reg = char_registry()
    text = char_text(reg, "cabbaabc", "BABABACB")
    p = char_pattern(reg, "BAbB")

    table = build_shift_table(p)
    expected = {reg.symbol_of("B"): 3, reg.symbol_of("A"): 2, reg.symbol_of("b"): 1}
    assert table.shifts == expected
    assert table.default_shift == 4
    assert search_horspool_instrumented(text, p)[1].trace == [0, 1, 4]
    assert search_horspool(text, p) == [4]

    text2 = char_text(reg, "baaaab", "AAAABB")
    p2 = char_pattern(reg, "AaAab")
    assert search_horspool(text2, p2) == [1]

    # runtime check: best of 5 timed repetitions of the full golden workload
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        build_shift_table(p)
        search_horspool_instrumented(text, p)
        search_horspool(text, p)
        search_horspool(text2, p2)
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3
    _passed("criterion 1: golden traces", f"{best * 1e6:.0f} us")


def test_criterion_2_oracle_equivalence():
    rng = random.Random(0xACCE97)
    t0 = time.perf_counter()
    total = 0
    for trial in range(10000):
        k = rng.randint(1, 4)
        # every 5th instance exercises the large-n end of the range
        n = rng.randint(1, 1000) if trial % 5 == 0 else rng.randint(1, 50)
        sigma = rng.randint(1, 10)
        m = rng.randint(1, 12)
        mode = "planted" if (trial % 2 == 1 and m <= n) else "uniform"
        text, pattern, _ = random_instance(rng, k, n, sigma, m, mode)
        expected = oracle_scan(text, pattern)
        assert search_naive(text, pattern) == expected, (k, n, sigma, m, mode, trial)
        assert search_horspool(text, pattern) == expected, (k, n, sigma, m, mode, trial)
        total += 1
    elapsed = time.perf_counter() - t0
    assert total >= 10000
    assert elapsed < 60
    _passed("criterion 2: oracle equivalence", f"{total} instances in {elapsed:.1f}s")


def test_criterion_3_single_view_degeneracy():
    from mvmatch import build_registry, make_text, resolve_pattern

    rng = random.Random(3)
    alphabet = [chr(ord("a") + i) for i in range(6)]
    reg = build_registry(["w"], [alphabet])
    checked = 0
    for _ in range(1000):
        n = rng.randint(1, 200)
        m = rng.randint(1, 12)
        s = "".join(rng.choice(alphabet) for _ in range(n))
        pat = "".join(rng.choice(alphabet) for _ in range(m))
        text = make_text([[reg.symbol_of(c) for c in s]], reg)
        pattern = resolve_pattern(list(pat), reg)
        assert search_horspool_instrumented(text, pattern)[1].trace == classic_horspool_trace(s, pat)
        checked += 1
    _passed("criterion 3: single-view degeneracy", f"{checked} instances")


def test_criterion_4_shift_table_oracle():
    rng = random.Random(4)
    checked = 0
    for _ in range(1000):
        k = rng.randint(1, 4)
        sigma = rng.randint(1, 8)
        m = rng.randint(1, 12)
        _, pattern, _ = random_instance(rng, k, 1, sigma, m)
        table = build_shift_table(pattern)
        for sym in range(pattern.registry.num_symbols):
            assert table.lookup(sym) == shift_oracle(pattern, sym)
        checked += 1
    _passed("criterion 4: shift-table oracle", f"{checked} patterns")


def test_criterion_5_desk_scale_speedup():
    t0 = time.perf_counter()
    m_grid = (2, 4, 8, 16, 24, 30)
    config = BenchConfig(
        k=3,
        n=100000,
        sigma=10,
        m_values=m_grid,
        instances_per_m=100,
        seed=20260826,
        measure=("wall_time", "counts"),
    )
    rows = run_benchmark(config)
    by = {(r.m, r.algorithm): r for r in rows}

    ratios = []
    for m in m_grid:
        naive, horspool = by[(m, "naive")], by[(m, "horspool")]
        assert naive.total_matches == horspool.total_matches
        ratios.append(naive.total_symbol_reads / horspool.total_symbol_reads)

    # (a) machine-independent: horspool reads fewer symbols at m=30 and the
    # advantage grows monotonically across the grid
    assert by[(30, "horspool")].total_symbol_reads <= by[(30, "naive")].total_symbol_reads
    assert all(b > a for a, b in zip(ratios, ratios[1:])), ratios

    # (b) wall time: at least the conservative 1.5x floor at m=30
    naive_t = by[(30, "naive")].total_time
    horspool_t = by[(30, "horspool")].total_time
    assert horspool_t <= 0.67 * naive_t, (horspool_t, naive_t)

    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    _passed(
        "criterion 5: desk-scale speedup",
        f"read ratios {['%.2f' % r for r in ratios]}, "
        f"time ratio at m=30 = {naive_t / horspool_t:.2f}, {elapsed:.0f}s",
    )


def test_criterion_6_progress_and_bounds():
    rng = random.Random(6)
    cases = []
    # targeted edges: one-symbol alphabets, m = n, m > n, unit patterns
    for k in (1, 2, 3):
        cases.append((k, 8, 1, 8, "uniform"))
        cases.append((k, 5, 1, 9, "uniform"))
        cases.append((k, 7, 3, 7, "planted"))
        cases.append((k, 9, 2, 1, "uniform"))
    for _ in range(500):
        k = rng.randint(1, 4)
        n = rng.randint(1, 60)
        m = rng.randint(1, 15)
        mode = "planted" if (m <= n and rng.random() < 0.4) else "uniform"
        cases.append((k, n, rng.randint(1, 6), m, mode))

    for k, n, sigma, m, mode in cases:
        text, pattern, _ = random_instance(rng, k, n, sigma, m, mode)
        trace = search_horspool_instrumented(text, pattern)[1].trace
        if m > n:
            assert trace == []
            continue
        assert trace[0] == 0
        # strictly increasing trace positions <=> every shift >= 1
        assert all(b - a >= 1 for a, b in zip(trace, trace[1:]))
        # every read in the loop stays inside [0, n): window last position
        # j + m - 1 and verification offsets are all <= n - 1
        assert all(0 <= j and j + m - 1 < n for j in trace)
        assert search_horspool(text, pattern) == oracle_scan(text, pattern)
    _passed("criterion 6: progress and bounds", f"{len(cases)} fuzz cases")


def test_criterion_7_cli_round_trip(tmp_path, capsys):
    rng = random.Random(7)
    checked = 0
    for trial in range(100):
        k = rng.randint(1, 3)
        n = rng.randint(20, 300)
        sigma = rng.randint(1, 6)
        m = rng.randint(1, min(10, n))
        seed = rng.randrange(2**32)

        text_path = str(tmp_path / f"t{trial}.tsv")
        pat_path = str(tmp_path / f"p{trial}.txt")
        code = main([
            "gen", "--k", str(k), "--n", str(n), "--sigma", str(sigma),
            "--m", str(m), "--seed", str(seed), "--mode", "planted",
            "--out-text", text_path, "--out-pattern", pat_path,
        ])
        assert code == 0

        config = GenConfig(k=k, n=n, sigma=sigma, m=m, seed=seed,
                           pattern_mode="planted")
        _, _, planted = generate_instance_with_start(config)
        assert planted is not None

        with open(pat_path) as fh:
            pattern_str = fh.read().strip()
        code = main(["search", "--text", text_path, "--pattern", pattern_str])
        out = capsys.readouterr().out
        assert code == 0
        positions = [int(line) for line in out.split()]
        assert planted in positions, (trial, planted, positions)
        checked += 1
    _passed("criterion 7: CLI round trip", f"{checked} seeded configs")


CRITERION_8_FLAGS = [
    "bench", "--k", "2", "--n", "2000", "--sigma", "5",
    "--m-list", "2", "6", "12", "--instances", "5", "--seed", "99",
    "--counts-only",
]


def test_criterion_8_bench_determinism(tmp_path, capsys):
    blobs = []
    for i in range(2):
        path = str(tmp_path / f"run{i}.csv")
        assert main(CRITERION_8_FLAGS + ["--csv", path]) == 0
        capsys.readouterr()
        with open(path, "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]
    _passed("criterion 8: bench determinism", f"{len(blobs[0])} byte CSV")


def test_criterion_8_pinned_counts(tmp_path, capsys):
    # Exact counts are the hardware-independent truth: a change to a kernel
    # that is not meant to change the algorithm must leave them byte-identical.
    path = tmp_path / "run.csv"
    assert main(CRITERION_8_FLAGS + ["--csv", str(path)]) == 0
    capsys.readouterr()
    assert path.read_text() == (
        "m,algorithm,instances,total_time_s,total_symbol_reads,total_alignments,total_matches\n"
        "2,horspool,5,0.0,12094,5532,373\n"
        "2,naive,5,0.0,11957,9995,373\n"
        "6,horspool,5,0.0,6246,2727,0\n"
        "6,naive,5,0.0,12365,9975,0\n"
        "12,horspool,5,0.0,4881,2155,0\n"
        "12,naive,5,0.0,12434,9945,0\n"
    )
    _passed("criterion 8: pinned counts", "6 rows")
