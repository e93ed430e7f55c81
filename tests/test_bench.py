import io

import pytest

from mvmatch import InvalidConfig, bench
from mvmatch.bench import BenchConfig, BenchRow, instance_seed, run_benchmark, write_csv


def small_config(**overrides):
    base = dict(
        k=2,
        n=300,
        sigma=4,
        m_values=(2, 4, 6),
        instances_per_m=5,
        seed=11,
        timed=False,
    )
    base.update(overrides)
    return BenchConfig(**base)


def test_invalid_configs():
    for bad in (
        small_config(m_values=()),
        small_config(m_values=(0, 2)),
        small_config(instances_per_m=0),
        small_config(sigma=0),
        small_config(seed=-1),
    ):
        with pytest.raises(InvalidConfig):
            run_benchmark(bad)


def test_every_m_validated_before_any_instance(monkeypatch):
    def generate(config):
        raise AssertionError(f"generated an instance for m={config.m}")

    monkeypatch.setattr(bench, "generate_instance", generate)
    config = BenchConfig(k=2, n=50, sigma=3, m_values=(2, 0), instances_per_m=1, seed=0)
    with pytest.raises(InvalidConfig, match="m must be >= 1, got 0"):
        run_benchmark(config)


def test_repeated_m_runs_once():
    rows = run_benchmark(small_config(m_values=(4, 2, 4)))
    assert [(r.m, r.algorithm) for r in rows] == [
        (2, "horspool"), (2, "naive"), (4, "horspool"), (4, "naive"),
    ]
    assert all(r.instances == 5 for r in rows)


def test_row_shape_and_order():
    rows = run_benchmark(small_config())
    assert [(r.m, r.algorithm) for r in rows] == [
        (2, "horspool"),
        (2, "naive"),
        (4, "horspool"),
        (4, "naive"),
        (6, "horspool"),
        (6, "naive"),
    ]
    for r in rows:
        assert r.instances == 5
        assert r.total_alignments > 0


def test_match_counts_agree_across_algorithms():
    rows = run_benchmark(small_config(sigma=2))
    by_m = {}
    for r in rows:
        by_m.setdefault(r.m, []).append(r.total_matches)
    for m, counts in by_m.items():
        assert counts[0] == counts[1]
        assert counts[0] > 0  # sigma=2: short uniform patterns do occur


def test_counts_reproducible():
    a = run_benchmark(small_config())
    b = run_benchmark(small_config())
    assert [
        (r.m, r.algorithm, r.total_symbol_reads, r.total_alignments, r.total_matches)
        for r in a
    ] == [
        (r.m, r.algorithm, r.total_symbol_reads, r.total_alignments, r.total_matches)
        for r in b
    ]


def test_instance_seed_deterministic_and_distinct():
    assert instance_seed(1, 2, 3) == instance_seed(1, 2, 3)
    seeds = {instance_seed(0, m, i) for m in range(1, 10) for i in range(20)}
    assert len(seeds) == 9 * 20


def test_wall_time_populated_when_measured():
    rows = run_benchmark(small_config(timed=True))
    assert all(r.total_time > 0 for r in rows)
    counts_only = run_benchmark(small_config())
    assert all(r.total_time == 0.0 for r in counts_only)
    # timing never changes the counts
    assert [(r.total_symbol_reads, r.total_alignments, r.total_matches) for r in rows] == \
        [(r.total_symbol_reads, r.total_alignments, r.total_matches) for r in counts_only]


def test_write_csv():
    rows = [
        BenchRow(m=4, algorithm="naive", total_time=0.5, total_symbol_reads=10,
                 total_alignments=8, total_matches=1, instances=2),
        BenchRow(m=2, algorithm="horspool", total_time=0.25, total_symbol_reads=6,
                 total_alignments=3, total_matches=1, instances=2),
    ]
    buf = io.StringIO()
    write_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "m,algorithm,instances,total_time_s,total_symbol_reads,total_alignments,total_matches"
    assert len(lines) == 3
    assert lines[1].startswith("2,horspool,2,")
    assert lines[2].startswith("4,naive,2,")


def test_write_csv_rejects_empty():
    with pytest.raises(ValueError):
        write_csv([], io.StringIO())


def test_write_csv_to_path(tmp_path):
    dest = tmp_path / "bench.csv"
    with open(dest, "w", newline="") as fh:
        write_csv([BenchRow(m=1, algorithm="naive", instances=1)], fh)
    assert dest.read_text().count("\n") == 2


def test_alignments_per_instance_trend():
    # averaged horspool alignments should trend down as m grows
    rows = run_benchmark(
        BenchConfig(k=2, n=2000, sigma=6, m_values=(2, 8, 16), instances_per_m=10,
                    seed=3, timed=False)
    )
    means = [r.total_alignments / r.instances for r in rows if r.algorithm == "horspool"]
    assert means[0] > means[-1]
