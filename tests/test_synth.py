import sys

import pytest

from mvmatch import (
    GenConfig,
    InvalidConfig,
    RegistryMismatch,
    generate_instance,
    generate_instance_with_start,
    occurs_at,
    search_horspool,
    search_naive,
)

from helpers import check_symbol_typing, oracle_scan


def test_invalid_configs():
    for bad in (
        dict(k=0, n=5, sigma=2, m=1, seed=0),
        dict(k=1, n=0, sigma=2, m=1, seed=0),
        dict(k=1, n=5, sigma=0, m=1, seed=0),
        dict(k=1, n=5, sigma=2, m=0, seed=0),
        dict(k=1, n=5, sigma=2, m=6, seed=0, pattern_mode="planted"),
        dict(k=1, n=5, sigma=2, m=1, seed=0, pattern_mode="zipf"),
        dict(k=1, n=5, sigma=2, m=1, seed=-1),
        dict(k=2, n=sys.maxsize // 8, sigma=2, m=1, seed=0),
    ):
        with pytest.raises(InvalidConfig):
            GenConfig(**bad)


def test_largest_text_passes_validation():
    # construct only: generating it would allocate sys.maxsize bytes
    GenConfig(k=1, n=sys.maxsize // 8, sigma=2, m=1, seed=0)


def test_one_symbol_alphabet_forces_everything():
    text, pattern = generate_instance(GenConfig(k=1, n=5, sigma=1, m=2, seed=123))
    assert text.n == 5
    assert len(set(text.views[0])) == 1
    assert search_naive(text, pattern) == [0, 1, 2, 3]


def test_determinism():
    cfg = GenConfig(k=3, n=500, sigma=10, m=7, seed=42, pattern_mode="planted")
    a_text, a_pat = generate_instance(cfg)
    b_text, b_pat = generate_instance(cfg)
    assert a_text.views == b_text.views
    assert a_pat.symbols == b_pat.symbols


def test_each_instance_owns_its_registry():
    cfg = GenConfig(k=2, n=50, sigma=4, m=3, seed=5)
    a_text, _ = generate_instance(cfg)
    b_text, b_pat = generate_instance(cfg)
    assert a_text.registry is not b_text.registry
    for search in (search_horspool, search_naive):
        with pytest.raises(RegistryMismatch):
            search(a_text, b_pat)


def test_different_seeds_differ():
    a, _ = generate_instance(GenConfig(k=2, n=200, sigma=5, m=3, seed=1))
    b, _ = generate_instance(GenConfig(k=2, n=200, sigma=5, m=3, seed=2))
    assert a.views != b.views


def test_planted_guarantee():
    for seed in range(50):
        cfg = GenConfig(k=2, n=100, sigma=4, m=5, seed=seed, pattern_mode="planted")
        text, pattern, start = generate_instance_with_start(cfg)
        assert start is not None
        assert occurs_at(text, pattern, start)
        matches = search_naive(text, pattern)
        assert start in matches and len(matches) >= 1


def test_uniform_mode_has_no_planted_start():
    _, _, start = generate_instance_with_start(GenConfig(k=1, n=10, sigma=2, m=2, seed=9))
    assert start is None


def test_instances_satisfy_text_invariants():
    for seed in range(10):
        text, pattern = generate_instance(
            GenConfig(k=3, n=50, sigma=4, m=6, seed=seed)
        )
        assert len({len(v) for v in text.views}) == 1
        check_symbol_typing(text)
        views = [text.registry.symbol_to_view[s] for s in pattern.symbols]
        assert all(0 <= v < 3 for v in views)


def test_token_naming_round_trips_views():
    text, _ = generate_instance(GenConfig(k=2, n=20, sigma=3, m=2, seed=0))
    reg = text.registry
    for sym in range(reg.num_symbols):
        token = reg.symbol_to_token[sym]
        assert token.startswith(f"v{reg.symbol_to_view[sym]}_")


def test_symbol_frequencies_uniform():
    sigma = 10
    text, _ = generate_instance(GenConfig(k=2, n=50000, sigma=sigma, m=2, seed=7))
    for v, seq in enumerate(text.views):
        counts = [0] * sigma
        for sym in seq:
            counts[sym - v * sigma] += 1
        expected = len(seq) / sigma
        statistic = sum((c - expected) ** 2 / expected for c in counts)
        # chi-square with sigma - 1 = 9 degrees of freedom: isf(1e-4, 9) = 33.71995,
        # rounded down, so this is no looser than p > 1e-4
        assert statistic < 33.7199


def test_generated_instance_matches_oracle():
    cfg = GenConfig(k=3, n=200, sigma=4, m=3, seed=20260826)
    text, pattern = generate_instance(cfg)
    assert search_naive(text, pattern) == oracle_scan(text, pattern)
