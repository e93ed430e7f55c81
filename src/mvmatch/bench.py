"""Benchmark harness comparing the naive and multi-view Horspool searches.

For each pattern length m, both algorithms run on the same generated
instances; instance seeds derive deterministically from (seed, m, index).
Wall time is measured per (m, algorithm) batch and includes the pattern
pre-processing, so the comparison is end to end.  Symbol-read and
alignment counts come from the instrumented kernels and are the
hardware-independent measure; they are reproducible across runs, wall time
naturally is not.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from typing import IO, Iterable, Union

import numpy as np

from .matchers import (
    search_horspool,
    search_horspool_instrumented,
    search_naive,
    search_naive_instrumented,
)
from .synth import GenConfig, InvalidConfig, generate_instance

ALGORITHMS = ("horspool", "naive")
MEASURES = ("wall_time", "counts")


@dataclass(frozen=True)
class BenchConfig:
    k: int
    n: int
    sigma: int
    m_values: tuple[int, ...]
    instances_per_m: int
    seed: int
    algorithms: tuple[str, ...] = ALGORITHMS
    measure: tuple[str, ...] = MEASURES
    pattern_mode: str = "uniform"

    def validate(self) -> None:
        if not self.m_values:
            raise InvalidConfig("m_values must be non-empty")
        if any(m < 1 for m in self.m_values):
            raise InvalidConfig(f"every m must be >= 1, got {self.m_values}")
        if self.instances_per_m < 1:
            raise InvalidConfig(
                f"instances_per_m must be >= 1, got {self.instances_per_m}"
            )
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown or not self.algorithms:
            raise InvalidConfig(f"algorithms must be a non-empty subset of {ALGORITHMS}")
        unknown = set(self.measure) - set(MEASURES)
        if unknown or not self.measure:
            raise InvalidConfig(f"measure must be a non-empty subset of {MEASURES}")
        # Delegate the per-instance bounds to GenConfig.
        self._gen_config(self.m_values[0], 0).validate()

    def _gen_config(self, m: int, index: int) -> GenConfig:
        return GenConfig(
            k=self.k,
            n=self.n,
            sigma=self.sigma,
            m=m,
            seed=instance_seed(self.seed, m, index),
            pattern_mode=self.pattern_mode,
        )


def instance_seed(base_seed: int, m: int, index: int) -> int:
    """Deterministic per-instance seed; stable across runs and platforms."""
    ss = np.random.SeedSequence(entropy=(base_seed, m, index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass
class BenchRow:
    m: int
    algorithm: str
    total_time: float = 0.0
    total_symbol_reads: int = 0
    total_alignments: int = 0
    total_matches: int = 0
    instances: int = 0


_FAST = {"horspool": search_horspool, "naive": search_naive}
_INSTRUMENTED = {
    "naive": search_naive_instrumented,
    "horspool": search_horspool_instrumented,
}


def run_benchmark(config: BenchConfig) -> list[BenchRow]:
    config.validate()
    time_it = "wall_time" in config.measure
    count_it = "counts" in config.measure
    algorithms = sorted(set(config.algorithms))

    rows: list[BenchRow] = []
    for m in sorted(config.m_values):
        per_alg = {a: BenchRow(m=m, algorithm=a) for a in algorithms}
        for index in range(config.instances_per_m):
            text, pattern = generate_instance(config._gen_config(m, index))
            for alg in algorithms:
                row = per_alg[alg]
                row.instances += 1
                if time_it:
                    search = _FAST[alg]
                    t0 = time.perf_counter()
                    matches = search(text, pattern)
                    row.total_time += time.perf_counter() - t0
                    row.total_matches += len(matches)
                if count_it:
                    matches, stats = _INSTRUMENTED[alg](text, pattern)
                    row.total_symbol_reads += stats.symbol_reads
                    row.total_alignments += stats.alignments
                    if not time_it:
                        row.total_matches += len(matches)
        rows.extend(per_alg[a] for a in algorithms)
    return rows


CSV_COLUMNS = (
    "m",
    "algorithm",
    "instances",
    "total_time_s",
    "total_symbol_reads",
    "total_alignments",
    "total_matches",
)


def write_csv(rows: Iterable[BenchRow], destination: Union[str, IO[str]]) -> None:
    """Emit one data row per BenchRow, m ascending then algorithm name."""
    rows = list(rows)
    if not rows:
        raise ValueError("refusing to write an empty benchmark CSV")
    rows.sort(key=lambda r: (r.m, r.algorithm))
    if isinstance(destination, str):
        with open(destination, "w", newline="") as fh:
            _write_csv(rows, fh)
    else:
        _write_csv(rows, destination)


def _write_csv(rows: list[BenchRow], fh: IO[str]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow(
            [
                r.m,
                r.algorithm,
                r.instances,
                repr(r.total_time),
                r.total_symbol_reads,
                r.total_alignments,
                r.total_matches,
            ]
        )
