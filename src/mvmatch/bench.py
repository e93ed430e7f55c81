"""Benchmark harness comparing the naive and multi-view Horspool searches.

For each pattern length m, both algorithms run on the same generated
instances, each a uniform text and a uniform pattern; instance seeds derive
deterministically from (seed, m, index).
Every run counts: symbol-read, alignment and match counts come from the
instrumented kernels and are the hardware-independent measure, reproducible
across runs.  A timed run also measures the fast kernel's wall time per
(m, algorithm) batch, including the pattern pre-processing, so the
comparison is end to end; wall time naturally does not reproduce.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from typing import IO, Iterable

from .matchers import KERNELS
from .synth import GenConfig, InvalidConfig, _generate, _registry


@dataclass(frozen=True)
class BenchConfig:
    k: int
    n: int
    sigma: int
    m_values: tuple[int, ...]
    instances_per_m: int
    seed: int
    timed: bool = True

    def __post_init__(self) -> None:
        if not self.m_values:
            raise InvalidConfig("m_values must be non-empty")
        if self.instances_per_m < 1:
            raise InvalidConfig(
                f"instances_per_m must be >= 1, got {self.instances_per_m}"
            )
        # Uniform patterns bound m only below, so one GenConfig at the
        # smallest m checks every instance before any is generated.
        GenConfig(k=self.k, n=self.n, sigma=self.sigma, m=min(self.m_values),
                  seed=self.seed)


def instance_seed(base_seed: int, m: int, index: int) -> int:
    """Deterministic per-instance seed; stable across runs and platforms."""
    import numpy as np  # here, not at module top: `mvmatch search` never needs it

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


def run_benchmark(config: BenchConfig) -> list[BenchRow]:
    """One row per (m, algorithm), m ascending then algorithm name; each
    distinct m runs once."""
    rows: list[BenchRow] = []
    # One registry for the run: at large sigma building the k*sigma tokens
    # costs as much as drawing an instance.  Each text meets only its own
    # pattern, so sharing changes no count.
    registry = _registry(config.k, config.sigma)
    for m in sorted(set(config.m_values)):
        per_alg = [BenchRow(m=m, algorithm=a) for a in sorted(KERNELS)]
        for index in range(config.instances_per_m):
            text, pattern, _ = _generate(GenConfig(
                k=config.k, n=config.n, sigma=config.sigma, m=m,
                seed=instance_seed(config.seed, m, index)), registry)
            for row in per_alg:
                fast, instrumented = KERNELS[row.algorithm]
                row.instances += 1
                if config.timed:
                    t0 = time.perf_counter()
                    fast(text, pattern)
                    row.total_time += time.perf_counter() - t0
                _, stats = instrumented(text, pattern)
                row.total_symbol_reads += stats.symbol_reads
                row.total_alignments += stats.alignments
                row.total_matches += stats.matches_found
        rows.extend(per_alg)
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


def write_csv(rows: Iterable[BenchRow], fh: IO[str]) -> None:
    """Write a header and one data row per BenchRow, m ascending then
    algorithm name, to an open text stream (open files with newline="")."""
    rows = sorted(rows, key=lambda r: (r.m, r.algorithm))
    if not rows:
        raise ValueError("refusing to write an empty benchmark CSV")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(
        [r.m, r.algorithm, r.instances, repr(r.total_time), r.total_symbol_reads,
         r.total_alignments, r.total_matches]
        for r in rows
    )
