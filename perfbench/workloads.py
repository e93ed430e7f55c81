"""The three benchmark workloads.

Each workload is a closed loop with one client in one process and no
threads: the next operation starts only after the previous one ended.
Operations run in whole rounds, so every run times the same mix.  With
tracing on, even rounds are traced and odd rounds are not; the difference
between them is the tracing overhead.  Layer probes that only the traced
run needs happen after the loop, outside every timed operation.

Co-tenants on a shared host slow whole stretches of a run, up to twice
over for minutes at a time.  So every timing is stored with the current
time of a reference that does not involve mvmatch and slows down with the
host: a fixed pure-Python loop for the in-process workloads, a Python
process importing numpy and running that loop for `corpus_search`.
run.py scales each timing by it.
"""

from __future__ import annotations

import contextlib
import gc
import inspect
import io
import os
import re
import resource
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import inputs
from spans import NullTracer, Tracer

M_SET = (2, 10, 30)
ALGS = ("horspool", "naive", "horspool_instrumented", "naive_instrumented")
SETUP_SAMPLES = 7  # set-up runs once before the loop, then again spread over it
PROBE_REPEATS = 5
SWEEP_INSTANCES_PER_M = 4
VOCAB_QUERY_M = (3, 4, 5, 6, 7, 8)
VOCAB_QUERIES_PER_M = 8  # one round runs each query once
VOCAB_PROBES_PER_M = 12
CLI_FLAGS = {
    "horspool": [],
    "naive": ["--algorithm", "naive"],
    "horspool_instrumented": ["--stats"],
    "naive_instrumented": ["--algorithm", "naive", "--stats"],
}
CLI_TIMEOUT_S = 60
TAIL_MIN_BEYOND = 10  # latency_tail_ms is a percentile with at least this many samples beyond it
NULL = NullTracer()


def _scan(row):
    hits = []
    for i in range(len(row) - 1):
        if row[i] == 7 and row[i + 1] == 8:
            hits.append(i)
    return hits


_REF_ROW = tuple(range(100)) * 500
# The reference process: interpreter start, numpy import, then the scan,
# much as `mvmatch search` starts, imports and parses.
_REF_PROCESS = ("import numpy\n" + inspect.getsource(_scan)
                + "row = tuple(range(100)) * 500\nfor _ in range(20):\n    _scan(row)\n")


def reference_seconds() -> float:
    """Best of three passes of a fixed pure-Python scan, much like a
    kernel's inner loop."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        _scan(_REF_ROW)
        best = min(best, perf_counter() - start)
    return best


class Reference:
    """When and how a run times its reference, and the time on a quiet host
    that run.py scales to (measured on a 2-vCPU Intel Xeon VM)."""

    def __init__(self, measure, nominal_s: float, interval_s: float, window: int):
        self.measure = measure
        self.nominal_s = nominal_s
        self.interval_s = interval_s
        self.window = window  # the median of the last `window` measurements is current


IN_PROCESS_REFERENCE = Reference(reference_seconds, nominal_s=0.00125, interval_s=0.25, window=1)


class Run:
    """Everything one workload run collects.

    `ops` and `calls` hold (seconds, reference seconds) pairs per distinct
    operation and per (algorithm, m, input), apart for traced and untraced
    rounds; `setup` holds such pairs too.
    """

    def __init__(self, trace: bool):
        self.tracer = Tracer() if trace else None
        self.ops: dict[bool, dict[object, list[tuple[float, float]]]] = {
            False: defaultdict(list), True: defaultdict(list)}
        self.calls: dict[bool, dict[tuple, list[tuple[float, float]]]] = {
            False: defaultdict(list), True: defaultdict(list)}
        self.n = 0
        self.setup: list[tuple[float, float]] = []
        self.use_reference(IN_PROCESS_REFERENCE)
        self.counted: dict[tuple[str, int, str], tuple[int, int, int, int]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.layer: dict[str, float] = {}
        self.notes: dict[str, str] = {}
        self.absent: dict[str, str] = {}  # metric name prefix -> why this workload never calls it
        self.config: dict[str, object] = {}
        self.observed: dict[str, object] = {}
        self.peak_rss_mb = 0.0
        self.tail_cap = 90
        self.recording = True

    def tracer_for(self, traced: bool):
        return self.tracer if traced else NULL

    def use_reference(self, reference: Reference) -> None:
        self.reference = reference
        self.refs: list[float] = []
        self.calibrate(force=True)

    def calibrate(self, force: bool = False) -> None:
        """Time the reference again if the last time is getting old."""
        if force or perf_counter() - self.ref_at >= self.reference.interval_s:
            self.refs.append(self.reference.measure())
            self.ref = median(self.refs[-self.reference.window:])
            self.ref_at = perf_counter()

    def time_op(self, traced: bool, key: object, seconds: float) -> None:
        if self.recording:
            self.ops[traced][key].append((seconds, self.ref))

    def time_call(self, traced: bool, alg: str, m: int, source: str, seconds: float) -> None:
        if self.recording:
            self.calls[traced][(alg, m, source)].append((seconds, self.ref))

    def time_setup(self, setup_fn):
        """Run and time one set-up; returns what it prepared."""
        self.calibrate()
        start = perf_counter()
        prepared = setup_fn()
        self.setup.append((perf_counter() - start, self.ref))
        return prepared

    def attempt(self, label: str, operation) -> None:
        """Run one operation; it fails if it raises or reports a problem."""
        self.calibrate()
        self.attempted += 1
        try:
            problems = operation()
        except Exception as exc:  # a failed operation must not stop the loop
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{label}: {problems[0]}")

    def count(self, source: str, m: int, alg: str, alignments: int, reads: int,
              matches: int) -> list[str]:
        """Record the exact counts of one input; they must not change."""
        key = (source, m, alg.removesuffix("_instrumented"))
        counts = (alignments, reads, matches, max(self.n - m + 1, 0))
        if self.counted.setdefault(key, counts) != counts:
            return [f"counts of {key} changed from {self.counted[key]} to {counts}"]
        return []

    def digest(self) -> dict[str, list[int]]:
        """Exact counts summed per (algorithm, m) over the distinct inputs:
        alignments, symbol reads, matches and windows."""
        totals: dict[str, list[int]] = {}
        for (_, m, alg), counts in self.counted.items():
            row = totals.setdefault(f"{alg}/m{m}", [0, 0, 0, 0])
            for i, value in enumerate(counts):
                row[i] += value
        return dict(sorted(totals.items()))


def closed_loop(run: Run, seconds: float, round_fn, setup_fn, warmup: bool = True) -> int:
    """Run whole rounds until `seconds` have passed; two at least when
    tracing, and untraced ones until the tail percentile has its samples.

    A warm-up round, checked but not timed, fills the caches first.  The
    set-up is timed again between rounds, spread over the run, so that its
    median does not hang on one moment of the host's load.
    """
    minimum = 2 if run.tracer else 1
    samples = 0 if run.tracer else TAIL_MIN_BEYOND * 100 // (100 - run.tail_cap)
    rounds = 0
    gc.collect()
    gc.disable()
    try:
        if warmup:
            run.recording = False
            round_fn(0, False)
            run.recording = True
            gc.collect()
        start = perf_counter()
        interval = seconds / SETUP_SAMPLES
        while (rounds < minimum or perf_counter() - start < seconds
               or sum(map(len, run.ops[False].values())) < samples):
            round_fn(rounds, run.tracer is not None and rounds % 2 == 0)
            rounds += 1
            if len(run.setup) < SETUP_SAMPLES and perf_counter() - start >= interval * len(run.setup):
                run.time_setup(setup_fn)
            gc.collect()
    finally:
        gc.enable()
    return rounds


def _kernels(mv):
    return {"horspool": mv.search_horspool, "naive": mv.search_naive,
            "horspool_instrumented": mv.search_horspool_instrumented,
            "naive_instrumented": mv.search_naive_instrumented}


def kernel_op(run: Run, kernels, text, pattern, m: int, expected: list[int],
              source: str, traced: bool) -> tuple[float, list[str]]:
    """One input through the four kernels, checked against the oracle.

    Returns the operation's seconds and the problems found.
    """
    tr = run.tracer_for(traced)
    results = []
    tag = f"m{m}:{source}"
    tr.next_op()
    start = perf_counter()
    with tr.span("op.kernels", tag):
        for alg in ALGS:
            with tr.span(f"matchers.{alg}", tag):
                t0 = perf_counter()
                result = kernels[alg](text, pattern)
                t1 = perf_counter()
            results.append((alg, t1 - t0, result))
    elapsed = perf_counter() - start
    problems = []
    for alg, seconds, result in results:
        run.time_call(traced, alg, m, source, seconds)
        positions, stats = result if alg.endswith("_instrumented") else (result, None)
        if positions != expected:
            problems.append(f"{alg} m={m}: {len(positions)} matches, oracle has {len(expected)}")
        if stats is not None:
            if stats.matches_found != len(expected):
                problems.append(f"{alg} m={m}: counted {stats.matches_found} matches,"
                                f" oracle has {len(expected)}")
            problems += run.count(source, m, alg, stats.alignments, stats.symbol_reads,
                                  stats.matches_found)
    return elapsed, problems


def shift_table_probe(run: Run, mv, patterns) -> None:
    tr = run.tracer
    entries = []
    for j, pattern in enumerate(patterns):
        for _ in range(PROBE_REPEATS):
            with tr.span("shift_table.build_shift_table", f"p{j}"):
                table = mv.build_shift_table(pattern)
        entries.append(len(table.shifts))
    run.layer["shift_table.build_us"] = tr.best("shift_table.build_shift_table") * 1e6
    run.layer["shift_table.entries"] = median(entries)


def kernel_layer_metrics(run: Run) -> None:
    """matchers.<alg>.m<M>.ms from the traced kernel spans."""
    for alg in ALGS:
        for m in M_SET:
            run.layer[f"matchers.{alg}.m{m}.ms"] = run.tracer.best(f"matchers.{alg}", f"m{m}:") * 1e3


def core_layer_metrics(run: Run, registry) -> None:
    run.layer["core.num_symbols"] = registry.num_symbols
    run.layer["core.k"] = registry.k


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# --------------------------------------------------------------------------
# kernel_sweep: the `mvmatch bench` desk-scale loop, in process.

def kernel_sweep(run: Run, mv, seed: int, seconds: float, work: Path) -> None:
    k, n, sigma = 3, 100_000, 10
    run.n = n
    run.config.update(k=k, n=n, sigma=sigma, m_set=list(M_SET), pattern_mode="uniform",
                      instances_per_m=SWEEP_INSTANCES_PER_M, algorithms=list(ALGS),
                      setup_samples=SETUP_SAMPLES, operation="one instance through the four kernels")
    run.tail_cap = 90
    configs = [(m, i, mv.GenConfig(k=k, n=n, sigma=sigma, m=m, seed=inputs.sweep_seed(seed, m, i),
                                    pattern_mode="uniform"))
               for m in M_SET for i in range(SWEEP_INSTANCES_PER_M)]
    tr = run.tracer or NULL

    def generate():
        generated = {}
        for m, i, config in configs:
            with tr.span("synth.generate_instance", f"m{m}:sweep{i}"):
                generated[(m, i)] = mv.generate_instance(config)
        return generated

    instances = run.time_setup(generate)
    expected = {}
    for key, (text, pattern) in instances.items():
        columns = np.asarray(text.views)
        rows = inputs.rows_of(columns, pattern.symbols)
        expected[key] = [] if rows is None else inputs.oracle_positions(columns, rows)
    run.observed["matches_per_m"] = {m: sum(len(expected[(m, i)]) for i in range(SWEEP_INSTANCES_PER_M))
                                     for m in M_SET}
    kernels = _kernels(mv)

    def sweep_op(m: int, i: int, traced: bool) -> list[str]:
        text, pattern = instances[(m, i)]
        elapsed, problems = kernel_op(run, kernels, text, pattern, m, expected[(m, i)], f"sweep{i}", traced)
        run.time_op(traced, (m, i), elapsed)
        return problems

    def round_fn(r: int, traced: bool) -> None:
        i = r // 2 % SWEEP_INSTANCES_PER_M  # each instance twice: once traced when tracing
        for m in M_SET:
            run.attempt(f"sweep m={m} instance={i}", lambda: sweep_op(m, i, traced))

    run.observed["rounds"] = closed_loop(run, seconds, round_fn, generate)
    _count_unvisited(run, mv, [(f"sweep{i}", m, text, pattern, expected[(m, i)])
                               for (m, i), (text, pattern) in instances.items()])
    run.peak_rss_mb = self_rss_mb()

    if run.tracer:
        run.layer["synth.generate_ms"] = run.tracer.best("synth.generate_instance") * 1e3
        core_layer_metrics(run, instances[(M_SET[0], 0)][0].registry)
        shift_table_probe(run, mv, [p for _, p in instances.values()])
        kernel_layer_metrics(run)
        run.absent.update({"cli.": "the sweep runs in process; no mvmatch CLI call",
                           "formats.": "instances come from synth; nothing is parsed",
                           "matchers.search_ms": "no vocabulary queries in this workload"})


def _count_unvisited(run: Run, mv, inputs_) -> None:
    """Counts for inputs a short run never reached, so the digest covers all.

    `inputs_` holds (source, m, text, pattern, expected positions).
    """
    for source, m, text, pattern, expected in inputs_:
        for alg, fn in (("horspool", mv.search_horspool_instrumented),
                        ("naive", mv.search_naive_instrumented)):
            if (source, m, alg) not in run.counted:
                def check():
                    positions, stats = fn(text, pattern)
                    problems = [] if positions == expected else [f"{alg}: wrong positions"]
                    return problems + run.count(source, m, alg, stats.alignments,
                                                stats.symbol_reads, stats.matches_found)
                run.attempt(f"count {alg} {source} m={m}", check)


# --------------------------------------------------------------------------
# vocab_queries: many short queries against one large-vocabulary text.

def vocab_queries(run: Run, mv, seed: int, seconds: float, work: Path) -> None:
    names, vocabularies, columns, rng = inputs.vocab_text(seed)
    data = inputs.to_tsv(names, vocabularies, columns)
    queries = [inputs.planted(rng, columns, m) for _ in range(VOCAB_QUERIES_PER_M) for m in VOCAB_QUERY_M]
    probes = [[inputs.planted(rng, columns, m) for _ in range(VOCAB_PROBES_PER_M)] for m in M_SET]
    run.n = inputs.VOCAB_N
    run.config.update(k=2, n=inputs.VOCAB_N, word_types=inputs.VOCAB_WORD_TYPES, zipf=inputs.VOCAB_ZIPF,
                      tags=inputs.VOCAB_TAGS, query_m=list(VOCAB_QUERY_M), queries_per_m=VOCAB_QUERIES_PER_M,
                      probe_m_set=list(M_SET), probes_per_m=VOCAB_PROBES_PER_M, setup_samples=SETUP_SAMPLES,
                      operation="parse_pattern_string, build_shift_table, search_horspool")
    run.tail_cap = 95
    tr = run.tracer or NULL

    def load():
        with tr.span("formats.parse_text_file", "setup"):
            return mv.parse_text_file(data)

    registry, text = run.time_setup(load)
    run.observed.update(bytes=len(data), num_symbols=registry.num_symbols)
    query_strings = [inputs.pattern_string(vocabularies, q) for q in queries]
    query_expected = [inputs.oracle_positions(columns, q) for q in queries]
    probe_inputs = [[(f"probe{i}", m, text,
                      mv.parse_pattern_string(inputs.pattern_string(vocabularies, p), registry),
                      inputs.oracle_positions(columns, p))
                     for i, p in enumerate(row)]
                    for m, row in zip(M_SET, probes)]
    kernels = _kernels(mv)
    per_probe = len(queries) // len(M_SET)

    def query_op(index: int, traced: bool) -> list[str]:
        tr = run.tracer_for(traced)
        tr.next_op()
        tag = f"q{index}"
        start = perf_counter()
        with tr.span("op.query", tag):
            with tr.span("formats.parse_pattern_string", tag):
                pattern = mv.parse_pattern_string(query_strings[index], registry)
            with tr.span("shift_table.build_shift_table", tag):
                table = mv.build_shift_table(pattern)
            with tr.span("matchers.horspool", tag):
                positions = mv.search_horspool(text, pattern, table)
        run.time_op(traced, index, perf_counter() - start)
        if positions != query_expected[index]:
            return [f"query {index}: {len(positions)} matches, oracle has {len(query_expected[index])}"]
        return []

    def round_fn(r: int, traced: bool) -> None:
        for j, m in enumerate(M_SET):
            source, _, _, pattern, expected = probe_inputs[j][r % VOCAB_PROBES_PER_M]
            run.attempt(f"{source} m={m}", lambda: kernel_op(
                run, kernels, text, pattern, m, expected, source, traced)[1])
            for index in range(j * per_probe, (j + 1) * per_probe):
                run.attempt(f"query {index}", lambda: query_op(index, traced))

    run.observed["rounds"] = closed_loop(run, seconds, round_fn, load)
    run.peak_rss_mb = self_rss_mb()
    _count_unvisited(run, mv, [probe for row in probe_inputs for probe in row])

    entries = []
    for index, s in enumerate(query_strings):  # exact counts of the query set, untimed
        def check():
            pattern = mv.parse_pattern_string(s, registry)
            entries.append(len(mv.build_shift_table(pattern).shifts))
            positions, stats = mv.search_horspool_instrumented(text, pattern)
            problems = [] if positions == query_expected[index] else [f"query {index}: wrong positions"]
            return problems + run.count(f"q{index}", len(queries[index]), "horspool", stats.alignments,
                                        stats.symbol_reads, stats.matches_found)
        run.attempt(f"count query {index}", check)

    if run.tracer:
        t = run.tracer
        parse_ms = t.best("formats.parse_text_file") * 1e3
        run.layer.update({
            "formats.parse_text_ms": parse_ms,
            "formats.bytes_in": len(data),
            "formats.lines_in": data.count(b"\n"),
            "formats.parse_mb_per_s": len(data) / 1e6 / (parse_ms / 1e3),
            "formats.parse_pattern_us": t.best("formats.parse_pattern_string", "q") * 1e6,
            "shift_table.build_us": t.best("shift_table.build_shift_table", "q") * 1e6,
            "shift_table.entries": median(entries),
            "matchers.search_ms": t.best("matchers.horspool", "q") * 1e3,
        })
        core_layer_metrics(run, registry)
        kernel_layer_metrics(run)
        run.absent.update({"cli.": "queries run in process; no mvmatch CLI call",
                           "synth.": "the text comes from the benchmark's own generator, not synth"})


# --------------------------------------------------------------------------
# corpus_search: `mvmatch search` as a fresh process, one call at a time.

_STATS = re.compile(r"alignments=(\d+) symbol_reads=(\d+) matches=(\d+)")


# One round: both plain search paths on the planted patterns, and both
# `--stats` paths on the uniform pattern, which has no match (exit code 1).
CORPUS_ROUND = ((0, "horspool"), (0, "naive"), (1, "horspool"), (1, "naive"), (2, "horspool"),
                (2, "naive"), (3, "horspool_instrumented"), (3, "naive_instrumented"))


def corpus_search(run: Run, mv, seed: int, seconds: float, work: Path) -> None:
    root = work.parent
    path = work / f"corpus-seed{seed}.tsv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))

    def cli(args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], env=env, cwd=root, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)

    def process_reference() -> float:
        start = perf_counter()
        cli(["-c", _REF_PROCESS]).check_returncode()
        return perf_counter() - start

    run.use_reference(Reference(process_reference, nominal_s=0.20, interval_s=1.0, window=5))

    def write_corpus():
        generated = inputs.corpus(seed)
        names, vocabularies, columns, _ = generated
        path.write_bytes(inputs.to_tsv(names, vocabularies, columns))
        return generated

    _, vocabularies, columns, rng = run.time_setup(write_corpus)
    patterns = [inputs.planted(rng, columns, m) for m in M_SET]
    patterns.append(inputs.uniform(rng, inputs.CORPUS_K, inputs.CORPUS_SIGMA, 30))
    strings = [inputs.pattern_string(vocabularies, p) for p in patterns]
    expected = [inputs.oracle_positions(columns, p) for p in patterns]
    run.n = inputs.CORPUS_N
    run.config.update(k=inputs.CORPUS_K, n=run.n, sigma=inputs.CORPUS_SIGMA,
                      patterns=["planted m=2", "planted m=10", "planted m=30", "uniform m=30"],
                      round=[f"pattern {i}: mvmatch search {' '.join(CLI_FLAGS[alg])}".rstrip()
                             for i, alg in CORPUS_ROUND],
                      setup_samples=SETUP_SAMPLES, operation="one mvmatch search process")
    run.observed.update(bytes=path.stat().st_size,
                        expected_exit_codes=[0 if e else 1 for e in expected])
    run.tail_cap = 75
    _count_corpus(run, mv, path, strings, expected)

    def search_args(index: int, alg: str) -> list[str]:
        return ["-m", "mvmatch.cli", "search", "--text", str(path), "--pattern", strings[index],
                *CLI_FLAGS[alg]]

    def call_op(index: int, alg: str, traced: bool) -> list[str]:
        tr = run.tracer_for(traced)
        tr.next_op()
        m = len(patterns[index])
        start = perf_counter()
        with tr.span("cli.process", f"m{m}:p{index}:{alg}"):
            done = cli(search_args(index, alg))
        elapsed = perf_counter() - start
        run.time_op(traced, (index, alg), elapsed)
        run.time_call(traced, alg, m, f"p{index}", elapsed)
        want = expected[index]
        problems = []
        if done.returncode != (0 if want else 1):
            problems.append(f"exit code {done.returncode}, expected {0 if want else 1}:"
                            f" {done.stderr.strip()[-200:]}")
        if [int(line) for line in done.stdout.split()] != want:
            problems.append(f"printed positions differ from the oracle ({len(want)} expected)")
        if alg.endswith("_instrumented"):
            found = _STATS.search(done.stderr)
            if found is None:
                problems.append("no work counters on stderr")
            else:
                alignments, reads, matches = map(int, found.groups())
                problems += run.count(f"p{index}", m, alg, alignments, reads, matches)
        return problems

    def round_fn(r: int, traced: bool) -> None:
        for index, alg in CORPUS_ROUND:
            run.attempt(f"search pattern={index} {alg}", lambda: call_op(index, alg, traced))

    cli(search_args(0, "horspool"))  # a warm-up call fills the file and bytecode caches
    run.observed["rounds"] = closed_loop(run, seconds, round_fn, write_corpus, warmup=False)
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    if run.tracer:
        _corpus_layer_probes(run, mv, cli, path, strings)
    path.unlink()


def _count_corpus(run: Run, mv, path: Path, strings: list[str], expected: list[list[int]]) -> None:
    """Exact counts of every corpus pattern from the instrumented kernels,
    untimed; each `--stats` call must then print the same counts."""
    registry, text = mv.parse_text_file(path.read_bytes())
    for index, s in enumerate(strings):
        pattern = mv.parse_pattern_string(s, registry)
        for alg, fn in (("horspool", mv.search_horspool_instrumented),
                        ("naive", mv.search_naive_instrumented)):
            def check():
                positions, stats = fn(text, pattern)
                problems = [] if positions == expected[index] else [f"{alg}: wrong positions"]
                return problems + run.count(f"p{index}", pattern.m, alg, stats.alignments,
                                            stats.symbol_reads, stats.matches_found)
            run.attempt(f"count {alg} pattern={index}", check)


def _corpus_layer_probes(run: Run, mv, cli, path: Path, strings: list[str]) -> None:
    """Per-layer numbers behind one `mvmatch search` call."""
    tr = run.tracer
    for name, code in (("cli.interp", "pass"), ("cli.import", "import mvmatch.cli")):
        for _ in range(PROBE_REPEATS):
            with tr.span(name, "probe"):
                cli(["-c", code])
    interp = tr.best("cli.interp")
    run.layer["cli.interp_ms"] = interp * 1e3
    run.layer["cli.import_ms"] = (tr.best("cli.import") - interp) * 1e3

    import mvmatch.cli as cli_module
    parsed = []
    wrapped = {"parse_text_file": "formats.parse_text_file",
               "parse_pattern_string": "formats.parse_pattern_string",
               "search_horspool": "matchers.horspool"}
    lines = 0
    with _traced_calls(cli_module, tr, wrapped, parsed) as missing:
        for _ in range(PROBE_REPEATS):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), tr.span("cli.main", "probe"):
                cli_module.main(["search", "--text", str(path), "--pattern", strings[1]])
            lines = out.getvalue().count("\n")
    metrics_of = {"parse_text_file": ("formats.parse_text_ms", "formats.bytes_in", "formats.lines_in",
                                      "formats.parse_mb_per_s"),
                  "parse_pattern_string": ("formats.parse_pattern_us",),
                  "search_horspool": ("matchers.search_ms",)}
    for name in missing:
        for metric in metrics_of[name]:
            run.absent[metric] = f"mvmatch.cli no longer calls {name}"
    run.layer["cli.main_ms"] = tr.best("cli.main") * 1e3
    run.layer["cli.lines_out"] = lines
    if "parse_text_file" not in missing:
        size = path.stat().st_size
        parse_ms = tr.best("formats.parse_text_file", "cli") * 1e3
        run.layer.update({"formats.parse_text_ms": parse_ms, "formats.bytes_in": size,
                          "formats.lines_in": path.read_bytes().count(b"\n"),
                          "formats.parse_mb_per_s": size / 1e6 / (parse_ms / 1e3)})
    if "parse_pattern_string" not in missing:
        run.layer["formats.parse_pattern_us"] = tr.best("formats.parse_pattern_string", "cli") * 1e6
    if "search_horspool" not in missing:
        run.layer["matchers.search_ms"] = tr.best("matchers.horspool", "cli") * 1e3

    registry, text = parsed[-1] if parsed else mv.parse_text_file(path.read_bytes())
    core_layer_metrics(run, registry)
    patterns = {len(s.split()): mv.parse_pattern_string(s, registry) for s in strings[:len(M_SET)]}
    shift_table_probe(run, mv, list(patterns.values()))
    kernels = _kernels(mv)
    for m, pattern in patterns.items():
        for alg in ALGS:
            for _ in range(PROBE_REPEATS):
                with tr.span(f"matchers.{alg}", f"m{m}:corpus"):
                    kernels[alg](text, pattern)
    kernel_layer_metrics(run)
    run.absent["synth."] = "the corpus comes from the benchmark's own generator, not synth"


@contextlib.contextmanager
def _traced_calls(module, tracer: Tracer, names: dict[str, str], parsed: list):
    """Wrap the module's references to layer functions so each call made
    through the module records a span tagged "cli"; yields the names the
    module no longer has."""
    saved = {attr: getattr(module, attr) for attr in names if hasattr(module, attr)}

    def wrap(fn, span_name):
        def traced(*args, **kwargs):
            with tracer.span(span_name, "cli"):
                result = fn(*args, **kwargs)
            if span_name == "formats.parse_text_file":
                parsed[:] = [result]
            return result
        return traced

    for attr, fn in saved.items():
        setattr(module, attr, wrap(fn, names[attr]))
    try:
        yield [attr for attr in names if attr not in saved]
    finally:
        for attr, fn in saved.items():
            setattr(module, attr, fn)


WORKLOADS = {"corpus_search": corpus_search, "kernel_sweep": kernel_sweep, "vocab_queries": vocab_queries}
