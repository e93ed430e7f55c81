"""Command-line entry points: search, gen, bench.

Exit codes follow the grep convention for `search` (0 at least one match,
1 no match, 2 error); `gen` and `bench` use 0/2.  A reader that closes stdout,
mid-output as `| head` does or before the first write, gives status 141 and
nothing on stderr.  Positions print 0-based by default; --base 1 shifts them
for comparison against 1-based diagrams.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys

from .core import MatchingError
from .formats import parse_pattern_string, parse_text_file, serialize_pattern, serialize_text
from .matchers import KERNELS, search_horspool
from .synth import PATTERN_MODES, GenConfig, InvalidConfig, generate_instance

EXIT_MATCH = 0
EXIT_NO_MATCH = 1
EXIT_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvmatch",
        description="Exact pattern matching over multi-view (aligned multi-track) texts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="find all pattern occurrences in a text file")
    p.add_argument("--text", required=True, help="multi-track text file")
    p.add_argument("--pattern", required=True, help="whitespace-separated pattern tokens")
    p.add_argument("--algorithm", choices=list(KERNELS), default="horspool")
    p.add_argument("--base", type=int, choices=[0, 1], default=0,
                   help="display base for printed positions")
    p.add_argument("--count", action="store_true", help="print only the match count")
    p.add_argument("--stats", action="store_true",
                   help="print work counters to stderr")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("gen", help="generate a random instance to files")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=PATTERN_MODES, default="uniform")
    p.add_argument("--out-text", required=True)
    p.add_argument("--out-pattern", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="compare naive vs horspool over generated batches")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--sigma", type=int, default=10)
    p.add_argument("--m-list", type=int, nargs="+", default=list(range(2, 31)),
                   help="pattern lengths (default: 2 to 30)")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", required=True, help="output CSV path")
    p.add_argument("--counts-only", action="store_true",
                   help="skip wall-time measurement; output is fully deterministic")
    p.set_defaults(func=cmd_bench)
    return parser


def cmd_search(args) -> int:
    # parse_text_file, parse_pattern_string and search_horspool are called
    # through this module's globals, so a caller can wrap them to trace them.
    with open(args.text, "rb") as fh:
        registry, text = parse_text_file(fh.read())
    pattern = parse_pattern_string(args.pattern, registry)

    fast, instrumented = KERNELS[args.algorithm]
    if args.stats:
        matches, stats = instrumented(text, pattern)
        print(
            f"alignments={stats.alignments} symbol_reads={stats.symbol_reads}"
            f" matches={stats.matches_found}",
            file=sys.stderr,
        )
    else:
        run = search_horspool if args.algorithm == "horspool" else fast
        matches = run(text, pattern)

    if args.count:
        print(len(matches))
    else:
        for pos in matches:
            print(pos + args.base)
    return EXIT_MATCH if matches else EXIT_NO_MATCH


def cmd_gen(args) -> int:
    if os.path.realpath(args.out_text) == os.path.realpath(args.out_pattern):
        raise InvalidConfig(f"--out-text and --out-pattern name the same file {args.out_pattern!r}")
    with _all_or_nothing(args.out_text, args.out_pattern) as (text_fh, pattern_fh):
        config = GenConfig(k=args.k, n=args.n, sigma=args.sigma, m=args.m,
                           seed=args.seed, pattern_mode=args.mode)
        text, pattern = generate_instance(config)
        text_fh.write(serialize_text(text))
        pattern_fh.write(serialize_pattern(pattern))
    return 0


def cmd_bench(args) -> int:
    # here, not at module top: `mvmatch search` never needs the harness
    from .bench import BenchConfig, run_benchmark, write_csv

    with _all_or_nothing(args.csv) as (fh,):
        config = BenchConfig(
            k=args.k,
            n=args.n,
            sigma=args.sigma,
            m_values=tuple(args.m_list),
            instances_per_m=args.instances,
            seed=args.seed,
            timed=not args.counts_only,
        )
        rows = run_benchmark(config)
        out = io.StringIO()
        write_csv(rows, out)
        fh.write(out.getvalue().encode())

    row_of = {(row.m, row.algorithm): row for row in rows}
    for m in sorted(set(config.m_values)):
        if m > args.n:
            print(f"m={m}: no windows (m > n)")
            continue
        nv, hs = row_of[m, "naive"], row_of[m, "horspool"]
        # m <= n: every instance has at least one alignment of R >= 1 reads,
        # one per view the pattern uses, and a timed search takes a nonzero time
        read_ratio = nv.total_symbol_reads / hs.total_symbol_reads
        line = f"m={m}: read ratio naive/horspool = {read_ratio:.3f}"
        if config.timed:
            line += f", time ratio = {nv.total_time / hs.total_time:.3f}"
        print(line)
    return 0


@contextlib.contextmanager
def _all_or_nothing(*paths: str):
    """Write every file or none: yields binary handles on temporary files
    beside the targets, opened before the block runs, and replaces the
    targets once it completes; on any exception, Ctrl-C included, it removes
    the temporaries and leaves every target as it was.  A symlink is followed.
    A directory, device or FIFO is refused up front, not left to os.replace."""
    temps: list[tuple[str, str]] = []
    try:
        with contextlib.ExitStack() as stack:
            handles = []
            for path in paths:
                if os.path.exists(path) and not os.path.isfile(path):
                    raise OSError(f"Not a regular file: {path!r}")
                real = os.path.realpath(path)
                tmp = f"{real}.{os.getpid()}.tmp"
                try:  # "x": never truncate, and so never remove, a file of that name
                    handles.append(stack.enter_context(open(tmp, "xb")))
                except OSError as exc:  # name the target, not the temporary file
                    raise OSError(exc.errno, exc.strerror, path) from None
                temps.append((tmp, real))
            yield handles
        for tmp, path in temps:
            os.replace(tmp, path)
    finally:
        for tmp, _ in temps:
            if os.path.exists(tmp):
                os.remove(tmp)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # not left to exit, so a reader gone before any write is caught
        return status
    except BrokenPipeError:  # the reader closed stdout, as `| head` does: not an error
        with open(os.devnull, "wb") as devnull:  # the flush at exit then writes nowhere
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, what a shell shows for `grep` in the same pipe
    except (OSError, MatchingError, MemoryError) as exc:
        print(f"mvmatch: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
