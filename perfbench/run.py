"""The mvmatch benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload kernel_sweep --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports mvmatch from ./src and builds
nothing.  It prints a human-readable summary, then one `record` line with
the environment, config, exact counts and notes, and last one JSON line
with `correct`, `attempted`, `failed` and the metrics named in
BENCHMARK.json: the end-to-end ones with --trace 0, the per-layer ones with
--trace 1.  Files it writes go to ./.perfbench_out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from statistics import median

import numpy as np

import workloads

TAIL_PERCENTILES = (50, 75, 90, 95, 99)


def tail(samples: list[float], cap: int) -> tuple[float, int, int]:
    """The highest percentile, up to `cap`, with at least ten samples beyond it.

    The cap keeps one percentile across runs whose sample counts differ.
    Returns (value, percentile, samples beyond it).
    """
    n = len(samples)
    usable = [p for p in TAIL_PERCENTILES if p <= cap and n * (100 - p) // 100 >= workloads.TAIL_MIN_BEYOND]
    pct = usable[-1] if usable else TAIL_PERCENTILES[0]
    value = float(np.percentile(samples, pct))
    return value, pct, sum(1 for s in samples if s > value)


def ratio(numerator: float, base: float, why_zero: str, notes: dict, name: str) -> float:
    """numerator / base; a zero base gives 0 and a note saying why, never nan."""
    if base:
        return numerator / base
    notes[name] = why_zero
    return 0.0


def scaled(run: workloads.Run, pairs) -> list[float]:
    """Timings scaled to a quiet host: seconds * nominal reference / reference,
    so that a host slowed by co-tenants does not read as a slower program."""
    nominal = run.reference.nominal_s
    return [seconds * nominal / ref for seconds, ref in pairs]


def end_to_end(run: workloads.Run, record: dict) -> dict[str, float]:
    """The metrics from the untraced rounds, timings scaled by the reference."""
    samples = scaled(run, (pair for pairs in run.ops[False].values() for pair in pairs))
    tail_value, pct, beyond = tail(samples, run.tail_cap)
    record["latency"] = {"samples": len(samples), "distinct_operations": len(run.ops[False]),
                         "tail_percentile": pct, "tail_samples_beyond": beyond}
    unscaled = [seconds for pairs in run.ops[False].values() for seconds, _ in pairs]
    record["unscaled"] = {"latency_p50_ms": median(unscaled) * 1e3,
                          "setup_s": median(seconds for seconds, _ in run.setup)}
    record["reference_ms"] = {f"p{q}": float(np.percentile(run.refs, q)) * 1e3 for q in (0, 50, 100)}
    out = {
        "latency_p50_ms": median(samples) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "setup_s": median(scaled(run, run.setup)),
        "peak_rss_mb": run.peak_rss_mb,
        "ops_failed_frac": run.failed / run.attempted,
    }
    calls = run.calls[False]
    for alg in ("horspool", "naive"):
        for m in workloads.M_SET:
            out[f"{alg}_m{m}_mwin_per_s"] = _rate(run, calls, lambda a, mm: a == alg and mm == m)
    out["counted_mwin_per_s"] = _rate(run, calls, lambda a, mm: a.endswith("_instrumented"))
    return out


def _rate(run: workloads.Run, calls: dict, keep) -> float:
    """Windows decided, n - m + 1 per call, per second over the selected
    inputs, each input counted once at its median scaled call; in millions."""
    windows = seconds = 0.0
    for (alg, m, _), pairs in calls.items():
        if keep(alg, m):
            windows += run.n - m + 1
            seconds += median(scaled(run, pairs))
    return windows / seconds / 1e6


def per_layer(run: workloads.Run, digest: dict, record: dict) -> dict[str, float]:
    out = dict(run.layer)
    notes = run.notes
    for alg in ("horspool", "naive"):
        for m in workloads.M_SET:
            alignments, reads, matches, windows = digest.get(f"{alg}/m{m}", (0, 0, 0, 0))
            prefix = f"matchers.{alg}.m{m}"
            out.update({f"{prefix}.alignments": alignments, f"{prefix}.symbol_reads": reads,
                        f"{prefix}.matches": matches})
            out[f"{prefix}.reads_per_window"] = ratio(reads, windows, "no windows (m > n)", notes,
                                                      f"{prefix}.reads_per_window")
            if alg == "horspool":
                out[f"{prefix}.mean_shift"] = ratio(windows, alignments, "no alignments (m > n)", notes,
                                                    f"{prefix}.mean_shift")
    traced = {key: median(scaled(run, pairs)) for key, pairs in run.ops[True].items()}
    untraced = {key: median(scaled(run, pairs)) for key, pairs in run.ops[False].items()}
    both = [key for key in traced if key in untraced]
    out["trace_overhead_frac"] = median(traced[k] / untraced[k] for k in both) - 1
    record["trace_overhead"] = {"operations_compared": len(both), "statistic": "median over operations of"
                                " their median traced / median untraced time, minus 1"}
    record["layer_self_ms_per_op"] = {layer: ms / max(run.tracer.op, 1)
                                      for layer, ms in run.tracer.layer_self_ms().items()}
    return out


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                         model)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": model, "platform": platform.platform()}


def check_digest(path: Path, digest: dict) -> str | None:
    """The exact counts must repeat byte for byte between runs of one seed."""
    data = json.dumps(digest, sort_keys=True).encode()
    if path.exists():
        if path.read_bytes() != data:
            return f"exact counts differ from the earlier run recorded in {path.name}"
        return None
    path.write_bytes(data)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "mvmatch" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from the mvmatch repository root (src/mvmatch and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(root / "src"))
    import mvmatch

    work = root / ".perfbench_out"
    work.mkdir(exist_ok=True)
    run = workloads.Run(trace=bool(args.trace))
    workloads.WORKLOADS[args.workload](run, mvmatch, args.seed, args.seconds, work)

    digest = run.digest()
    problem = check_digest(work / f"digest-{args.workload}-seed{args.seed}.json", digest)
    if problem:
        run.errors.append(problem)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "config": run.config, "observed": run.observed,
              "exact_counts": {key: dict(zip(("alignments", "symbol_reads", "matches", "windows"), row))
                               for key, row in digest.items()}}
    if args.trace:
        values = per_layer(run, digest, record)
        wanted = spec["per_layer"]
        run.tracer.dump(work / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        values = end_to_end(run, record)
        wanted = spec["end_to_end"]
        lat = record["latency"]
        run.notes["latency_tail_ms"] = (f"p{lat['tail_percentile']} of {lat['samples']} samples,"
                                        f" {lat['tail_samples_beyond']} beyond it")
        print(f"ops_failed_frac = {values['ops_failed_frac']!r} fraction"
              f" ({run.failed} of {run.attempted} operations)")
    record["notes"] = run.notes
    record["errors"] = run.errors

    for m in wanted:
        # A layer this workload never calls reads 0, with a note saying why.
        why = next((why for prefix, why in run.absent.items() if m["name"].startswith(prefix)), None)
        if m["name"] not in values and why is not None:
            values[m["name"]] = 0
            run.notes[m["name"]] = why
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: {args.workload} produced no value for {', '.join(missing)}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        note = f"  ({run.notes[name]})" if name in run.notes else ""
        print(f"{name} = {metric['value']!r} {metric['unit']}{note}")
    for error in run.errors:
        print(f"error: {error}")
    record_line = json.dumps({"record": record})
    (work / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(record_line)
    print(record_line)
    print(json.dumps({"correct": run.failed == 0 and not problem, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
