#!/usr/bin/env python3
"""Benchmark of the sbcr toolkit, run against the source tree next to this directory.

    python3 perfbench/run.py --workload sample --seed 1 --seconds 25 --trace 0

One closed-loop client (this process) drives sbcr's public API. The workload
runs whole passes over the same inputs until the time is spent, at least
two, and every pass's outputs are checked, including that each pass scores
every record identically.

Timing. Every time is scaled to the machine's nominal speed (see clock.py),
and every pass times the same pieces (a record, a grid configuration, a
pipeline stage); each piece counts with its fastest time over the passes.
records_per_s is the records of one pass over the sum of those fastest
times; record latencies are each record's fastest resolve (for tune, each
configuration and record's fastest tune_grid call). Since passes
repeat the same inputs, every functools cache in sbcr is emptied between
passes, and the first pass's time over the median of the others is printed
as the cold ratio, with a warning when it exceeds 1 + records_per_s's bound: a
cache that outlives a pass would otherwise read as a faster program.
Set-up (sbcr's import in a fresh interpreter, input generation, resolver
construction, stub start) is repeated between passes and its median
reported.

--trace 0 prints the end-to-end metrics. --trace 1 runs half the time
untraced and half with wrappers around sbcr's layers, prints the per-layer
metrics and the tracing overhead, and writes the spans to
.perfbench_out/trace-<workload>-<seed>.jsonl. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
code is 1 when an output check fails and 2 when sbcr cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from clock import Stopwatch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5

IMPORT_TIMER = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; import clock; "
    "before = clock.reference_seconds(); t = time.perf_counter(); import sbcr; "
    "t = time.perf_counter() - t; after = clock.reference_seconds(); "
    "print(t * clock.NOMINAL_REFERENCE_S / min(before, after))"
)


def declared(kind: str) -> dict[str, dict]:
    """BENCHMARK.json's metrics of one kind ("end_to_end" or "per_layer") by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric for metric in spec[kind]}


def clear_caches() -> None:
    """Empty every functools cache on a module-level callable of sbcr,
    looking through wrappers such as the tracer's."""
    for name, module in list(sys.modules.items()):
        if name == "sbcr" or name.startswith("sbcr."):
            for value in list(vars(module).values()):
                while callable(value):
                    if callable(getattr(value, "cache_clear", None)):
                        value.cache_clear()
                    value = getattr(value, "__wrapped__", None)


def set_up(make, seed: int):
    """One set-up: import sbcr in a fresh interpreter, then build the workload.
    Returns (nominal-speed seconds, workload)."""
    done = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(HERE), str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=120)
    watch = Stopwatch()
    workload = watch.run("build", make, seed)
    return float(done.stdout) + watch.phases["build"], workload


def measure(workload, seconds: float, min_passes: int, tracer=None, between=None):
    """Run passes until another would overrun ``seconds``, calling ``between``
    after each; return the pass results and wall times."""
    results, times = [], []
    start = perf_counter()
    while True:
        with tracer.span("perfbench.pass") if tracer else nullcontext():
            t0 = perf_counter()
            results.append(workload.run_pass())
            times.append(perf_counter() - t0)
        clear_caches()
        if between is not None:
            between()
        if len(results) >= min_passes and perf_counter() - start + min(times) > seconds:
            return results, times


def best_seconds(results) -> float:
    """One pass's time with every phase at its fastest over the passes."""
    return sum(min(r.phases[name] for r in results) for name in results[0].phases)


def cold_ratio(results) -> float:
    """The first pass's time over the median of the later passes' times."""
    return sum(results[0].phases.values()) / statistics.median(sum(r.phases.values()) for r in results[1:])


def fastest_per_record(latencies: list[tuple[str, float]]) -> list[float]:
    best: dict[str, float] = {}
    for record, ms in latencies:
        best[record] = min(ms, best.get(record, ms))
    return list(best.values())


def end_to_end_values(results, timed, setup_times: list[float]) -> tuple[dict[str, float], str]:
    """Every end-to-end metric of an untraced run, and a line saying which
    percentile record_ms_tail is. Without a TimedResolver (tune), every
    phase is one (configuration, record) measurement and its latency sample."""
    import tracing

    if timed is not None:
        samples = timed.latencies_ms
    else:
        samples = [(name, s * 1000.0) for r in results for name, s in r.phases.items()]
    latencies = fastest_per_record(samples)
    pct, tail = tracing.tail(latencies)
    attempted = sum(r.attempted for r in results)
    values = {
        "setup_s": statistics.median(setup_times),
        "records_per_s": results[0].records / best_seconds(results),
        "record_ms_p50": statistics.median(latencies),
        "record_ms_tail": tail,
        "sim_char_mean": statistics.fmean(results[0].sims),
        "ok_ratio": 1.0 - sum(r.failed for r in results) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    note = (f"record_ms_tail is p{pct:g} of the fastest latencies of {len(latencies)} records "
            f"({len(samples)} samples)")
    return values, note


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sample", "large", "tune", "dataset"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import sbcr
    except ImportError as exc:
        print(f"perfbench: cannot import sbcr from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(sbcr.__file__).resolve().parent != (ROOT / "src" / "sbcr").resolve():
        print(f"perfbench: sbcr imported from {sbcr.__file__}, not from this tree", file=sys.stderr)
        return 2

    import checks
    import tracing
    from workloads import WORKLOADS

    make = WORKLOADS[args.workload]
    setup_times: list[float] = []

    def another_setup() -> None:
        seconds, extra = set_up(make, args.seed)
        extra.close()
        setup_times.append(seconds)

    seconds, workload = set_up(make, args.seed)
    setup_times.append(seconds)
    tracer = None
    try:
        if args.trace:
            untraced, wall = measure(workload, args.seconds / 2, 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced, traced_wall = measure(workload, args.seconds / 2, 1, tracer)
            finally:
                tracer.uninstall()
            results, wall = untraced + traced, wall + traced_wall
        else:
            results, wall = measure(workload, args.seconds, 2, between=another_setup)
            while len(setup_times) < SETUP_SAMPLES:
                another_setup()
    finally:
        workload.close()

    first = results[0]
    errors = [e for r in results for e in r.errors]
    for k, r in enumerate(results[1:], start=2):
        errors += checks.same_scores(first.sims, r.sims, f"{args.workload} pass {k}")
    timed = workload.timed
    if timed is not None and timed.exceptions:
        print(f"resolver exceptions caught: {len(timed.exceptions)}, first: {timed.exceptions[0]}")
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print(f"workload {args.workload}, seed {args.seed}: {len(results)} passes of {first.records} records")
    print("pass wall seconds: " + " ".join(f"{t:.3f}" for t in wall))
    print("pass nominal seconds: " + " ".join(f"{sum(r.phases.values()):.3f}" for r in results)
          + f"; fastest phases sum to {best_seconds(results):.3f}")
    end_to_end = declared("end_to_end")
    cold = cold_ratio(results if not args.trace else untraced)
    print(f"cold ratio (first pass over the median of the others): {cold:.3f}")
    if cold > 1.0 + end_to_end["records_per_s"]["bound"]:
        print(f"WARNING: the first pass is {cold:.2f}x the others; state kept between passes "
              "makes records_per_s read warm speed", file=sys.stderr)

    if args.trace:
        values = tracing.layer_metrics(tracer.spans, len(traced))
        values["passes.cold_ratio"] = cold
        values["trace.overhead_pct"] = 100.0 * (best_seconds(traced) / best_seconds(untraced) - 1.0)
        values["trace.absent_points"] = float(len(tracer.absent))
        for point in tracer.absent:
            print(f"absent layer: {point} no longer exists; its metrics read 0")
        out = ROOT / ".perfbench_out" / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(out)
        print(f"{len(tracer.spans)} spans written to {out.relative_to(ROOT)}")
        metrics = {name: (values[name], m["unit"]) for name, m in declared("per_layer").items()}
    else:
        values, latency_note = end_to_end_values(results, timed, setup_times)
        print(latency_note)
        metrics = {name: (values[name], m["unit"]) for name, m in end_to_end.items()}

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
