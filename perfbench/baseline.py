#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 1-10 --commit <id> --out perfbench/baseline.json

Runs every workload once per seed, one run at a time, with tracing off, and
then once per workload with tracing on. For each end-to-end metric it
reports the median, the quartiles and the spread (interquartile distance
over the median) and flags spreads above the metric's bound or a third of
it. --out writes the summary with the machine it was measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({done.returncode}):\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output check failed:\n{done.stderr}")
    return result


def summarise(values: list[float], bound: float | None) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound, "values": values}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--commit", default="", help="id of the program version measured")
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        traced = run_once(workload, seeds[0], args.seconds, 1)["metrics"]
        summary[workload] = {
            "end_to_end": {name: summarise(v, bounds[name]) for name, v in values.items()},
            "per_layer_seed": seeds[0],
            "per_layer": {name: metric["value"] for name, metric in traced.items()},
        }
        for name, s in summary[workload]["end_to_end"].items():
            flag = ""
            if name != "setup_s" and s["spread"] > s["bound"]:
                flag = "  OVER BOUND"
            elif s["spread"] > s["bound"] / 3:
                flag = "  over a third of the bound"
            print(f"{workload:8s} {name:16s} median {s['median']:12.6g}  "
                  f"spread {s['spread']:.4f} (bound {s['bound']}){flag}", flush=True)

    if args.out:
        doc = {
            "machine": {
                "cpu_count": os.cpu_count(),
                "python": platform.python_version(),
                "platform": platform.platform(),
            },
            "program_commit": args.commit,
            "run_seconds": args.seconds,
            "seeds": seeds,
            "workloads": summary,
        }
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
