"""Run the benchmark over several seeds and report each metric's median and spread.

Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline.json

For every workload in BENCHMARK.json (or those given with --workload) this
runs the benchmark command once per seed, one run at a time, and reports
for each metric the median and the spread: the distance between the first
and third quartile (`statistics.quantiles(values, n=4)`) as a share of the
median.  End-to-end spreads are compared with a third of each metric's
bound.  With --trace 1 it reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(command, workload, seed, seconds, trace) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{' '.join(argv)} reported failures: {lines[-2][:2000]}")
    return {"result": result, "info": json.loads(lines[-2])}


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="a range 1-10 or a list 1,2,3")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"seeds": seeds, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    steady = True
    for workload in workloads:
        runs = [run_once(bench["command"], workload, seed, args.seconds, args.trace) for seed in seeds]
        names = runs[0]["result"]["metrics"]
        metrics = {}
        for name, first in names.items():
            stats = summarize([r["result"]["metrics"][name]["value"] for r in runs])
            stats["unit"] = first["unit"]
            metrics[name] = stats
            line = f"{workload:15} {name:36} median {stats['median']:12.6g} {first['unit']:10} spread {stats['spread']:.4f}"
            if name in bounds:
                limit = bounds[name] / 3
                ok = name == "setup_s" or stats["spread"] <= limit
                steady &= ok
                line += f"  (bound/3 {limit:.4f}{'' if ok else '  NOT STEADY'})"
            print(line, flush=True)
        summary["workloads"][workload] = {
            "metrics": metrics,
            "env": runs[0]["info"]["env"],
            "inputs": runs[0]["info"]["inputs"],
            "latency_samples": [r["info"]["latency_samples"] for r in runs],
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
