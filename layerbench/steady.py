"""Steadiness tool: run one workload several times and compare each
end-to-end metric's run-to-run spread with its bound.

    python3 layerbench/steady.py --workload check [--runs 5] [--first-seed 1]
        [--seconds S] [--counts]

Each run uses another seed.  For every metric it prints the median,
the relative IQR (distance between the first and third quartile of
``statistics.quantiles(values, n=4)`` over the median) and the bound
from BENCHMARK.json.  ``host.calib_ms`` -- a program-independent host
probe -- is printed too but never gated, so a drifting host can be told
apart from a noisy metric.  Exit status 1 when a gated spread exceeds a
third of its bound (``setup_s`` is reported but not gated on spread).

``--counts`` instead makes two traced runs of one seed and checks that
every count and ratio of the per-layer metrics repeats exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> Dict[str, float]:
    config = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
    argv = list(config["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    argv[0] = sys.executable if argv[0].startswith("python") else argv[0]
    started = time.monotonic()
    output = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    wall_s = time.monotonic() - started
    lines = output.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("seed %d: %d of %d ops failed" % (seed, result["failed"], result["attempted"]))
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    for line in lines[:-1]:
        if line.startswith("# "):
            values["host.calib_ms"] = json.loads(line[2:])["host.calib_ms"]
    values["run.wall_s"] = wall_s
    return values


def counts_repeat(workload: str, seed: int, seconds: int) -> int:
    """Two traced runs of one seed must report identical counts and
    ratios (they come from a counting block of fixed content)."""
    config = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
    exact = [m["name"] for m in config["per_layer"] if m["unit"] in ("count", "ratio")
             and m["name"] != "trace.overhead_ratio"]
    first = run_once(workload, seed, seconds, trace=1)
    second = run_once(workload, seed, seconds, trace=1)
    differ = [name for name in exact if first[name] != second[name]]
    for name in exact:
        print("%-36s %16.6f %16.6f%s" % (name, first[name], second[name],
                                         "  DIFFERS" if name in differ else ""))
    print("counts repeat" if not differ else "counts differ: %s" % ", ".join(differ))
    return 1 if differ else 0


def spread(values: List[float]) -> float:
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--counts", action="store_true",
                        help="instead: two traced runs of --first-seed must agree on every count")
    args = parser.parse_args()
    config = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
    seconds = args.seconds or config["run_seconds"]
    if args.counts:
        return counts_repeat(args.workload, args.first_seed, seconds)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        runs.append(run_once(args.workload, seed, seconds))
        print("seed %d: %s" % (seed, json.dumps({k: round(v, 4) for k, v in sorted(runs[-1].items())})),
              flush=True)
    status = 0
    print("%-22s %12s %8s %8s" % ("metric", "median", "rel.IQR", "bound"))
    for name in sorted(runs[0]):
        values = [run[name] for run in runs]
        relative = spread(values)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and relative > bound / 3:
            flag = "  > bound/3"
            status = 1
        print("%-22s %12.4f %8.3f %8s%s" % (name, statistics.median(values), relative,
                                          "-" if bound is None else "%.2f" % bound, flag))
    return status


if __name__ == "__main__":
    sys.exit(main())
