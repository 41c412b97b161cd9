#!/usr/bin/env python3
"""Run bench/run.py over several seeds and summarize each metric.

    python3 bench/sweep.py --workloads ground,branch,cli --seeds 1-10 --seconds 20
    python3 bench/sweep.py --workloads branch --seeds 1 --trace 1 --out bench/out/t.json

Runs are sequential, one process at a time.  For every metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread, the
interquartile distance as a share of the median.  --out writes the same
summary as JSON together with the machine and library versions, so that a
before/after pair can be compared from two files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PER_RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PER_RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["failures"] = {m.group(1): int(m.group(2)) for m in
                          (re.search(r"failures: (\w+) x (\d+)", ln) for ln in lines) if m}
    return result


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None, "values": values}
    return out


def provenance() -> dict:
    import numpy
    import scipy

    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    sys.path.insert(0, str(BENCH))
    from run import parse_args

    return {"default_seed": parse_args(["--workload", "cli"]).seed,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), "cpu_caches": caches}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default="ground,branch,cli")
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    report = {"seeds": seeds, "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance(), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in list(runs[-1]["metrics"].items())[:6]),
                flush=True)
        metrics = summarize(runs)
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "failures": runs[0]["failures"],
            "metrics": metrics,
        }
        for name, m in metrics.items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {workload} {name}: median {m['median']:.6g} {m['unit']} "
                  f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}] spread {spread}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
