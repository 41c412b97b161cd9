#!/usr/bin/env python3
"""Benchmark of spgs on three in-process workloads: ground, branch and cli.

Run from the repository root:

    python3 bench/run.py --workload ground --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one caller in this one process (see
bench/workloads.py).  Set-up (importing spgs, building the grids and the
nonlinearities, and on `branch` the ground states) is timed apart from the
timed rounds, which repeat until --seconds have passed.  Every result is
checked; a result that raises or misses a check is a failure.

--trace 0 prints the end-to-end metrics:
  results_per_s   certified results per reference second, median over the
                  timed rounds
  certified_frac  certified results / attempted results
  setup_s         median import time of three fresh interpreters plus the
                  median of three in-process set-ups, in reference seconds
  peak_rss_mb     ru_maxrss of this process
Times are in reference seconds (bench/clock.py): each case, import and set-up
is preceded by a short calibration loop whose speed rescales its wall time, so
that the drifting speed of a shared CPU cancels.  The wall-clock rate is
printed beside them.
--trace 1 installs bench/tracer.py around the spgs layers and prints the
per-layer metrics of one set-up plus one timed round.  It writes every span to
bench/out/<workload>-trace.jsonl and all per-function totals to
bench/out/<workload>-summary.json.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  `correct` is
false when a result the program returned fails its check; a typed exception
or a nonzero exit code is a failure but not a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# one BLAS thread, set before numpy is first imported: every kernel is O(n)
# vector work bound by per-call overhead, and one thread keeps timings steady
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from clock import speed_scale  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 3
END_TO_END = (("results_per_s", "1/s"), ("certified_frac", "fraction"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
# the import is timed in fresh interpreters: in-process it can happen once only
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import spgs, spgs.cli; "
                "print(time.perf_counter() - t)")


@dataclass
class Tally:
    attempted: int = 0
    certified: int = 0
    rates: list = field(default_factory=list)  # certified per reference second, per round
    wall_rates: list = field(default_factory=list)  # certified per wall second, per round
    wrong: list = field(default_factory=list)  # failed output checks
    errors: Counter = field(default_factory=Counter)  # exception type -> results

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.certified += other.certified
        self.wrong += other.wrong
        self.errors += other.errors


def import_spgs():
    """Import spgs from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import spgs
        import spgs.cli  # noqa: F401  (the cli workload and the tracer need it)
    except ImportError as exc:
        sys.exit(f"cannot import spgs from {src}: {exc}")
    if Path(spgs.__file__).resolve().parent != src / "spgs":
        sys.exit(f"spgs was imported from {spgs.__file__}, not from {src}")
    return spgs


def import_seconds() -> float:
    """Median time of `import spgs, spgs.cli` over SETUP_REPEATS interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        scale = speed_scale()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(proc.stdout) * scale)
    return statistics.median(times)


def run_round(workload, tally: Tally, tracer=None, index: int = 0) -> None:
    certified = 0
    wall = ref = 0.0
    for label, size, run in workload.round():
        if tracer is not None:
            tracer.begin_result(f"r{index}:{label}")
        scale = speed_scale()
        start = perf_counter()
        try:
            bad = run()
        except Exception as exc:  # a failed result, not a failed benchmark
            name = type(exc).__name__
            if name not in tally.errors:
                print(f"# {label}: {name}: {exc}", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            tally.errors[name] += size
            bad = None
        elapsed = perf_counter() - start
        wall += elapsed
        ref += elapsed * scale
        tally.attempted += size
        if bad is not None:
            tally.wrong += bad
            certified += size - len(bad)
    tally.certified += certified
    tally.rates.append(certified / ref)
    tally.wall_rates.append(certified / wall)


def measure(workload, seconds: float, tally: Tally, tracer=None) -> int:
    """Run whole rounds until `seconds` have passed; return the round count."""
    start = perf_counter()
    rounds = 0
    while True:
        run_round(workload, tally, tracer, rounds)
        rounds += 1
        if perf_counter() - start >= seconds:
            return rounds


def untraced(workload, import_s: float, seconds: float) -> tuple[Tally, dict]:
    setups = []
    for _ in range(SETUP_REPEATS):
        scale = speed_scale()
        start = perf_counter()
        workload.setup()
        setups.append((perf_counter() - start) * scale)
    tally = Tally()
    measure(workload, seconds, tally)
    metrics = {
        "results_per_s": statistics.median(tally.rates),
        "certified_frac": tally.certified / tally.attempted,
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return tally, {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}


def traced(workload, import_s: float, seconds: float) -> tuple[Tally, dict]:
    tracer = Tracer(workload.name)
    tracer.install()
    workload.setup()
    setup_counts = Counter(tracer.counters)
    tracer.uninstall()

    # one untraced round first: its rate is the base of the tracing overhead
    base = Tally()
    run_round(workload, base)
    tally = Tally()
    tracer.install()
    try:
        rounds = measure(workload, seconds, tally, tracer)
    finally:
        tracer.uninstall()
    report = tracer.per_layer(setup_counts, rounds, import_s,
                              traced_rate=statistics.median(tally.rates),
                              untraced_rate=base.rates[0])
    OUT.mkdir(exist_ok=True)
    tracer.write_jsonl(OUT / f"{workload.name}-trace.jsonl")
    (OUT / f"{workload.name}-summary.json").write_text(json.dumps(
        {"workload": workload.name, "timed_rounds": rounds, **report}, indent=1) + "\n")
    tally.merge(base)
    m = report["metrics"]
    return tally, {k: {"value": m[k], "unit": u} for k, u in PER_LAYER}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative (it seeds the verify config)")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    # the inputs come from the seed alone, never from SPGS_* overrides
    for var in [v for v in os.environ if v.startswith("SPGS_")]:
        del os.environ[var]

    args = parse_args(argv)
    spgs = import_spgs()
    import_s = import_seconds()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](spgs, args.seed, workdir)
        run = traced if args.trace else untraced
        tally, metrics = run(workload, import_s, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = tally.attempted - tally.certified
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} results_per_wall_s = "
          f"{statistics.median(tally.wall_rates):.6g} 1/s (wall clock)")
    print(f"{args.workload} failed_frac = {failed / tally.attempted:.6g} "
          f"({failed} of {tally.attempted})")
    for name, count in sorted(tally.errors.items()):
        print(f"{args.workload} failures: {name} x {count}")
    for msg in tally.wrong[:20]:
        print(f"{args.workload} wrong: {msg}")
    print(json.dumps({"correct": not tally.wrong, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
