"""One worker process of the untraced benchmark: one set-up, then timed rounds.

    python3 bench/worker.py --workload edit-walk --seed 1 --worker 0 --seconds 3.3 --size full

`run.py` starts the workload's `workers` workers one after another and
pools what they measure. Effects that last for the life of one process, such
as where its memory lands, then average out instead of deciding a whole run.
Each worker draws its own inputs from (seed, worker), so a run also averages
over that many input sets. A worker prints one JSON object with its measurements,
and exits with code 2 when the package cannot be imported from `src/`.

Set-up and rounds are timed with the SpeedClock of bench/speed.py, which
reports durations at a fixed reference speed; the JSON also carries the raw
wall times.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import json
import os
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = "totirr"
SUBMODULES = ("graphs", "irregularity", "fileio", "generators", "rng", "partitions", "predictors",
              "transforms", "audit", "cli")

MAX_WORKERS = 12

sys.path.insert(0, str(BENCH_DIR))
from speed import SpeedClock, raw_clock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_package():
    """Import totirr and its modules from src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module(PACKAGE)
    for sub in SUBMODULES:
        importlib.import_module(f"{PACKAGE}.{sub}")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"{PACKAGE} imported from {pkg.__file__}, not from {SRC}")
    return pkg


def input_seed(seed: int, worker: int) -> int:
    """Seed of the inputs of one worker of a run."""
    return seed * MAX_WORKERS + worker


def direct(fn, *args):
    return fn(*args)


def run_rounds(workload, seconds):
    """Pairs of rounds while at least half of the next pair fits in `seconds`; at least one pair."""
    rounds = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        for _ in range(2):
            gc.collect()
            rounds.append(workload.run_round(direct))
        now = perf_counter()
        if now - start + (now - t0) / 2 > seconds:
            return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--worker", type=int, choices=range(MAX_WORKERS), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    workdir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    clock = SpeedClock()
    clock.start()
    try:
        t0 = perf_counter()
        try:
            tot = load_package()
        except ImportError as exc:
            print(f"bench: cannot import {PACKAGE} from {SRC}: {exc}", file=sys.stderr)
            return 2
        workload = WORKLOADS[args.workload](tot, input_seed(args.seed, args.worker), args.size, workdir)
        setup = (t0, perf_counter())
        rounds = run_rounds(workload, args.seconds)
    finally:
        clock.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "setup_s": clock(*setup),
        "raw_setup_s": raw_clock(*setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "reference_s": clock.median_sample(),
        "rounds": [dataclasses.asdict(r.timed(clock)) for r in rounds],
        "raw_walls": [r.timed(raw_clock).wall for r in rounds],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
