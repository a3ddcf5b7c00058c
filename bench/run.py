"""totirr benchmark: one command, three workloads, untraced and traced modes.

    python3 bench/run.py --workload edit-walk --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`, never from an installed copy. Pure standard library.

Untraced (`--trace 0`) prints the end-to-end metrics. It runs the workload's
`workers` worker processes (`bench/worker.py`) one after another, each with its own inputs and
an equal share of `--seconds`, and pools their rounds. Their times are at a
fixed reference speed (`bench/speed.py`), not raw wall time. Traced (`--trace 1`)
runs in this process on the inputs of worker 0 and prints the per-layer
metrics of `bench/tracing.py` plus the tracing overhead. The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines above it repeat
every metric with its unit, `fail_ratio`, the tail percentile and the
provenance. The exit code is 0 when every output checked correct, 1 when a
check failed and 2 when the package cannot be imported. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER_TIMEOUT_S = 150
TAIL_BEYOND = 10

sys.path.insert(0, str(BENCH_DIR))
from speed import REFERENCE_S, raw_clock  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import PACKAGE, SRC, direct, input_seed, load_package  # noqa: E402
from workloads import WORKLOADS, Timing  # noqa: E402


def tail(latencies):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    s = sorted(latencies)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0
    k = len(s) - TAIL_BEYOND  # 1-based rank; exactly TAIL_BEYOND samples rank above it
    return s[k - 1], 100.0 * k / len(s)


def commit_id():
    """HEAD of the checkout's .git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ")[0]
    except OSError:
        pass
    return "unknown"


def run_workers(args):
    """Untraced measurement: the workload's worker processes, one at a time.

    Returns (the workers' JSON outputs, rounds of each worker), or an exit
    code when a worker failed.
    """
    outs, rounds = [], []
    workers = WORKLOADS[args.workload].workers
    for worker in range(workers):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--worker", str(worker), "--seconds", str(args.seconds / workers), "--size", args.size],
            cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        out = json.loads(proc.stdout)
        outs.append(out)
        rounds.append([Timing(**r) for r in out.pop("rounds")])
    return outs, rounds


def run_traced(args):
    """Traced set-up, then alternating untraced and traced rounds in this process."""
    tot = load_package()
    tracer = Tracer(PACKAGE)
    workdir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    try:
        tracer.install()
        setup_begin = tracer.mark()
        workload = WORKLOADS[args.workload](tot, input_seed(args.seed, 0), args.size, workdir)
        setup_marks = (setup_begin, tracer.mark())
        tracer.uninstall()
        untraced, traced, round_marks = [], [], []
        start = perf_counter()
        while not traced or perf_counter() - start < args.seconds:
            gc.collect()
            untraced.append(workload.run_round(direct).timed(raw_clock))
            gc.collect()
            tracer.install()
            begin = tracer.mark()
            traced.append(workload.run_round(tracer.op).timed(raw_clock))
            round_marks.append((begin, tracer.mark()))
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return tracer, setup_marks, round_marks, untraced, traced


def pair_latencies(by_worker):
    """Each op's faster latency of a pair of rounds, for each pair a worker ran.

    A worker's rounds replay the same ops and come in pairs (bench/worker.py).
    Every estimate takes the minimum of exactly two, so it does not depend on
    how many rounds fitted in the run.
    """
    return [[min(a, b) for a, b in zip(first.latencies, second.latencies)]
            for rounds in by_worker for first, second in zip(rounds[::2], rounds[1::2])]


def e2e_metrics(outs, by_worker):
    """End-to-end values; each is a median over the rounds, pairs of rounds or workers of the run.

    wall_s and ops_per_s: the median over all rounds. op_p50_ms and
    op_tail_ms: per pair of rounds, each op's faster latency, then the
    statistic over the ops, then the median over all pairs. Set-up and
    memory are once per worker: the median over the workers.
    """
    rounds = [r for worker in by_worker for r in worker]
    ops = pair_latencies(by_worker)
    return {
        "setup_s": statistics.median(o["setup_s"] for o in outs),
        "wall_s": statistics.median(r.wall for r in rounds),
        "ops_per_s": statistics.median(len(r.latencies) / r.wall for r in rounds),
        "op_p50_ms": 1e3 * statistics.median(statistics.median(lat) for lat in ops),
        "op_tail_ms": 1e3 * statistics.median(tail(lat)[0] for lat in ops),
        "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in outs),
    }


def layer_metrics(names, tracer, setup_marks, round_marks, untraced, traced):
    """Per-layer values for one set-up plus one (mean) traced round.

    Returns the values by metric name and the self time of every span,
    the benchmark's own op spans included.
    """
    rounds = len(round_marks)
    totals = [tracer.totals(begin, end) for begin, end in round_marks]
    calls, self_s, counts = tracer.totals(*setup_marks)
    for table, index in ((calls, 0), (self_s, 1), (counts, 2)):
        for key in {k for t in totals for k in t[index]}:
            table[key] = table.get(key, 0) + sum(t[index].get(key, 0) for t in totals) / rounds
    untraced_wall = min(r.wall for r in untraced)
    traced_wall = min(r.wall for r in traced)
    branch_calls = calls.get("graphs.branch_component", 0)
    values = {
        "graphs.branch_component.hit_ratio":
            counts.get("graphs.branch_component.hits", 0) / branch_calls if branch_calls else 0.0,
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": sum(end[0] - begin[0] for begin, end in round_marks) / rounds,
    }
    for name in names:
        layer, _, stat = name.rpartition(".")
        if name in values or name in counts:
            values.setdefault(name, counts.get(name))
        elif stat == "calls":
            values[name] = calls.get(layer, 0)
        elif stat == "self_s":
            values[name] = self_s.get(layer, 0.0)
        else:
            values[name] = 0  # a counter that never fired
    return values, sum(self_s.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the benchmark's self-test")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.trace:
        try:
            tracer, setup_marks, round_marks, untraced, traced = run_traced(args)
        except ImportError as exc:
            print(f"bench: cannot import {PACKAGE} from {SRC}: {exc}", file=sys.stderr)
            return 2
        by_inputs = [untraced + traced]
    else:
        measured = run_workers(args)
        if isinstance(measured, int):
            return measured
        outs, by_inputs = measured
        untraced = [r for rounds in by_inputs for r in rounds]

    every = [r for rounds in by_inputs for r in rounds]
    attempted = sum(r.attempted for r in every)
    # rounds on the same inputs must give the same outputs; a round that does not failed as a whole
    differ = [r for rounds in by_inputs for r in rounds if r.digest != rounds[0].digest]
    failed = sum(r.failed for r in every) + sum(r.attempted - r.failed for r in differ)
    if differ:
        print(f"bench: {len(differ)} rounds gave other outputs than the first round on the same inputs",
              file=sys.stderr)

    ops = len(untraced[0].latencies)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"size={args.size} commit={commit_id()} python={platform.python_version()} "
          f"nproc={len(os.sched_getaffinity(0))} rounds={len(every)} ops_per_round={ops}")
    if args.trace:
        wanted = spec["per_layer"]
        values, total = layer_metrics([m["name"] for m in wanted], tracer, setup_marks, round_marks,
                                      untraced, traced)
        if tracer.missing:
            print(f"note layers not found: {' '.join(tracer.missing)}")
        spans_path = ROOT / ".bench_run" / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.csv.gz"
        spans_path.parent.mkdir(exist_ok=True)
        tracer.write(spans_path)
        print(f"note spans written to {spans_path.relative_to(ROOT)}")
        shares = sorted(((values[m["name"]], m["name"]) for m in wanted if m["name"].endswith(".self_s")),
                        reverse=True)
        print("note top self time: " + ", ".join(f"{k} {100 * v / total:.1f}%" for v, k in shares[:3])
              + " of all traced time, benchmark loop included")
    else:
        wanted = spec["end_to_end"]
        values = e2e_metrics(outs, by_inputs)
        print(f"note op_tail_ms is p{tail(untraced[0].latencies)[1]:.2f}: {min(TAIL_BEYOND, ops - 1)} of "
              f"the {ops} ops of a round lie beyond it, each op at the faster of a pair of rounds; "
              f"{len(untraced)} rounds from {len(by_inputs)} worker processes ({len(untraced) * ops} samples)")
        reference = statistics.median(o["reference_s"] for o in outs)
        print(f"note times are at reference speed: the reference loop took {1e6 * reference:.1f} us "
              f"(median sample), the metrics assume {1e6 * REFERENCE_S:g} us; raw wall clock medians: "
              f"setup_s={statistics.median(o['raw_setup_s'] for o in outs):.6g} s "
              f"wall_s={statistics.median(w for o in outs for w in o['raw_walls']):.6g} s")
    for m in wanted:
        print(f"metric {m['name']}={values[m['name']]:.6g} {m['unit']}")
    print(f"metric fail_ratio={failed / attempted:.6g} 1 ({failed} of {attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
