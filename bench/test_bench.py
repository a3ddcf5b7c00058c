"""Self-test of the benchmark: each workload at tiny size, untraced and traced.

    python3 -m pytest bench/test_bench.py -q

Checks that every end-to-end (untraced) and per-layer (traced) metric named
in BENCHMARK.json is printed with its unit, that no op failed, and that the
command refuses to run without the package source.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "bench"))

from run import tail  # noqa: E402
from speed import MIN_SAMPLES, REFERENCE_S, SpeedClock  # noqa: E402
from workloads import irr_of  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def results():
    """(workload, trace) -> (completed process, parsed last line), run once."""
    out = {}
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            proc = run_bench(ROOT, w["name"], trace)
            assert proc.returncode == 0, proc.stderr
            out[w["name"], trace] = proc, json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(results, workload, trace):
    proc, result = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert "metric fail_ratio=0 1 " in proc.stdout
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    printed = {
        line[len("metric "):].partition("=")[0]: line
        for line in proc.stdout.splitlines() if line.startswith("metric ")
    }
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert printed[m["name"]].endswith(" " + m["unit"])
        if not trace:
            assert got["value"] > 0, m["name"]


def test_every_layer_metric_is_fed_by_some_workload(results):
    fed = {
        name
        for (_, trace), (_, result) in results.items() if trace
        for name, metric in result["metrics"].items() if metric["value"] != 0
    }
    assert {m["name"] for m in SPEC["per_layer"]} - fed == set()


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_irr_of_matches_pairwise_definition():
    rng = random.Random(3)
    for _ in range(50):
        degs = [rng.randrange(6) for _ in range(rng.randrange(1, 12))]
        pairwise = sum(abs(a - b) for a, b in itertools.combinations(degs, 2))
        assert irr_of(degs) == pairwise


def test_tail_keeps_ten_samples_beyond():
    value, pct = tail(list(range(1, 1001)))
    assert (value, pct) == (990, 99.0)
    assert tail([5, 1, 3]) == (5, 100.0)


def test_speed_clock_scales_by_nearby_samples_and_takes_their_time_out():
    clock = SpeedClock()
    # samples every 4 ms; the reference loop ran at half the reference speed until 1 s, then at it
    clock.starts = [0.002 + 0.004 * k for k in range(500)]
    clock.durations = [2 * REFERENCE_S if t < 1.0 else REFERENCE_S for t in clock.starts]
    # 0.2 to 0.3 s: 25 samples inside, all at half speed
    assert clock(0.2, 0.3) == pytest.approx((0.1 - 25 * 2 * REFERENCE_S) / 2)
    # 1.5 to 1.6 s: full speed
    assert clock(1.5, 1.6) == pytest.approx(0.1 - 25 * REFERENCE_S)
    # an interval far past the last sample still uses the nearest MIN_SAMPLES
    assert clock(10.0, 10.001) == pytest.approx(0.001)
    assert MIN_SAMPLES <= 25


def test_speed_clock_samples_while_started():
    clock = SpeedClock()
    clock.start()
    try:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.1:
            pass
        t1 = perf_counter()
    finally:
        clock.stop()
    assert len(clock.starts) >= 10
    assert 0 < clock(t0, t1) < 1
