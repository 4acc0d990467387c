"""Tests of the benchmark itself.

Tiny versions of every workload must print every metric of BENCHMARK.json
with its unit, and the output check must reject corrupted results. Run
from the repository root:

    python3 -m pytest perfbench
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from camlat.config import plan_from_document  # noqa: E402
from camlat.experiments import SweepSpec, emit_csv, emit_plot, run_sweep  # noqa: E402
from one_run import WORKLOADS, check_outputs, check_stats  # noqa: E402
from refclock import INTERVAL_S, RefClock, window  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_names_the_implemented_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_workload_prints_every_metric_with_its_unit(workload, trace):
    done = run_bench("--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace), "--replications", "2")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert any(line.split()[:1] == ["failed_ratio"] for line in lines)
    manifest = json.loads(lines[0].removeprefix("manifest "))
    assert manifest["seed"] == 7 and manifest["shape"]["replications"] == 2
    assert manifest["packets_per_run"] > 0 and manifest["cpu_count"] >= 1


def test_reference_clock_interleaves_slices_with_work():
    clock = RefClock()
    before = clock.mark()
    clock.start()
    cpu0 = time.process_time()
    while time.process_time() - cpu0 < 10 * INTERVAL_S:
        sum(range(1000))
    clock.stop()
    stats = window(before, clock.mark())
    # start and stop each run one slice; the timer adds about one per interval
    assert stats["slices"] >= 6
    assert 0 < stats["slice_cpu_s"] and 0 < stats["slice_wall_s"]
    assert math.isfinite(stats["speed"]) and stats["speed"] > 0
    assert window(before, before)["slices"] == 0


def test_fails_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "point_default", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


@pytest.fixture(scope="module")
def tiny_point():
    plan = plan_from_document(
        {"scenario": {"vru_count": 20}, "engine": {"replications": 2, "periods": 2}}
    )
    result = run_sweep(SweepSpec("vru_count", (20,), plan))
    assert not result.failures
    return result


def corrupt(result, key, **fields):
    row = result.rows[0]
    stats = {**row.stats, key: dataclasses.replace(row.stats[key], **fields)}
    return dataclasses.replace(result, rows=(dataclasses.replace(row, stats=stats),))


def test_check_accepts_a_real_point(tiny_point):
    row = tiny_point.rows[0]
    assert check_stats(row.stats, row.gain_pct, (0.0, 100.0)) == []


def test_check_rejects_a_nan_mean(tiny_point):
    row = corrupt(tiny_point, "dl", mean_s=float("nan")).rows[0]
    assert any("dl mean" in p for p in check_stats(row.stats, row.gain_pct))


def test_check_rejects_a_broken_cloud_edge_identity(tiny_point):
    cloud = tiny_point.rows[0].stats["e2e_cloud"].mean_s
    row = corrupt(tiny_point, "e2e_cloud", mean_s=cloud * (1 + 1e-6)).rows[0]
    assert any("2*(bh + tn_cn)" in p for p in check_stats(row.stats, row.gain_pct))


def test_check_rejects_a_gain_outside_the_band(tiny_point):
    row = tiny_point.rows[0]
    assert check_stats(row.stats, row.gain_pct, (row.gain_pct + 1, 100.0))


def test_a_corrupted_point_counts_as_failed(tiny_point, tmp_path):
    spec = WORKLOADS["point_default"]
    emit_csv(tiny_point, os.path.join(tmp_path, "point.csv"))
    emit_plot(tiny_point, os.path.join(tmp_path, "point.svg"))
    failed, problems, digests = check_outputs({**spec, "gain_band_pct": None}, [tiny_point], tmp_path)
    assert (failed, problems) == (0, []) and set(digests) == {"point.csv"}

    bad = corrupt(tiny_point, "ul", mean_s=float("nan"))
    failed, problems, _ = check_outputs(spec, [bad], tmp_path)
    assert failed == 1 and problems


def test_missing_files_fail_every_point(tiny_point, tmp_path):
    spec = WORKLOADS["reproduce_w2"]
    failed, problems, _ = check_outputs(spec, [tiny_point], tmp_path)
    assert failed == 15 and problems
