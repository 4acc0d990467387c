"""The benchmark's tracer still finds every layer it patches.

``perfbench/tracer.py`` wraps module attributes of camlat (``engine.evaluate_period``,
``radio.nearest_member_indices``, ``channel.sample_snr_db``,
``scenario.advance_vehicles`` and others). A refactor that renames one of them,
or stops calling it through its module, would silently zero a layer. A short
traced run in a fresh interpreter, so the patches stay out of this process,
must still see every layer. The ``reproduce_w2`` workload also replaces
``cli.run_sweep`` and reads ``cli.DEFAULT_SWEEPS``: a CLI that stops calling
the one or renames the other fails here, not first in the benchmark. Its
output check (``one_run.py`` line 105) wants exactly the workload's CSVs in
the output directory, so a CLI that writes one more CSV, such as a side CSV
per sweep, fails every point of the workload, and fails here first.
"""

import json
import subprocess
import sys
from pathlib import Path

from camlat.config import plan_from_document
from camlat.rng import SubstreamFactory
from camlat.scenario import sample_scenario

ROOT = Path(__file__).resolve().parent.parent


def _traced_run(tmp_path, env, workload):
    """The result of a traced 2-replication run of ``workload`` at seed 1729."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "one_run.py"), "--workload", workload,
         "--seed", "1729", "--mode", "traced", "--replications", "2",
         "--work-dir", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    assert Path(result["camlat_file"]).resolve().is_relative_to(ROOT / "src")
    assert result["problems"] == []
    assert result["failed"] == 0
    return result


def test_traced_run_sees_every_patched_layer(tmp_path, src_env):
    layers = _traced_run(tmp_path, src_env, "point_default")["layers"]
    # 2 replications x 10 periods x 100 VRUs, cluster size 5
    assert layers["traffic.jobs"] == 2000
    assert layers["rng.streams"] == 14  # per replication: 2 lanes, VRUs, traffic, ul, dl, tn_cn
    assert layers["channel.links"] == 2 * 10 * (100 + 100 * 5)
    # both replications are evaluated as one block: one engine.replication span
    assert layers["latency.compose_calls"] == 1
    assert layers["engine.replication_samples"] == 1
    assert layers["radio.cluster_search_s"] > 0


def test_traced_dense_run_counts_the_sampled_vehicles(tmp_path, src_env):
    # The engine steps and ranks only the vehicles within reach of the VRUs
    # (about 150 of 540 here), but every vehicle is still sampled and counted.
    layers = _traced_run(tmp_path, src_env, "point_dense")["layers"]
    plan = plan_from_document({
        "scenario": {"vehicle_intensity_per_m": 0.09},
        "radio": {"cluster_size": 9},
        "engine": {"replications": 2, "master_seed": 1729},
    })
    streams = SubstreamFactory(plan.master_seed)
    sampled = [sample_scenario(plan.scenario, streams, rep) for rep in range(2)]
    assert min(scn.vehicle_count for scn in sampled) > 400
    assert layers["scenario.vehicles"] == sum(scn.vehicle_count for scn in sampled) / 2
    assert layers["rng.streams"] == 14
    assert layers["channel.links"] == 2 * 10 * (100 + 100 * 9)
    assert layers["radio.cluster_search_s"] > 0


def test_traced_reproduce_runs_the_cli_sweeps_on_one_pool(tmp_path, src_env):
    # The workload runs `camlat reproduce` on 2 workers and counts its rows
    # through the module attribute cli.run_sweep, over cli.DEFAULT_SWEEPS:
    # 15 points of 2 replications x 10 periods, 450 VRUs over the VRU sweep's
    # points and 100 at each of the other ten
    result = _traced_run(tmp_path, src_env, "reproduce_w2")
    assert result["packets"] == 2 * 10 * (450 + 10 * 100)
    assert result["layers"]["engine.pools_started"] == 1
