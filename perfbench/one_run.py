"""One benchmark run in a fresh interpreter: set up, run a workload, check its outputs.

``run.py`` starts this script once per run so that set-up time and peak
memory are those of a new process:

    python3 perfbench/one_run.py --workload point_default --seed 1729 \\
        --mode run --work-dir DIR

``--mode setup`` stops after set-up, ``--mode traced`` wraps camlat's
layers (see ``tracer.py``) before the plan is built. Untraced modes run the
reference clock (see ``refclock.py``) from the start, so set-up and the run
are also given in reference seconds. The script writes one JSON object to
``DIR/result.json``; camlat itself only ever sees the plan.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
import traceback

from refclock import RefClock, window

PROFILE = "figure-calibrated"
DEFAULT_POINT = {"vru_count": 100, "vehicle_intensity": 0.01, "cluster_size": 5}

# "outputs" maps each CSV the workload writes to its expected row count;
# every CSV has an SVG beside it, and each row is one attempted point.
WORKLOADS = {
    "point_default": {
        "point": DEFAULT_POINT,
        "replications": 200,
        "workers": 1,
        "outputs": {"point.csv": 1},
        "gain_band_pct": (61.0, 85.0),
    },
    "point_dense": {
        "point": {**DEFAULT_POINT, "vehicle_intensity": 0.09, "cluster_size": 9},
        "replications": 200,
        "workers": 1,
        "outputs": {"point.csv": 1},
        "gain_band_pct": None,
    },
    "reproduce_w2": {
        "point": DEFAULT_POINT,
        "replications": 20,
        "workers": 2,
        "outputs": {"vru_sweep.csv": 5, "density_sweep.csv": 5, "cluster_sweep.csv": 5},
        "gain_band_pct": None,
    },
}

COMPONENTS = ("ul", "bh", "tn_cn", "exc", "dl", "e2e_cloud", "e2e_mec")
IDENTITY_RTOL = 1e-9


def points_of(spec: dict) -> int:
    return sum(spec["outputs"].values())


def check_stats(stats, gain_pct: float, gain_band_pct=None) -> list[str]:
    """Problems with one aggregated point; an empty list means it passed.

    Every component mean must be finite and positive, the mean cloud-minus-edge
    gap must equal 2 * (backhaul + transport/core), and the edge gain must lie
    in ``gain_band_pct`` when one is given.
    """
    problems = []
    means = {key: stats[key].mean_s for key in COMPONENTS}
    for key, mean in means.items():
        if not (math.isfinite(mean) and mean > 0):
            problems.append(f"{key} mean {mean!r} is not finite and positive")
    gap = means["e2e_cloud"] - means["e2e_mec"]
    expected = 2.0 * (means["bh"] + means["tn_cn"])
    if not abs(gap - expected) <= IDENTITY_RTOL * abs(expected):
        problems.append(f"e2e_cloud - e2e_mec = {gap!r}, expected 2*(bh + tn_cn) = {expected!r}")
    if gain_band_pct is not None:
        low, high = gain_band_pct
        if not low <= gain_pct <= high:
            problems.append(f"gain {gain_pct!r} % outside [{low}, {high}] %")
    return problems


def check_outputs(spec: dict, results: list, out_dir: str) -> tuple[int, list[str], dict]:
    """Failed points, problems and CSV digests of one run's sweep results and files."""
    problems = []
    failed = 0
    for result in results:
        failed += len(result.failures)
        problems += [f"{result.parameter}={value}: {message}" for value, message in result.failures]
        for row in result.rows:
            row_problems = check_stats(row.stats, row.gain_pct, spec["gain_band_pct"])
            failed += bool(row_problems)
            problems += [f"{result.parameter}={row.value}: {p}" for p in row_problems]

    digests = {}
    file_problems = []
    if sorted(name for name in os.listdir(out_dir) if name.endswith(".csv")) != sorted(spec["outputs"]):
        file_problems.append(f"CSV files {sorted(os.listdir(out_dir))} != {sorted(spec['outputs'])}")
    for name, rows in spec["outputs"].items():
        try:
            with open(os.path.join(out_dir, name), "rb") as fh:
                data = fh.read()
            with open(os.path.join(out_dir, name[:-4] + ".svg"), "rb") as fh:
                svg = fh.read()
        except OSError as exc:
            file_problems.append(str(exc))
            continue
        digests[name] = hashlib.sha256(data).hexdigest()
        if len(data.decode("utf-8").splitlines()) != rows + 1:
            file_problems.append(f"{name} has not {rows} rows plus a header")
        if not svg.startswith(b"<svg") or not svg.rstrip().endswith(b"</svg>"):
            file_problems.append(f"{name[:-4]}.svg is not an SVG document")
    if file_problems:
        failed = points_of(spec)
    return failed, problems + file_problems, digests


def build_plan(spec: dict, seed: int, replications: int):
    from camlat import config

    plan = config.load_config(
        profile=PROFILE, seed=seed, replications=replications, workers=spec["workers"]
    )
    for parameter, value in spec["point"].items():
        plan = config.override_parameter(plan, parameter, value)
    return plan


def run_workload(workload: str, plan, out_dir: str) -> list:
    """The workload's sweep results; its CSV and SVG files land in ``out_dir``."""
    from camlat import cli, experiments

    if workload == "reproduce_w2":
        results = []
        run_sweep = cli.run_sweep

        def keep(spec):
            results.append(run_sweep(spec))
            return results[-1]

        cli.run_sweep = keep
        argv = ["--seed", str(plan.master_seed), "--replications", str(plan.replications),
                "--workers", str(plan.workers), "--out-dir", out_dir, "reproduce"]
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"camlat {' '.join(argv)} exited with {code}")
        return results
    # A point is a one-value sweep, as `camlat sweep-vru --values 100` runs it.
    spec = experiments.SweepSpec("vru_count", (plan.scenario.vru_count,), plan)
    result = experiments.run_sweep(spec)
    experiments.emit_csv(result, os.path.join(out_dir, "point.csv"))
    experiments.emit_plot(result, os.path.join(out_dir, "point.svg"))
    return [result]


def shape_of(plan, workload: str) -> dict:
    from camlat import cli

    shape = {
        "profile": PROFILE,
        "replications": plan.replications,
        "periods": plan.periods,
        "vru_count": plan.scenario.vru_count,
        "vehicle_intensity_per_m": plan.scenario.hardcore.intensity_per_m,
        "cluster_size": plan.radio.cluster_size,
        "workers": plan.workers,
    }
    if workload == "reproduce_w2":
        shape["sweeps"] = {name: list(values) for name, values in cli.DEFAULT_SWEEPS.items()}
    return shape


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "traced"))
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--replications", type=int)
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    replications = args.replications or spec["replications"]

    tracer = None
    clock = None if args.mode == "traced" else RefClock()
    mark = clock.mark() if clock else None
    start = time.perf_counter()
    if clock:
        clock.start()
    import camlat.cli  # noqa: F401  (set-up cost: camlat, numpy and the CLI)

    imported = time.perf_counter()
    if args.mode == "traced":
        from tracer import Tracer

        spill_dir = os.path.join(args.work_dir, "spans")
        os.makedirs(spill_dir, exist_ok=True)
        tracer = Tracer(spill_dir)
        tracer.install()
    planning = time.perf_counter()
    plan = build_plan(spec, args.seed, replications)
    setup_s = (imported - start) + (time.perf_counter() - planning)

    out = {"setup_s": setup_s, "camlat_file": camlat.__file__}
    if clock:
        setup = window(mark, clock.mark())
        out.update(setup_s=setup_s - setup["slice_wall_s"],
                   setup_ref_s=(setup_s - setup["slice_wall_s"]) / setup["speed"])
    if args.mode == "setup":
        clock.stop()
    else:
        import numpy

        out_dir = os.path.join(args.work_dir, "out")
        os.makedirs(out_dir)
        self0 = resource.getrusage(resource.RUSAGE_SELF)
        kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        mark = clock.mark() if clock else None
        begin = time.perf_counter()
        try:
            results = run_workload(args.workload, plan, out_dir)
            error = None
        except Exception:  # a raising point counts as failed, not as a crash
            results, error = [], traceback.format_exc()
        if clock:
            clock.stop()
        wall_s = time.perf_counter() - begin
        self1 = resource.getrusage(resource.RUSAGE_SELF)
        kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

        if error is None:
            failed, problems, digests = check_outputs(spec, results, out_dir)
        else:
            failed, problems, digests = points_of(spec), [error], {}
        cpu_s = (sum(getattr(self1, f) - getattr(self0, f) for f in ("ru_utime", "ru_stime"))
                 + sum(getattr(kids1, f) - getattr(kids0, f) for f in ("ru_utime", "ru_stime")))
        if clock:
            run = window(mark, clock.mark())
            wall_s -= run["slice_wall_s"]
            cpu_s -= run["slice_cpu_s"]
            out.update(wall_ref_s=wall_s / run["speed"], cpu_ref_s=cpu_s / run["speed"],
                       speed=run["speed"], slices=run["slices"])
        out.update(
            wall_s=wall_s,
            cpu_s=cpu_s,
            # ru_maxrss is in KiB on Linux; the children's figure is the largest child's.
            peak_rss_mb=max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
            packets=sum(row.stats["e2e_cloud"].sample_count for r in results for row in r.rows),
            failed=failed,
            problems=problems,
            csv_sha256=digests,
            shape=shape_of(plan, args.workload),
            versions={"python": platform.python_version(), "numpy": numpy.__version__},
        )
        if tracer is not None:
            from tracer import evaluate_children_s, layer_metrics

            spans = tracer.collect()
            out["layers"] = layer_metrics(spans)
            out["evaluate_children_s"] = evaluate_children_s(spans)

    with open(os.path.join(args.work_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
