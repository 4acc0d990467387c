"""camlat benchmark: a closed loop of fresh-process runs of one workload.

Run from the root of a camlat checkout:

    python3 perfbench/run.py --workload point_default --seed 1729 --seconds 30 --trace 0

One caller starts a run, waits for it to finish, and starts the next while
the next is expected to end within ``--seconds`` (at least one run). Every run is a new interpreter (``one_run.py``),
so set-up time and peak memory are measured per run. A few set-up-only
processes add samples for ``setup_s``. With ``--trace 0`` the last line of
standard output is a JSON object holding the end-to-end metrics, whose times
are in reference seconds (see ``refclock.py``); with
``--trace 1`` untraced and traced runs alternate and it holds the per-layer
metrics plus the tracing overhead. Metric names and units come from
BENCHMARK.json. Earlier lines give the run manifest and a readable table.

Any failed point (a sweep failure, an exception or a failed output check)
makes the result ``"correct": false`` and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from one_run import WORKLOADS, points_of
from refclock import INTERVAL_S, NOMINAL_SLICE_S

HERE = os.path.dirname(os.path.abspath(__file__))

DEFAULT_SEED = 1729
HELD_OUT_SEED = 2718  # a claimed gain must also hold here (choosing-metrics 6.3)
SETUP_SAMPLES = 5  # set-up-only processes per run, after one discarded warm-up
TIME_LIMIT_S = 170.0  # every run of this script ends within 180 s


class RunFailed(Exception):
    pass


def run_once(root: str, work_root: str, args, mode: str, index: int, started: float) -> dict:
    """Start one_run.py in a fresh interpreter, wait for it, and return its result."""
    work_dir = os.path.join(work_root, f"{mode}-{index}")
    os.makedirs(work_dir)
    cmd = [sys.executable, os.path.join(HERE, "one_run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--work-dir", work_dir]
    if args.replications:
        cmd += ["--replications", str(args.replications)]
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    # Its own session, so a run that overstays can be killed with its pool workers.
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=max(1.0, TIME_LIMIT_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed(f"{mode} run {index} did not finish within the time limit")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RunFailed(f"{mode} run {index} exited with {proc.returncode}:\n{stderr.decode()}")
    with open(os.path.join(work_dir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    expected = os.path.join(root, "src", "camlat", "__init__.py")
    if os.path.realpath(result["camlat_file"]) != os.path.realpath(expected):
        raise RunFailed(f"imported camlat from {result['camlat_file']}, not from {expected}")
    return result


def git_revision(root: str):
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def end_to_end(runs: list[dict], setups: list[dict], suffix: str) -> dict:
    """Medians over the runs; times in reference seconds (``suffix="_ref_s"``) or measured ("_s")."""
    return {
        "wall_s": statistics.median(r["wall" + suffix] for r in runs),
        "packets_per_s": statistics.median(r["packets"] / r["wall" + suffix] for r in runs),
        "cpu_s": statistics.median(r["cpu" + suffix] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "setup_s": statistics.median(s["setup" + suffix] for s in setups),
    }


def per_layer(runs: list[dict], traced: list[dict]) -> dict:
    layers = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                  - statistics.median(r["wall_s"] for r in runs))
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="camlat closed-loop benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replications", type=int,
                        help="shrink the workload (for the benchmark's own tests)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "camlat", "__init__.py")):
        print("error: run from the root of a camlat checkout (no src/camlat here)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    metric_units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}

    # On SIGTERM, unwind through the finally blocks that kill and reap the current run.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.monotonic()
    work_root = os.path.join(root, ".perfbench_work", str(os.getpid()))
    os.makedirs(work_root)
    runs, traced, setups, problems = [], [], [], []
    crashed = 0
    try:
        run_once(root, work_root, args, "setup", 0, started)  # warm-up: byte-compiles camlat
        for i in range(1, SETUP_SAMPLES + 1):
            setups.append(run_once(root, work_root, args, "setup", i, started))
        rounds = []  # a round is one run, or one untraced and one traced run
        while not rounds or time.monotonic() - started + statistics.median(rounds) <= args.seconds:
            begin = time.monotonic()
            runs.append(run_once(root, work_root, args, "run", len(runs), started))
            setups.append(runs[-1])
            if args.trace:
                traced.append(run_once(root, work_root, args, "traced", len(traced), started))
            rounds.append(time.monotonic() - begin)
    except RunFailed as exc:
        problems.append(str(exc))
        crashed = 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_root))
        except OSError:  # another run still uses it
            pass

    spec = WORKLOADS[args.workload]
    done = runs + traced
    attempted = points_of(spec) * max(1, len(done) + crashed)
    failed = sum(r["failed"] for r in done) + points_of(spec) * crashed
    for r in done:
        problems += r["problems"]
        if r["csv_sha256"] != done[0]["csv_sha256"]:
            failed += points_of(spec)
            problems.append(f"CSV digests differ between runs of seed {args.seed}")

    if problems:
        for problem in problems:
            print(f"FAILED: {problem}", file=sys.stderr)
        metrics = {}
    elif args.trace:
        metrics = per_layer(runs, traced)
    else:
        metrics = end_to_end(runs, setups, "_ref_s")
        measured = end_to_end(runs, setups, "_s")

    first = done[0] if done else {}
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "runs": len(runs),
        "run_walls_s": [round(r["wall_s"], 4) for r in runs],
        "run_host_speeds": [round(r["speed"], 4) for r in runs],
        "ref_clock": {"interval_s": INTERVAL_S, "nominal_slice_s": NOMINAL_SLICE_S},
        "traced_runs": len(traced),
        "setup_samples": len(setups),
        "shape": first.get("shape"),
        "packets_per_run": first.get("packets"),
        "cpu_count": os.cpu_count(),
        "versions": first.get("versions"),
        "git_revision": git_revision(root),
    }
    print("manifest " + json.dumps(manifest, sort_keys=True))
    for name, value in metrics.items():
        line = f"  {name:<28} {value:>16.6f} {metric_units.get(name, '')}"
        if not args.trace and name != "peak_rss_mb":
            line += f"  (measured {measured[name]:.6f})"
        print(line)
    if metrics and not args.trace:
        print(f"  {'host_speed':<28} {statistics.median(r['speed'] for r in runs):>16.6f} (median over runs)")
    print(f"  {'failed_ratio':<28} {failed / attempted:>16.6f} ({failed}/{attempted} points)")
    if args.trace and traced:
        children = traced[len(traced) // 2]["evaluate_children_s"]
        print("  children of engine.evaluate (s): "
              + ", ".join(f"{k} {v:.3f}" for k, v in sorted(children.items(), key=lambda kv: -kv[1])))

    missing = set(metric_units) - set(metrics)
    if metrics and missing:
        print(f"FAILED: metrics not computed: {sorted(missing)}", file=sys.stderr)
        failed = max(failed, 1)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in metric_units.items() if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
