"""Command-line interface.

Subcommands map onto the three canonical experiments plus a single-point
run; ``reproduce`` executes all three sweeps and writes their CSV tables
and SVG charts. ``main`` checks the config and every sweep's values before
it creates the output directory. With ``--workers N > 1`` one process pool
serves all the sweeps of a command and is shut down before ``main``
returns; each sweep queues all of its points' blocks on it at once.

Exit codes: 0 success, 1 config error, 2 runtime error. A sweep point that
fails is not fatal: its failure goes to stderr, the rows that succeeded are
still written, and the exit code is 2.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import engine
from .config import DEFAULT_PROFILE, PROFILES, load_config
from .engine import COMPONENT_KEYS
from .errors import CamlatError, ConfigurationError
from .experiments import (
    SWEEPS,
    SweepResult,
    SweepSpec,
    emit_csv,
    emit_plot,
    gain_pct,
    run_point,
    run_sweep,
)

DEFAULT_SWEEPS = {parameter: sweep.values for parameter, sweep in SWEEPS.items()}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="camlat",
        description="Monte-Carlo latency comparison: edge-hosted vs distant-cloud "
        "processing of periodic road-user awareness messages.",
    )
    parser.add_argument("--config", help="JSON config document (defaults apply when omitted)")
    parser.add_argument("--seed", type=int, help="override engine.master_seed")
    parser.add_argument("--replications", type=int, help="override engine.replications")
    parser.add_argument("--workers", type=int, help="override engine.workers")
    parser.add_argument("--profile", choices=sorted(PROFILES), help=f"parameter profile (default {DEFAULT_PROFILE})")
    parser.add_argument("--out-dir", default="results", help="directory for CSV/SVG outputs")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", help="simulate the configured single operating point")
    for parameter, sweep in SWEEPS.items():
        p = sub.add_parser(sweep.command, help=f"sweep {parameter}")
        p.set_defaults(parameter=parameter)
        p.add_argument(
            "--values",
            help="comma-separated sweep values (default: "
            + ",".join(str(v) for v in sweep.values)
            + ")",
        )
    sub.add_parser("reproduce", help="run all three sweeps and emit tables and charts")
    return parser


def _parse_values(text: str, parameter: str) -> tuple:
    caster = type(SWEEPS[parameter].values[0])
    try:
        return tuple(caster(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigurationError(f"invalid --values {text!r}: {exc}") from exc


def _print_rows(result: SweepResult) -> None:
    for row in result.rows:
        cloud = row.stats["e2e_cloud"].mean_s * 1e3
        mec = row.stats["e2e_mec"].mean_s * 1e3
        print(
            f"  {result.parameter}={row.value:g}: cloud {cloud:8.2f} ms | "
            f"edge {mec:7.2f} ms | gain {row.gain_pct:5.1f} %"
        )
    for value, message in result.failures:
        print(f"  {result.parameter}={value:g}: FAILED ({message})", file=sys.stderr)


def _run_point_command(plan) -> None:
    stats = run_point(plan)
    print(f"single point (N={plan.scenario.vru_count} VRUs, seed {plan.master_seed}):")
    for key in COMPONENT_KEYS:
        s = stats[key]
        print(
            f"  {key:>9}: {s.mean_s * 1e3:9.3f} ms "
            f"(+/- {s.ci95_half_width_s * 1e3:.3f} ms, n={s.sample_count})"
        )
    print(f"  edge-processing gain: {gain_pct(stats):.1f} %")


def _run_sweep_command(spec: SweepSpec, out_dir: str) -> SweepResult:
    result = run_sweep(spec)
    base = os.path.join(out_dir, SWEEPS[spec.parameter].basename)
    emit_csv(result, base + ".csv")
    emit_plot(result, base + ".svg")
    print(f"{spec.parameter} sweep -> {base}.csv, {base}.svg")
    _print_rows(result)
    return result


def _make_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise CamlatError(f"cannot create output directory {path!r}: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        plan = load_config(
            args.config,
            profile=args.profile,
            seed=args.seed,
            replications=args.replications,
            workers=args.workers,
        )
        if args.command == "run":
            _run_point_command(plan)
            return 0
        if args.command == "reproduce":
            sweeps = DEFAULT_SWEEPS.items()
        elif args.values is None:
            sweeps = [(args.parameter, DEFAULT_SWEEPS[args.parameter])]
        else:
            sweeps = [(args.parameter, _parse_values(args.values, args.parameter))]
        # Every sweep is checked before the output directory is created.
        specs = [SweepSpec(parameter, values, plan) for parameter, values in sweeps]
        _make_out_dir(args.out_dir)
        with engine.pool(plan.workers):  # one pool for every sweep
            results = [_run_sweep_command(spec, args.out_dir) for spec in specs]
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except CamlatError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 2 if any(result.failures for result in results) else 0


if __name__ == "__main__":
    raise SystemExit(main())
