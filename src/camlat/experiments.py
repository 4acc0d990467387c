"""Parameter sweeps and result artifacts (CSV tables, SVG bar charts).

The three canonical sweeps (``config.SWEEPS``) vary the VRU count, the
vehicle intensity, and the multicast cluster size around the default
operating point. Every sweep
row is simulated independently with the same master seed, so running one
value alone reproduces exactly that row of the full sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import engine
from .config import SWEEPS, SimulationPlan, override_parameter
from .errors import CamlatError, ConfigurationError
from .engine import COMPONENT_KEYS, AggregateStats

__all__ = [
    "SWEEPS",
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "run_sweep",
    "emit_csv",
    "emit_plot",
    "gain_pct",
]


CSV_HEADER = "parameter," + ",".join(
    f"{key}_ms,{key}_ci_ms" for key in COMPONENT_KEYS
) + ",gain_pct"


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: tuple
    base_plan: SimulationPlan

    def __post_init__(self):
        if self.parameter not in SWEEPS:
            raise ConfigurationError(
                f"unknown sweep parameter {self.parameter!r}; expected one of {tuple(SWEEPS)}"
            )
        if not self.values:
            raise ConfigurationError("sweep needs at least one value")
        # A NaN compares false with everything, so the order is checked
        # without it; the NaN point itself fails when it runs.
        comparable = [value for value in self.values if value == value]
        if any(b <= a for a, b in zip(comparable, comparable[1:])):
            raise ConfigurationError("sweep values must be strictly increasing")


@dataclass(frozen=True)
class SweepRow:
    value: float
    stats: dict[str, AggregateStats]
    gain_pct: float


@dataclass(frozen=True)
class SweepResult:
    parameter: str
    rows: tuple[SweepRow, ...]
    failures: tuple[tuple[float, str], ...] = ()


def gain_pct(stats: dict[str, AggregateStats]) -> float:
    """Edge-processing gain: the share of the mean cloud E2E latency saved, in %."""
    return 100.0 * (1.0 - stats["e2e_mec"].mean_s / stats["e2e_cloud"].mean_s)


def run_point(plan: SimulationPlan) -> dict[str, AggregateStats]:
    """Simulate one configuration and aggregate it."""
    return _aggregate(plan, engine.run_plan(plan))


def _aggregate(plan: SimulationPlan, moments) -> dict[str, AggregateStats]:
    return engine.aggregate(moments, plan.periods * plan.scenario.vru_count)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """One aggregated row per swept value; infeasible points are reported, not fatal.

    Every point's plan is built first and all of them are started at once
    (``engine.run_plans``), so a pool works through the whole sweep without
    waiting at a point boundary; rows and failures still come in value order.
    """
    points: list[tuple[float, SimulationPlan | CamlatError]] = []
    for value in spec.values:
        try:
            points.append((value, override_parameter(spec.base_plan, spec.parameter, value)))
        except CamlatError as exc:
            points.append((value, exc))
    plans = [plan for _, plan in points if isinstance(plan, SimulationPlan)]
    rows: list[SweepRow] = []
    failures: list[tuple[float, str]] = []
    with engine.pool(spec.base_plan.workers) as executor:  # one pool for every point
        runs = iter(engine.run_plans(plans, executor))
        for value, plan in points:
            try:
                if isinstance(plan, CamlatError):
                    raise plan
                stats = _aggregate(plan, next(runs)())
            except CamlatError as exc:
                failures.append((value, str(exc)))
                continue
            rows.append(SweepRow(value=value, stats=stats, gain_pct=gain_pct(stats)))
    return SweepResult(parameter=spec.parameter, rows=tuple(rows), failures=tuple(failures))


def _format_value(value) -> str:
    if float(value) == int(value):
        return str(int(value))
    return format(float(value), "g")


def csv_lines(result: SweepResult) -> list[str]:
    lines = [CSV_HEADER]
    for row in result.rows:
        cells = [_format_value(row.value)]
        for key in COMPONENT_KEYS:
            stats = row.stats[key]
            cells.append(f"{stats.mean_s * 1e3:.4f}")
            cells.append(f"{stats.ci95_half_width_s * 1e3:.4f}")
        cells.append(f"{row.gain_pct:.4f}")
        lines.append(",".join(cells))
    return lines


def _write(path: str, content: str, kind: str) -> None:
    """Write ``content`` as UTF-8 to ``path``; an OSError becomes a ``CamlatError``."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
    except OSError as exc:
        raise CamlatError(f"cannot write {kind} to {path!r}: {exc}") from exc


def emit_csv(result: SweepResult, path: str) -> None:
    """UTF-8 CSV: header plus one row per sweep value, 4-decimal milliseconds."""
    _write(path, "\n".join(csv_lines(result)) + "\n", "CSV")


# --- SVG bar charts ---------------------------------------------------------

_ARCH_SERIES = (("e2e_cloud", "#3465a4", "E2E cloud"), ("e2e_mec", "#cc0000", "E2E edge"))
_COMPONENT_SERIES = (
    ("ul", "#4e9a06", "UL"),
    ("bh", "#d433c4", "BH"),
    ("tn_cn", "#18a08c", "TN+CN"),
    ("dl", "#a0522d", "DL"),
    ("exc", "#c4a000", "Exc"),
)

_PANEL_W = 420.0
_PANEL_H = 300.0
_MARGIN_L = 64.0
_MARGIN_B = 58.0
_MARGIN_T = 34.0
_GAP = 46.0


def _nice_ceiling(x: float) -> float:
    if x <= 0:
        return 1.0
    mag = 10.0 ** math.floor(math.log10(x))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if x <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _panel(
    x0: float,
    title: str,
    xlabel: str,
    series: tuple,
    rows: tuple[SweepRow, ...],
    log_scale: bool,
) -> list[str]:
    inner_w = _PANEL_W - _MARGIN_L - 12.0
    inner_h = _PANEL_H - _MARGIN_T - _MARGIN_B
    top = _MARGIN_T
    bottom = _MARGIN_T + inner_h
    left = x0 + _MARGIN_L

    data = [[row.stats[key].mean_s * 1e3 for key, _, _ in series] for row in rows]
    flat = [v for group in data for v in group]
    vmax = max(flat) if flat else 1.0
    if log_scale:
        # The lower decade comes from the positive means; a zero bar has height 0.
        vmin = min(v for v in flat if v > 0)
        lo_exp = math.floor(math.log10(vmin))
        hi_exp = math.ceil(math.log10(vmax))
        if hi_exp == lo_exp:
            hi_exp += 1
        span = hi_exp - lo_exp

        def bar_h(v: float) -> float:
            return inner_h * (math.log10(v) - lo_exp) / span if v > 0 else 0.0

        ticks = [(10.0 ** e, f"1e{e}") for e in range(lo_exp, hi_exp + 1)]
    else:
        ceiling = _nice_ceiling(vmax * 1.05)

        def bar_h(v: float) -> float:
            return inner_h * v / ceiling

        ticks = [(ceiling * i / 5.0, f"{ceiling * i / 5.0:g}") for i in range(6)]

    scale = "log" if log_scale else "linear"
    out = [f'<g id="{title}" data-scale="{scale}">']
    out.append(
        f'<text x="{x0 + _PANEL_W / 2:.1f}" y="18" text-anchor="middle" '
        f'font-size="13" font-weight="bold">{xlabel}</text>'
    )
    # axes and ticks
    out.append(
        f'<line x1="{left:.1f}" y1="{top:.1f}" x2="{left:.1f}" y2="{bottom:.1f}" '
        'stroke="#333" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{left:.1f}" y1="{bottom:.1f}" x2="{left + inner_w:.1f}" y2="{bottom:.1f}" '
        'stroke="#333" stroke-width="1"/>'
    )
    for tick_value, label in ticks:
        y = bottom - (bar_h(tick_value) if tick_value > 0 else 0.0)
        out.append(
            f'<line x1="{left:.1f}" y1="{y:.1f}" x2="{left + inner_w:.1f}" y2="{y:.1f}" '
            'stroke="#ddd" stroke-width="0.5"/>'
        )
        out.append(
            f'<text x="{left - 6:.1f}" y="{y + 4:.1f}" text-anchor="end" font-size="10">{label}</text>'
        )
    out.append(
        f'<text x="{x0 + 16:.1f}" y="{(top + bottom) / 2:.1f}" text-anchor="middle" font-size="11" '
        f'transform="rotate(-90 {x0 + 16:.1f} {(top + bottom) / 2:.1f})">Avg latency [ms]</text>'
    )
    # grouped bars
    n_groups = len(rows)
    n_series = len(series)
    group_w = inner_w / max(n_groups, 1)
    bar_w = group_w * 0.8 / n_series
    for gi, (row, group) in enumerate(zip(rows, data)):
        gx = left + gi * group_w + group_w * 0.1
        for si, ((key, color, _), value) in enumerate(zip(series, group)):
            h = bar_h(value)
            out.append(
                f'<rect class="bar {key}" x="{gx + si * bar_w:.2f}" y="{bottom - h:.2f}" '
                f'width="{bar_w:.2f}" height="{h:.2f}" fill="{color}"/>'
            )
        out.append(
            f'<text x="{gx + group_w * 0.4:.1f}" y="{bottom + 14:.1f}" text-anchor="middle" '
            f'font-size="10">{_format_value(row.value)}</text>'
        )
    # legend
    lx = left
    ly = bottom + 30
    for key, color, label in series:
        out.append(f'<rect x="{lx:.1f}" y="{ly - 9:.1f}" width="10" height="10" fill="{color}"/>')
        out.append(f'<text x="{lx + 14:.1f}" y="{ly:.1f}" font-size="10">{label}</text>')
        lx += 14 + 8 * len(label) + 18
    out.append("</g>")
    return out


def render_svg(result: SweepResult) -> str:
    """Two-panel grouped bar chart: architecture totals and component breakdown."""
    rows = result.rows
    component_ms = [
        row.stats[key].mean_s * 1e3 for row in rows for key, _, _ in _COMPONENT_SERIES
    ]
    # The scale is chosen from the positive means: a zero mean has no decade.
    positive_ms = [ms for ms in component_ms if ms > 0]
    spans_decades = bool(positive_ms) and max(positive_ms) / min(positive_ms) > 20.0
    width = 2 * _PANEL_W + _GAP
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{_PANEL_H:.0f}" '
        f'viewBox="0 0 {width:.0f} {_PANEL_H:.0f}" font-family="sans-serif">',
        '<rect x="0" y="0" width="100%" height="100%" fill="white"/>',
    ]
    parts += _panel(0.0, "panel-a", result.parameter, _ARCH_SERIES, rows, False)
    parts += _panel(
        _PANEL_W + _GAP, "panel-b", result.parameter, _COMPONENT_SERIES, rows, spans_decades
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plot(result: SweepResult, path: str) -> None:
    """Self-contained SVG; byte-deterministic for a fixed result."""
    _write(path, render_svg(result), "plot")
