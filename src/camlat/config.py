"""Simulation plan, defaults, profiles, config-document handling, and the sweeps.

The config document is JSON with sections scenario / traffic / channel /
radio / network / engine, written in everyday units (km, km/h, kbits,
Mbps, Gcycles/s, ms). This module converts them once into the SI units
(m, s, bits, Hz, cycles/s) used everywhere internally.

Two named profiles preset the knobs that are deliberate calibration
choices rather than physical inputs:

    figure-calibrated  transport+core one-way delay U(35, 55) ms and a
                       downlink calibration loss margin; tuned so sweep
                       outputs land on the reference evaluation of this
                       scenario family (the default)
    table-literal      parameter-table values applied literally:
                       U(15, 35) ms and no downlink margin

Explicit fields in the document always override the profile presets.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Any, NamedTuple

from .channel import PATHLOSS_MODELS, ChannelParams
from .errors import ConfigurationError
from .latency import NetworkParams
from .radio import RadioParams
from .scenario import KMH_TO_MS, ScenarioParams
from .traffic import TrafficParams

PROFILES = {
    "figure-calibrated": {
        "network.tn_cn_one_way_ms": (35.0, 55.0),
        "channel.dl_calibration_loss_db": 90.0,
    },
    "table-literal": {
        "network.tn_cn_one_way_ms": (15.0, 35.0),
        "channel.dl_calibration_loss_db": 0.0,
    },
}
DEFAULT_PROFILE = "figure-calibrated"


@dataclass(frozen=True)
class SimulationPlan:
    """Fully-resolved inputs of one Monte-Carlo run, in SI units.

    The plan and its parts are plain records, one per document section,
    whose fields keep the document's names wherever the unit stays the same:
    ``plan_from_document`` is where the defaults and the rules live. Build a
    variant from ``default_plan()`` with ``dataclasses.replace``.
    """

    scenario: ScenarioParams
    traffic: TrafficParams
    channel: ChannelParams
    radio: RadioParams
    network: NetworkParams
    master_seed: int
    replications: int
    periods: int
    workers: int


# The most vehicles a lane may hold on average, intensity * length: a bound on
# what one replication samples. The default road holds 30, the densest
# feasible one (0.1 /m, 10 m apart) on the default 3 km holds 300.
MAX_VEHICLES_PER_LANE = 100_000

# The most offset bins a period may have: numpy draws bins below 2**63, and
# the engine counts each period's bins in a table of one slot per bin.
MAX_OFFSET_BINS = 100_000

_POSITIVE = {"positive": True}
_NON_NEGATIVE = {"minimum": 0.0}
_AT_LEAST_ONE = {"minimum": 1}

# Section -> field -> (default in document units, validation rule). The
# default's type picks the check: bool -> true/false, tuple -> [low, high]
# pair, str -> one of the rule's options, int -> integer, float -> number.
_FIELDS: dict[str, dict[str, tuple[Any, dict]]] = {
    "scenario": {
        "lane_length_km": (3.0, _POSITIVE),
        "lane_width_m": (4.0, _POSITIVE),
        "vehicle_intensity_per_m": (0.01, _POSITIVE),
        "inter_vehicle_distance_m": (10.0, _NON_NEGATIVE),
        "speed_kmh": ((70.0, 140.0), _POSITIVE),
        "vru_count": (100, _AT_LEAST_ONE),
        "vru_strip_m": ((1200.0, 1800.0), {"strict": True}),
        "enb_position_m": ((1500.0, 10.0), {"ordered": False}),
        "mobility": (True, {}),
    },
    "traffic": {
        "period_ms": (100.0, _POSITIVE),
        "offset_bins": (5, {"minimum": 1, "maximum": MAX_OFFSET_BINS}),
        "packet_kbits": ((8.0, 12.0), _POSITIVE),
        "compute_cycles_per_bit": ((100.0, 300.0), _NON_NEGATIVE),
    },
    "channel": {
        "ul_tx_power_dbm": (23.0, {}),
        "dl_tx_power_dbm": (46.0, {}),
        "frequency_ghz": (5.9, _POSITIVE),
        "enb_height_m": (10.0, _POSITIVE),
        "vru_height_m": (1.5, _POSITIVE),
        "vehicle_height_m": (1.5, _POSITIVE),
        "shadowing_std_db": (3.0, _NON_NEGATIVE),
        "fast_fading_std_db": (4.0, _NON_NEGATIVE),
        "thermal_noise_dbm": (-110.0, {}),
        "additional_losses_db": (15.0, _NON_NEGATIVE),
        "dl_calibration_loss_db": (0.0, _NON_NEGATIVE),
        "pathloss_model": ("winner-plus", {"options": PATHLOSS_MODELS}),
        "pathloss_exponent": (3.0, _POSITIVE),
        "log_distance_offset_db": (47.86, {}),
    },
    "radio": {
        "bandwidth_mhz": (9.0, _POSITIVE),
        "prb_bandwidth_khz": (180.0, _POSITIVE),
        "cluster_size": (5, _AT_LEAST_ONE),
    },
    "network": {
        "backhaul_mbps": (10.0, _POSITIVE),
        "server_gcycles_per_s": (9.0, _POSITIVE),
        "tn_cn_one_way_ms": ((15.0, 35.0), _NON_NEGATIVE),
    },
    "engine": {
        "master_seed": (1729, {"minimum": 0}),
        "replications": (200, _AT_LEAST_ONE),
        "periods": (10, _AT_LEAST_ONE),
        "workers": (1, _AT_LEAST_ONE),
    },
}


def default_document(profile: str = DEFAULT_PROFILE) -> dict[str, dict[str, Any]]:
    """The full config document a profile implies, before any user overrides."""
    doc = {
        section: {key: default for key, (default, _) in fields.items()}
        for section, fields in _FIELDS.items()
    }
    for dotted, value in PROFILES[profile].items():
        section, key = dotted.split(".")
        doc[section][key] = value
    return doc


def _is_number(value) -> bool:
    """A real number, such as a JSON int or float or a numpy sweep value, but not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _to_float(value) -> float:
    """``float(value)``, reading an integer beyond the float range as an infinity."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


class _Validator:
    """Collects every violation with its field path before giving up."""

    def __init__(self):
        self.errors: list[str] = []

    def fail(self, path: str, message: str):
        self.errors.append(f"{path}: {message}")

    def field(self, path: str, value, default, rule: dict):
        """Check one document value by the kind of its default; None if invalid."""
        if isinstance(default, bool):
            return self.boolean(path, value)
        if isinstance(default, tuple):
            return self.pair(path, value, **rule)
        if isinstance(default, str):
            return self.choice(path, value, **rule)
        return self.number(path, value, integer=isinstance(default, int), **rule)

    def number(self, path, value, *, minimum=None, maximum=None, positive=False, integer=False):
        if not _is_number(value):
            self.fail(path, f"expected a number, got {value!r}")
            return None
        number = _to_float(value)
        if not math.isfinite(number):
            self.fail(path, f"must be finite, got {number!r}")
            return None
        if integer and int(value) != value:
            self.fail(path, f"expected an integer, got {value!r}")
            return None
        if positive and value <= 0:
            self.fail(path, f"must be positive, got {value!r}")
            return None
        if minimum is not None and value < minimum:
            self.fail(path, f"must be >= {minimum}, got {value!r}")
            return None
        if maximum is not None and value > maximum:
            self.fail(path, f"must be <= {maximum}, got {value!r}")
            return None
        return int(value) if integer else number

    def pair(self, path, value, *, minimum=None, positive=False, ordered=True, strict=False):
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            self.fail(path, f"expected a [low, high] pair, got {value!r}")
            return None
        if not all(_is_number(bound) for bound in value):
            self.fail(path, f"expected numeric bounds, got {value!r}")
            return None
        lo, hi = _to_float(value[0]), _to_float(value[1])
        if not (math.isfinite(lo) and math.isfinite(hi)):
            self.fail(path, f"bounds must be finite, got {[lo, hi]!r}")
            return None
        if minimum is not None and lo < minimum:
            self.fail(path, f"lower bound must be >= {minimum}, got {lo!r}")
            return None
        if positive and lo <= 0:
            self.fail(path, f"lower bound must be positive, got {lo!r}")
            return None
        if ordered and (lo > hi or (strict and lo >= hi)):
            op = "<" if strict else "<="
            self.fail(path, f"bounds must satisfy low {op} high, got {value!r}")
            return None
        return lo, hi

    def boolean(self, path, value):
        if not isinstance(value, bool):
            self.fail(path, f"expected true/false, got {value!r}")
            return None
        return value

    def choice(self, path, value, *, options):
        if value not in options:
            self.fail(path, f"expected one of {sorted(options)}, got {value!r}")
            return None
        return value


def _check_density(v: _Validator, intensity, min_gap, road_m) -> None:
    """The vehicle process's rules; each is skipped if a field it reads is invalid.

    The hard-core process needs intensity * minimum gap < 1, and a lane holds
    intensity * length <= ``MAX_VEHICLES_PER_LANE`` vehicles on average.
    """
    if intensity is not None and min_gap is not None and intensity * min_gap >= 1.0:
        v.fail(
            "scenario.vehicle_intensity_per_m",
            f"infeasible density: intensity * inter_vehicle_distance must be < 1 "
            f"(got {intensity} * {min_gap})",
        )
    if road_m is None:
        return
    if not math.isfinite(road_m):
        v.fail("scenario.lane_length_km", f"must be finite in metres, got {road_m!r} m")
    elif intensity is not None and intensity * road_m > MAX_VEHICLES_PER_LANE:
        v.fail(
            "scenario.lane_length_km",
            f"expected vehicles per lane, intensity * length, must be <= "
            f"{MAX_VEHICLES_PER_LANE} (got {intensity} * {road_m} m)",
        )


def _merge_document(user: dict, validator: _Validator) -> dict:
    profile = user.get("profile", DEFAULT_PROFILE)
    if validator.choice("profile", profile, options=tuple(PROFILES)) is None:
        profile = DEFAULT_PROFILE
    doc = default_document(profile)
    for section, fields in user.items():
        if section == "profile":
            continue
        if section not in doc:
            validator.fail(section, "unknown section")
            continue
        if not isinstance(fields, dict):
            validator.fail(section, f"expected an object of fields, got {fields!r}")
            continue
        for key, value in fields.items():
            if key not in doc[section]:
                validator.fail(f"{section}.{key}", "unknown field")
                continue
            doc[section][key] = value
    return doc


def plan_from_document(document: dict) -> SimulationPlan:
    """Build and validate a plan; reports every violation with its field path."""
    if not isinstance(document, dict):
        raise ConfigurationError("config document must be a JSON object")
    v = _Validator()
    doc = _merge_document(document, v)
    scn, trf, chn, rad, net, eng = (
        {
            key: v.field(f"{section}.{key}", doc[section][key], default, rule)
            for key, (default, rule) in _FIELDS[section].items()
        }
        for section in ("scenario", "traffic", "channel", "radio", "network", "engine")
    )

    # Cross-field invariants that need valid pieces first.
    road_m = None if scn["lane_length_km"] is None else scn["lane_length_km"] * 1000.0
    _check_density(v, scn["vehicle_intensity_per_m"], scn["inter_vehicle_distance_m"], road_m)
    enb_pos, strip = scn["enb_position_m"], scn["vru_strip_m"]
    if road_m is not None:
        if enb_pos is not None and not 0.0 <= enb_pos[0] <= road_m:
            v.fail("scenario.enb_position_m", "x-coordinate must lie on the lane segment")
        if strip is not None and (strip[0] < 0.0 or strip[1] > road_m):
            v.fail("scenario.vru_strip_m", "bounds must lie on the lane segment")
    if chn["pathloss_model"] == "winner-plus":
        for name in ("enb_height_m", "vru_height_m", "vehicle_height_m"):
            if chn[name] is not None and chn[name] <= 1.0:
                v.fail(f"channel.{name}", "must exceed 1 m (effective height h - 1 > 0)")
    bandwidth_mhz, prb_khz = rad["bandwidth_mhz"], rad["prb_bandwidth_khz"]
    if bandwidth_mhz is not None and prb_khz is not None:
        radio = RadioParams(bandwidth_mhz * 1e6, prb_khz * 1e3, rad["cluster_size"])
        # The quotient ``total_prbs`` truncates; a subnormal PRB bandwidth overflows it.
        if not math.isfinite(radio.bandwidth_hz // radio.prb_bandwidth_hz):
            v.fail(
                "radio.prb_bandwidth_khz",
                f"bandwidth / PRB bandwidth must be finite, "
                f"got {bandwidth_mhz!r} MHz / {prb_khz!r} kHz",
            )
        elif radio.total_prbs < 1:
            v.fail("radio.bandwidth_mhz", "bandwidth must fit at least one PRB")

    if v.errors:
        raise ConfigurationError(
            "invalid configuration:\n" + "\n".join(f"  - {e}" for e in v.errors)
        )

    scenario = ScenarioParams(
        lane_length_m=scn.pop("lane_length_km") * 1000.0,
        lane_offset_m=scn.pop("lane_width_m") / 2.0 + 2.0,  # lanes straddle the pedestrian strip
        speed_range_ms=tuple(kmh * KMH_TO_MS for kmh in scn.pop("speed_kmh")),
        **scn,  # every other field keeps its document name and unit
    )
    traffic = TrafficParams(
        period_s=trf["period_ms"] / 1e3,
        offset_bins=trf["offset_bins"],
        size_bits_range=tuple(kbits * 1e3 for kbits in trf["packet_kbits"]),
        compute_cycles_per_bit=trf["compute_cycles_per_bit"],
    )
    network = NetworkParams(
        backhaul_bps=net["backhaul_mbps"] * 1e6,
        server_cycles_per_s=net["server_gcycles_per_s"] * 1e9,
        tn_cn_one_way_s=tuple(ms / 1e3 for ms in net["tn_cn_one_way_ms"]),
    )
    return SimulationPlan(
        scenario=scenario,
        traffic=traffic,
        channel=ChannelParams(**chn),
        radio=radio,
        network=network,
        **eng,
    )


def default_plan(profile: str = DEFAULT_PROFILE) -> SimulationPlan:
    """The plan of a document that sets nothing but the profile."""
    return plan_from_document({"profile": profile})


def load_config(
    path: str | None = None,
    *,
    profile: str | None = None,
    seed: int | None = None,
    replications: int | None = None,
    workers: int | None = None,
) -> SimulationPlan:
    """Parse a config file (or start from defaults) and apply CLI overrides."""
    if path is None:
        document: dict = {}
    else:
        import json  # only a config file needs it

        try:
            with open(path, "r", encoding="utf-8") as fh:
                document = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})"
            ) from exc
        except (ValueError, RecursionError) as exc:  # too many digits, too deep
            raise ConfigurationError(f"{path}: unreadable JSON ({exc})") from exc
        if not isinstance(document, dict):
            raise ConfigurationError(f"{path}: top-level value must be a JSON object")
    if profile is not None:
        document = {**document, "profile": profile}
    engine_overrides = {}
    if seed is not None:
        engine_overrides["master_seed"] = seed
    if replications is not None:
        engine_overrides["replications"] = replications
    if workers is not None:
        engine_overrides["workers"] = workers
    if engine_overrides:
        document = {**document, "engine": {**document.get("engine", {}), **engine_overrides}}
    return plan_from_document(document)


class SweepParameter(NamedTuple):
    field: str  # the document path it sets, "section.key"
    values: tuple  # default sweep values; their type parses --values
    command: str  # CLI subcommand
    basename: str  # output file name without extension


# The canonical sweeps, in `reproduce` order.
SWEEPS = {
    "vru_count": SweepParameter(
        "scenario.vru_count", (50, 70, 90, 110, 130), "sweep-vru", "vru_sweep"
    ),
    "vehicle_intensity": SweepParameter(
        "scenario.vehicle_intensity_per_m",
        (0.01, 0.03, 0.05, 0.07, 0.09),
        "sweep-density",
        "density_sweep",
    ),
    "cluster_size": SweepParameter(
        "radio.cluster_size", (1, 3, 5, 7, 9), "sweep-cluster", "cluster_sweep"
    ),
}


def override_parameter(plan: SimulationPlan, parameter: str, value) -> SimulationPlan:
    """Return a plan with one swept parameter, a ``SWEEPS`` key, replaced (used by sweeps).

    The value is checked by its document field's rule, and a vehicle
    intensity also by the density rule, so a bad point fails with a one-line
    message that starts with the field path. Every swept field keeps its
    document name and unit in its section's record.
    """
    path = SWEEPS[parameter].field
    section, key = path.split(".")
    v = _Validator()
    value = v.field(path, value, *_FIELDS[section][key])
    if key == "vehicle_intensity_per_m":
        scn = plan.scenario
        _check_density(v, value, scn.inter_vehicle_distance_m, scn.lane_length_m)
    if v.errors:
        raise ConfigurationError("; ".join(v.errors))
    return replace(plan, **{section: replace(getattr(plan, section), **{key: value})})
