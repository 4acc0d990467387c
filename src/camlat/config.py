"""Simulation plan, defaults, profiles, and config-document handling.

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

import json
import math
from dataclasses import dataclass, replace
from typing import Any

from .channel import PATHLOSS_MODELS, ChannelParams
from .errors import ConfigurationError
from .latency import NetworkParams, TnCnDistribution
from .radio import PrbPool
from .scenario import HardCoreParams, RoadGeometry, ScenarioParams
from .traffic import TrafficParams

KMH_TO_MS = 1.0 / 3.6

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
class RadioParams:
    pool: PrbPool = PrbPool()
    cluster_size: int = 5

    def __post_init__(self):
        if self.cluster_size < 1:
            raise ConfigurationError("cluster size must be at least 1")


@dataclass(frozen=True)
class SimulationPlan:
    """Fully-resolved inputs of one Monte-Carlo run, in SI units."""

    scenario: ScenarioParams = ScenarioParams()
    traffic: TrafficParams = TrafficParams()
    channel: ChannelParams = ChannelParams()
    radio: RadioParams = RadioParams()
    network: NetworkParams = NetworkParams()
    master_seed: int = 1729
    replications: int = 200
    periods: int = 10
    workers: int = 1

    def __post_init__(self):
        if self.replications < 1 or self.periods < 1:
            raise ConfigurationError("replications and periods must be at least 1")
        if self.workers < 1:
            raise ConfigurationError("worker count must be at least 1")


# Section -> field -> default, in document (human) units.
_DEFAULT_DOCUMENT: dict[str, dict[str, Any]] = {
    "scenario": {
        "lane_length_km": 3.0,
        "lane_width_m": 4.0,
        "vehicle_intensity_per_m": 0.01,
        "inter_vehicle_distance_m": 10.0,
        "speed_kmh": (70.0, 140.0),
        "vru_count": 100,
        "vru_strip_m": (1200.0, 1800.0),
        "enb_position_m": (1500.0, 10.0),
        "mobility": True,
    },
    "traffic": {
        "period_ms": 100.0,
        "offset_bins": 5,
        "packet_kbits": (8.0, 12.0),
        "compute_cycles_per_bit": (100.0, 300.0),
    },
    "channel": {
        "ul_tx_power_dbm": 23.0,
        "dl_tx_power_dbm": 46.0,
        "frequency_ghz": 5.9,
        "enb_height_m": 10.0,
        "vru_height_m": 1.5,
        "vehicle_height_m": 1.5,
        "shadowing_std_db": 3.0,
        "fast_fading_std_db": 4.0,
        "thermal_noise_dbm": -110.0,
        "additional_losses_db": 15.0,
        "dl_calibration_loss_db": 0.0,
        "pathloss_model": "winner-plus",
        "pathloss_exponent": 3.0,
        "log_distance_offset_db": 47.86,
    },
    "radio": {
        "bandwidth_mhz": 9.0,
        "prb_bandwidth_khz": 180.0,
        "cluster_size": 5,
    },
    "network": {
        "backhaul_mbps": 10.0,
        "server_gcycles_per_s": 9.0,
        "tn_cn_one_way_ms": (15.0, 35.0),
    },
    "engine": {
        "master_seed": 1729,
        "replications": 200,
        "periods": 10,
        "workers": 1,
    },
}


def default_document(profile: str = DEFAULT_PROFILE) -> dict[str, dict[str, Any]]:
    """The full config document a profile implies, before any user overrides."""
    if profile not in PROFILES:
        raise ConfigurationError(
            f"unknown profile {profile!r}; expected one of {sorted(PROFILES)}"
        )
    doc = {section: dict(fields) for section, fields in _DEFAULT_DOCUMENT.items()}
    for dotted, value in PROFILES[profile].items():
        section, key = dotted.split(".")
        doc[section][key] = value
    return doc


class _Validator:
    """Collects every violation with its field path before giving up."""

    def __init__(self):
        self.errors: list[str] = []

    def fail(self, path: str, message: str):
        self.errors.append(f"{path}: {message}")

    def number(self, doc, section, key, *, minimum=None, positive=False, integer=False):
        value = doc[section][key]
        path = f"{section}.{key}"
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.fail(path, f"expected a number, got {value!r}")
            return None
        if isinstance(value, float) and not math.isfinite(value):
            self.fail(path, f"must be finite, got {value!r}")
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
        return int(value) if integer else float(value)

    def pair(self, doc, section, key, *, minimum=None, ordered=True, strict=False):
        value = doc[section][key]
        path = f"{section}.{key}"
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            self.fail(path, f"expected a [low, high] pair, got {value!r}")
            return None
        try:
            lo, hi = float(value[0]), float(value[1])
        except (TypeError, ValueError):
            self.fail(path, f"expected numeric bounds, got {value!r}")
            return None
        if not (math.isfinite(lo) and math.isfinite(hi)):
            self.fail(path, f"bounds must be finite, got {value!r}")
            return None
        if minimum is not None and lo < minimum:
            self.fail(path, f"lower bound must be >= {minimum}, got {lo!r}")
            return None
        if ordered and (lo > hi or (strict and lo >= hi)):
            op = "<" if strict else "<="
            self.fail(path, f"bounds must satisfy low {op} high, got {value!r}")
            return None
        return lo, hi

    def boolean(self, doc, section, key):
        value = doc[section][key]
        if not isinstance(value, bool):
            self.fail(f"{section}.{key}", f"expected true/false, got {value!r}")
            return None
        return value

    def choice(self, doc, section, key, options):
        value = doc[section][key]
        if value not in options:
            self.fail(f"{section}.{key}", f"expected one of {sorted(options)}, got {value!r}")
            return None
        return value


def _merge_document(user: dict, validator: _Validator) -> dict:
    profile = user.get("profile", DEFAULT_PROFILE)
    if profile not in PROFILES:
        validator.fail("profile", f"expected one of {sorted(PROFILES)}, got {profile!r}")
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

    lane_length_km = v.number(doc, "scenario", "lane_length_km", positive=True)
    lane_width = v.number(doc, "scenario", "lane_width_m", positive=True)
    intensity = v.number(doc, "scenario", "vehicle_intensity_per_m", positive=True)
    min_gap = v.number(doc, "scenario", "inter_vehicle_distance_m", minimum=0.0)
    speed_kmh = v.pair(doc, "scenario", "speed_kmh", minimum=0.0, strict=False)
    vru_count = v.number(doc, "scenario", "vru_count", integer=True, minimum=1)
    vru_strip = v.pair(doc, "scenario", "vru_strip_m", strict=True)
    enb_pos = v.pair(doc, "scenario", "enb_position_m", ordered=False)
    mobility = v.boolean(doc, "scenario", "mobility")

    period_ms = v.number(doc, "traffic", "period_ms", positive=True)
    offset_bins = v.number(doc, "traffic", "offset_bins", integer=True, minimum=1)
    packet_kbits = v.pair(doc, "traffic", "packet_kbits", strict=False)
    compute_range = v.pair(doc, "traffic", "compute_cycles_per_bit", minimum=0.0)

    ul_tx = v.number(doc, "channel", "ul_tx_power_dbm")
    dl_tx = v.number(doc, "channel", "dl_tx_power_dbm")
    freq = v.number(doc, "channel", "frequency_ghz", positive=True)
    enb_height = v.number(doc, "channel", "enb_height_m", positive=True)
    vru_height = v.number(doc, "channel", "vru_height_m", positive=True)
    vehicle_height = v.number(doc, "channel", "vehicle_height_m", positive=True)
    shadow_std = v.number(doc, "channel", "shadowing_std_db", minimum=0.0)
    fade_std = v.number(doc, "channel", "fast_fading_std_db", minimum=0.0)
    noise = v.number(doc, "channel", "thermal_noise_dbm")
    losses = v.number(doc, "channel", "additional_losses_db", minimum=0.0)
    dl_margin = v.number(doc, "channel", "dl_calibration_loss_db", minimum=0.0)
    model = v.choice(doc, "channel", "pathloss_model", PATHLOSS_MODELS)
    exponent = v.number(doc, "channel", "pathloss_exponent", positive=True)
    logdist_offset = v.number(doc, "channel", "log_distance_offset_db")

    bandwidth_mhz = v.number(doc, "radio", "bandwidth_mhz", positive=True)
    prb_khz = v.number(doc, "radio", "prb_bandwidth_khz", positive=True)
    cluster_size = v.number(doc, "radio", "cluster_size", integer=True, minimum=1)

    backhaul_mbps = v.number(doc, "network", "backhaul_mbps", positive=True)
    server_gcps = v.number(doc, "network", "server_gcycles_per_s", positive=True)
    tn_cn_ms = v.pair(doc, "network", "tn_cn_one_way_ms", minimum=0.0)

    master_seed = v.number(doc, "engine", "master_seed", integer=True, minimum=0)
    replications = v.number(doc, "engine", "replications", integer=True, minimum=1)
    periods = v.number(doc, "engine", "periods", integer=True, minimum=1)
    workers = v.number(doc, "engine", "workers", integer=True, minimum=1)

    # Cross-field invariants that need valid pieces first.
    if intensity is not None and min_gap is not None and intensity * min_gap >= 1.0:
        v.fail(
            "scenario.vehicle_intensity_per_m",
            f"infeasible density: intensity * inter_vehicle_distance must be < 1 "
            f"(got {intensity} * {min_gap})",
        )
    if speed_kmh is not None and speed_kmh[0] <= 0:
        v.fail("scenario.speed_kmh", "minimum speed must be positive")
    if lane_length_km is not None and enb_pos is not None:
        if not 0.0 <= enb_pos[0] <= lane_length_km * 1000.0:
            v.fail("scenario.enb_position_m", "x-coordinate must lie on the lane segment")
    if model == "winner-plus":
        for name, h in (("enb_height_m", enb_height), ("vru_height_m", vru_height),
                        ("vehicle_height_m", vehicle_height)):
            if h is not None and h <= 1.0:
                v.fail(f"channel.{name}", "must exceed 1 m (effective height h - 1 > 0)")
    if bandwidth_mhz is not None and prb_khz is not None:
        if int(bandwidth_mhz * 1e6 // (prb_khz * 1e3)) < 1:
            v.fail("radio.bandwidth_mhz", "bandwidth must fit at least one PRB")
    if packet_kbits is not None and packet_kbits[0] <= 0:
        v.fail("traffic.packet_kbits", "minimum packet size must be positive")

    if v.errors:
        raise ConfigurationError(
            "invalid configuration:\n" + "\n".join(f"  - {e}" for e in v.errors)
        )

    lane_length_m = lane_length_km * 1000.0
    half_spacing = lane_width / 2.0 + 2.0  # lanes straddle the pedestrian strip
    road = RoadGeometry(
        lane_length_m=lane_length_m,
        lane_width_m=lane_width,
        lane_count=2,
        lane_centerlines_m=(half_spacing, -half_spacing),
        vru_lateral_offset_m=0.0,
        enb_position_m=(enb_pos[0], enb_pos[1]),
    )
    scenario = ScenarioParams(
        road=road,
        hardcore=HardCoreParams(intensity_per_m=intensity, hard_core_distance_m=min_gap),
        speed_range_ms=(speed_kmh[0] * KMH_TO_MS, speed_kmh[1] * KMH_TO_MS),
        vru_count=vru_count,
        vru_strip_m=vru_strip,
        mobility=mobility,
    )
    traffic = TrafficParams(
        period_s=period_ms / 1e3,
        offset_bins=offset_bins,
        size_bits_range=(packet_kbits[0] * 1e3, packet_kbits[1] * 1e3),
        compute_cycles_per_bit_range=compute_range,
    )
    channel = ChannelParams(
        ul_tx_power_dbm=ul_tx,
        dl_tx_power_dbm=dl_tx,
        carrier_freq_ghz=freq,
        enb_height_m=enb_height,
        vru_height_m=vru_height,
        vehicle_height_m=vehicle_height,
        shadow_std_db=shadow_std,
        fast_fade_std_db=fade_std,
        additional_losses_db=losses,
        dl_calibration_loss_db=dl_margin,
        noise_power_dbm=noise,
        pathloss_model=model,
        pathloss_exponent=exponent,
        log_distance_offset_db=logdist_offset,
    )
    radio = RadioParams(
        pool=PrbPool(bandwidth_hz=bandwidth_mhz * 1e6, prb_bandwidth_hz=prb_khz * 1e3),
        cluster_size=cluster_size,
    )
    network = NetworkParams(
        backhaul_bps=backhaul_mbps * 1e6,
        tn_cn=TnCnDistribution(tn_cn_ms[0] / 1e3, tn_cn_ms[1] / 1e3),
        server_cycles_per_s=server_gcps * 1e9,
    )
    return SimulationPlan(
        scenario=scenario,
        traffic=traffic,
        channel=channel,
        radio=radio,
        network=network,
        master_seed=master_seed,
        replications=replications,
        periods=periods,
        workers=workers,
    )


def default_plan(profile: str = DEFAULT_PROFILE) -> SimulationPlan:
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
        try:
            with open(path, "r", encoding="utf-8") as fh:
                document = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})"
            ) from exc
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


def override_parameter(plan: SimulationPlan, parameter: str, value) -> SimulationPlan:
    """Return a plan with one swept parameter replaced (used by sweeps)."""
    if parameter == "vru_count":
        scenario = replace(plan.scenario, vru_count=int(value))
        return replace(plan, scenario=scenario)
    if parameter == "vehicle_intensity":
        hardcore = replace(plan.scenario.hardcore, intensity_per_m=float(value))
        return replace(plan, scenario=replace(plan.scenario, hardcore=hardcore))
    if parameter == "cluster_size":
        return replace(plan, radio=replace(plan.radio, cluster_size=int(value)))
    raise ConfigurationError(
        f"unknown sweep parameter {parameter!r}; "
        "expected vru_count, vehicle_intensity, or cluster_size"
    )
