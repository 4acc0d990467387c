"""Freeway scenario: road geometry, vehicle point process, VRU placement, mobility.

Vehicles are dropped on each lane as a stationary 1-D hard-core renewal
process: successive gaps are delta + Exp(theta) with
theta = lambda / (1 - lambda * delta), which realizes exactly the target
intensity lambda for any feasible pair (lambda * delta < 1), keeps every
gap >= delta, and degenerates to a Poisson process of intensity lambda
when delta = 0. The first point is placed at the equilibrium
forward-recurrence delay so the expected count on a segment of length L
is lambda * L with no edge bias.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

KMH_TO_MS = 1.0 / 3.6


@dataclass(frozen=True)
class RoadGeometry:
    """Two-lane freeway segment with a pedestrian strip between the lanes."""

    lane_length_m: float = 3000.0
    lane_centerlines_m: tuple[float, ...] = (4.0, -4.0)
    enb_position_m: tuple[float, float] = (1500.0, 10.0)

    def __post_init__(self):
        if self.lane_length_m <= 0:
            raise ConfigurationError("lane length must be positive")
        if self.lane_count != 2:
            raise ConfigurationError("exactly two lanes are supported")
        if not 0.0 <= self.enb_position_m[0] <= self.lane_length_m:
            raise ConfigurationError("base-station x-coordinate must lie on the segment")

    def lane_direction(self, lane_index: int) -> int:
        """Direction of travel: +x on even lanes, -x on odd lanes."""
        return 1 if lane_index % 2 == 0 else -1

    @property
    def lane_count(self) -> int:
        return len(self.lane_centerlines_m)


@dataclass(frozen=True)
class HardCoreParams:
    """Target intensity (vehicles/m per lane) and minimum inter-vehicle gap."""

    intensity_per_m: float = 0.01
    hard_core_distance_m: float = 10.0

    def __post_init__(self):
        if self.intensity_per_m <= 0:
            raise ConfigurationError("vehicle intensity must be positive")
        if self.hard_core_distance_m < 0:
            raise ConfigurationError("hard-core distance must be non-negative")
        if self.intensity_per_m * self.hard_core_distance_m >= 1.0:
            raise ConfigurationError(
                "infeasible density: intensity * hard-core distance must be < 1 "
                f"(got {self.intensity_per_m} * {self.hard_core_distance_m})"
            )


@dataclass(frozen=True)
class ScenarioParams:
    """Everything needed to realize one scenario snapshot."""

    road: RoadGeometry = RoadGeometry()
    hardcore: HardCoreParams = HardCoreParams()
    speed_range_ms: tuple[float, float] = (70.0 * KMH_TO_MS, 140.0 * KMH_TO_MS)
    vru_count: int = 100
    vru_strip_m: tuple[float, float] = (1200.0, 1800.0)
    mobility: bool = True

    def __post_init__(self):
        lo, hi = self.speed_range_ms
        if not 0 < lo <= hi:
            raise ConfigurationError("speed range must satisfy 0 < min <= max")
        if self.vru_count < 1:
            raise ConfigurationError("at least one VRU is required (no traffic to simulate)")
        if not self.vru_strip_m[0] < self.vru_strip_m[1]:
            raise ConfigurationError("VRU strip must be a non-degenerate interval")


def sample_hardcore_positions(
    params: HardCoreParams, length_m: float, rng: np.random.Generator
) -> np.ndarray:
    """Sample ordered point positions of the hard-core process on [0, length)."""
    lam = params.intensity_per_m
    delta = params.hard_core_distance_m
    tail_scale = 1.0 / lam - delta  # mean of the exponential part of each gap

    # Equilibrium delay of the first point. All three variates are drawn
    # unconditionally so stream consumption does not depend on the branch.
    u = rng.uniform()
    w = rng.uniform()
    e0 = rng.standard_exponential()
    first = w * delta if u < lam * delta else delta + e0 * tail_scale
    if first >= length_m:
        return np.empty(0)

    chunks = [np.array([first])]
    x = first
    while True:
        remaining = length_m - x
        batch = max(16, int(remaining * lam * 1.25) + 8)
        gaps = delta + rng.standard_exponential(batch) * tail_scale
        points = x + np.cumsum(gaps)
        inside = points[points < length_m]
        chunks.append(inside)
        if inside.size < points.size:
            break
        x = points[-1]
    return np.concatenate(chunks)


def sample_vehicles(
    params: HardCoreParams,
    road: RoadGeometry,
    lane_index: int,
    speed_range_ms: tuple[float, float],
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Drop one lane's vehicles: x-positions and speeds signed by the lane direction."""
    xs = sample_hardcore_positions(params, road.lane_length_m, rng)
    speeds = rng.uniform(speed_range_ms[0], speed_range_ms[1], size=xs.size)
    return xs, road.lane_direction(lane_index) * speeds


def sample_vrus(n: int, strip_m: tuple[float, float], rng: np.random.Generator) -> np.ndarray:
    """x-positions of n VRUs placed i.i.d. uniform on the strip."""
    return rng.uniform(strip_m[0], strip_m[1], size=n)


@dataclass(frozen=True)
class Scenario:
    """Frozen snapshot of one realization, stored as flat arrays."""

    road: RoadGeometry
    vehicle_x: np.ndarray
    vehicle_y: np.ndarray
    vehicle_speed: np.ndarray
    vehicle_lane: np.ndarray
    vru_x: np.ndarray
    vru_y: np.ndarray

    @property
    def vehicle_count(self) -> int:
        return int(self.vehicle_x.size)


def sample_scenario(params: ScenarioParams, streams, replication: int) -> Scenario:
    """Realize one scenario from the per-replication substreams."""
    road = params.road
    xs, speeds = zip(*(
        sample_vehicles(
            params.hardcore, road, lane, params.speed_range_ms,
            streams.stream("vehicles", replication, lane),
        )
        for lane in range(road.lane_count)
    ))
    per_lane = [x.size for x in xs]
    vru_x = sample_vrus(params.vru_count, params.vru_strip_m, streams.stream("vrus", replication))
    return Scenario(
        road=road,
        vehicle_x=np.concatenate(xs),
        vehicle_y=np.repeat(road.lane_centerlines_m, per_lane),
        vehicle_speed=np.concatenate(speeds),
        vehicle_lane=np.repeat(np.arange(road.lane_count), per_lane),
        vru_x=vru_x,
        vru_y=np.zeros(vru_x.size),  # VRUs walk the strip's center line
    )


def advance_vehicles(
    vehicle_x: np.ndarray, vehicle_speed: np.ndarray, dt_s: float, lane_length_m: float
) -> np.ndarray:
    """Positions after moving every vehicle by speed*dt along its lane, wrapping at the ends.

    Takes position and signed-speed arrays of any one shape, such as one
    row of vehicles per replication of a block.
    """
    return np.mod(vehicle_x + vehicle_speed * dt_s, lane_length_m)
