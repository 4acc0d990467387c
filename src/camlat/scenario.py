"""Freeway scenario: the scenario section's record, vehicle process, VRUs, mobility.

``ScenarioParams`` holds the config document's scenario section in SI units:
a two-lane road, the vehicles' hard-core process, the VRU strip, the eNB and
mobility. ``hardcore`` is a derived view of its two vehicle-process fields.

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

KMH_TO_MS = 1.0 / 3.6

# The road's two lanes straddle the strip's center line y = 0 at one lateral
# distance: lane 0 at y = +lane_offset_m, lane 1 at y = -lane_offset_m.
LANES = 2


@dataclass(frozen=True)
class HardCoreParams:
    """Target intensity (vehicles/m per lane) and minimum inter-vehicle gap."""

    intensity_per_m: float
    hard_core_distance_m: float


@dataclass(frozen=True)
class ScenarioParams:
    """The scenario section in SI units: everything needed to realize one snapshot."""

    lane_length_m: float
    lane_offset_m: float
    vehicle_intensity_per_m: float
    inter_vehicle_distance_m: float
    speed_range_ms: tuple[float, float]
    vru_count: int
    vru_strip_m: tuple[float, float]
    enb_position_m: tuple[float, float]
    mobility: bool

    @property
    def hardcore(self) -> HardCoreParams:
        """Each lane's vehicle process, as ``sample_hardcore_positions`` takes it."""
        return HardCoreParams(self.vehicle_intensity_per_m, self.inter_vehicle_distance_m)


def sample_hardcore_positions(
    params: HardCoreParams, length_m: float, rng: np.random.Generator
) -> np.ndarray:
    """Sample ordered point positions of the hard-core process on [0, length)."""
    lam = params.intensity_per_m
    delta = params.hard_core_distance_m
    tail_scale = 1.0 / lam - delta  # mean of the exponential part of each gap

    # Equilibrium delay of the first point. All three variates are drawn
    # unconditionally so stream consumption does not depend on the branch.
    u = rng.random()
    w = rng.random()
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


@dataclass(frozen=True)
class Scenario:
    """Frozen snapshot of one realization, stored as flat arrays.

    Only the x-coordinates vary: the VRUs walk the strip's center line at
    y = 0, and each vehicle drives on its lane's centerline. The vehicles are
    numbered lane by lane, lane 0's first.
    """

    vehicle_x: np.ndarray
    vehicle_speed: np.ndarray
    vehicle_lane: np.ndarray
    vru_x: np.ndarray

    @property
    def vehicle_count(self) -> int:
        return int(self.vehicle_x.size)


def sample_scenario(params: ScenarioParams, streams, replication: int) -> Scenario:
    """Realize one scenario from the per-replication substreams.

    Each lane's stream gives its vehicles' positions, then their speeds,
    signed +x on lane 0 and -x on lane 1; the VRUs are placed i.i.d. uniform
    on the strip.
    """
    hardcore = params.hardcore
    xs, speeds = [], []
    for lane in range(LANES):
        rng = streams.stream("vehicles", replication, lane)
        x = sample_hardcore_positions(hardcore, params.lane_length_m, rng)
        xs.append(x)
        speeds.append((1 - 2 * lane) * rng.uniform(*params.speed_range_ms, size=x.size))
    vrus = streams.stream("vrus", replication)
    return Scenario(
        vehicle_x=np.concatenate(xs),
        vehicle_speed=np.concatenate(speeds),
        vehicle_lane=np.repeat(np.arange(LANES), [x.size for x in xs]),
        vru_x=vrus.uniform(*params.vru_strip_m, size=params.vru_count),
    )


def advance_vehicles(
    vehicle_x: np.ndarray, vehicle_speed: np.ndarray, dt_s: float, lane_length_m: float
) -> np.ndarray:
    """Positions after moving every vehicle by speed*dt along its lane, wrapping at the ends.

    Takes position and signed-speed arrays of any one shape, such as one
    row of vehicles per replication of a block.
    """
    return np.mod(vehicle_x + vehicle_speed * dt_s, lane_length_m)
