"""Vehicle point process, VRU placement, and mobility."""

from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as scipy_stats

from camlat.config import default_plan
from camlat.rng import SubstreamFactory
from camlat.scenario import (
    HardCoreParams,
    Scenario,
    advance_vehicles,
    sample_hardcore_positions,
    sample_scenario,
)

LANE_LENGTH = 3000.0
SCENARIO = default_plan().scenario


def test_hardcore_min_gap_and_mean_count():
    params = HardCoreParams(intensity_per_m=0.01, hard_core_distance_m=10.0)
    rng = np.random.default_rng(123)
    counts = []
    for _ in range(1500):
        xs = sample_hardcore_positions(params, LANE_LENGTH, rng)
        counts.append(xs.size)
        if xs.size > 1:
            assert np.min(np.diff(xs)) >= 10.0
        assert np.all(xs >= 0) and np.all(xs < LANE_LENGTH)
    mean = np.mean(counts)
    assert abs(mean - 30.0) / 30.0 < 0.05  # ~30 vehicles per lane on average


@pytest.mark.parametrize("intensity", [0.01, 0.03, 0.05, 0.07, 0.09])
def test_intensity_calibration_across_grid(intensity):
    params = HardCoreParams(intensity_per_m=intensity, hard_core_distance_m=10.0)
    rng = np.random.default_rng(int(intensity * 1000))
    total = 0
    reps = 2500
    for _ in range(reps):
        total += sample_hardcore_positions(params, LANE_LENGTH, rng).size
    target = intensity * LANE_LENGTH
    assert abs(total / reps - target) / target < 0.05


def test_vanishing_intensity_leaves_lane_near_empty():
    params = HardCoreParams(intensity_per_m=1e-6, hard_core_distance_m=10.0)
    rng = np.random.default_rng(5)
    counts = [sample_hardcore_positions(params, LANE_LENGTH, rng).size for _ in range(300)]
    assert np.mean(counts) < 0.05


def test_zero_hardcore_distance_reduces_to_poisson():
    # with delta = 0 the gaps must be exponential with mean 1/intensity
    params = HardCoreParams(intensity_per_m=0.01, hard_core_distance_m=0.0)
    rng = np.random.default_rng(99)
    xs = sample_hardcore_positions(params, 400_000.0, rng)
    gaps = np.diff(xs)
    assert gaps.size > 3000
    result = scipy_stats.kstest(gaps, "expon", args=(0.0, 100.0))
    assert result.pvalue > 0.01
    assert abs(xs.size - 4000) / 4000 < 0.05


def test_sample_vehicles_speeds_and_lane_direction():
    speed_range = SCENARIO.speed_range_ms
    assert speed_range == pytest.approx((70.0 / 3.6, 140.0 / 3.6))
    scn = sample_scenario(SCENARIO, SubstreamFactory(11), 0)
    east = scn.vehicle_speed[scn.vehicle_lane == 0]
    west = scn.vehicle_speed[scn.vehicle_lane == 1]
    assert east.size and west.size
    assert np.all(east > 0)
    assert np.all(west < 0)
    speeds = np.abs(scn.vehicle_speed)
    assert np.all((speed_range[0] <= speeds) & (speeds <= speed_range[1]))
    # each lane's stream gives its vehicles' positions, then their speeds,
    # and the assembled scenario tags them with that lane, which places them
    # on its centerline
    for lane, sign in ((0, 1), (1, -1)):
        stream = SubstreamFactory(11).stream("vehicles", 0, lane)
        xs = sample_hardcore_positions(SCENARIO.hardcore, SCENARIO.lane_length_m, stream)
        assert np.array_equal(scn.vehicle_x[scn.vehicle_lane == lane], xs)
        speed = sign * stream.uniform(*speed_range, size=xs.size)
        assert np.array_equal(scn.vehicle_speed[scn.vehicle_lane == lane], speed)


def _vrus(count, strip_m, seed):
    params = replace(SCENARIO, vru_count=count, vru_strip_m=strip_m)
    return sample_scenario(params, SubstreamFactory(seed), 0).vru_x


def test_sample_vrus_containment_and_mean():
    xs = _vrus(100, (1200.0, 1800.0), 17)
    assert xs.shape == (100,)
    assert np.all((xs >= 1200.0) & (xs <= 1800.0))
    assert abs(np.mean(xs) - 1500.0) < 60.0  # ~3.5 standard errors


def test_sample_vrus_degenerate_strip():
    (x,) = _vrus(1, (1500.0, 1500.0 + 1e-6), 0)
    assert x == pytest.approx(1500.0, abs=1e-5)


def test_sample_vrus_range_containment_wide():
    xs = _vrus(3, (0.0, 3000.0), 2)
    assert np.all((0.0 <= xs) & (xs <= 3000.0))


def _tiny_scenario() -> Scenario:
    return Scenario(
        vehicle_x=np.array([100.0, 2990.0, 5.0]),
        vehicle_speed=np.array([20.0, 20.0, -20.0]),
        vehicle_lane=np.array([0, 1, 1]),
        vru_x=np.array([1500.0]),
    )


def test_advance_vehicles_kinematics_and_wrap():
    scn = _tiny_scenario()
    moved = advance_vehicles(scn.vehicle_x, scn.vehicle_speed, 1.0, SCENARIO.lane_length_m)
    assert moved[0] == pytest.approx(120.0)
    assert moved[1] == pytest.approx(10.0)  # wraps past the end
    assert moved[2] == pytest.approx(2985.0)  # wraps below zero
    assert moved.size == scn.vehicle_count


def test_advance_vehicles_zero_dt_is_identity():
    scn = _tiny_scenario()
    same = advance_vehicles(scn.vehicle_x, scn.vehicle_speed, 0.0, SCENARIO.lane_length_m)
    assert np.array_equal(same, scn.vehicle_x)


def test_sample_scenario_is_deterministic_per_replication():
    params = replace(SCENARIO, vru_count=20)
    a = sample_scenario(params, SubstreamFactory(7), 3)
    b = sample_scenario(params, SubstreamFactory(7), 3)
    c = sample_scenario(params, SubstreamFactory(7), 4)
    assert np.array_equal(a.vehicle_x, b.vehicle_x)
    assert np.array_equal(a.vru_x, b.vru_x)
    assert not np.array_equal(a.vru_x, c.vru_x)
