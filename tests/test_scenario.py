"""Vehicle point process, VRU placement, and mobility."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from camlat.errors import ConfigurationError
from camlat.rng import SubstreamFactory
from camlat.scenario import (
    HardCoreParams,
    RoadGeometry,
    ScenarioParams,
    Scenario,
    advance_vehicles,
    sample_hardcore_positions,
    sample_scenario,
    sample_vehicles,
    sample_vrus,
)

LANE_LENGTH = 3000.0


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


def test_infeasible_density_is_configuration_error():
    with pytest.raises(ConfigurationError):
        HardCoreParams(intensity_per_m=0.2, hard_core_distance_m=10.0)


def test_sample_vehicles_speeds_and_lane_direction():
    road = RoadGeometry()
    params = HardCoreParams()
    speed_range = (70.0 / 3.6, 140.0 / 3.6)
    rng = np.random.default_rng(11)
    _, east = sample_vehicles(params, road, 0, speed_range, rng)
    _, west = sample_vehicles(params, road, 1, speed_range, rng)
    assert np.all(east > 0)
    assert np.all(west < 0)
    speeds = np.abs(np.concatenate([east, west]))
    assert np.all((speed_range[0] <= speeds) & (speeds <= speed_range[1]))
    # the assembled scenario tags each lane's vehicles with that lane, which
    # places them on its centerline
    scn = sample_scenario(ScenarioParams(), SubstreamFactory(11), 0)
    for lane in (0, 1):
        stream = SubstreamFactory(11).stream("vehicles", 0, lane)
        xs, _ = sample_vehicles(params, road, lane, speed_range, stream)
        assert np.array_equal(scn.vehicle_x[scn.vehicle_lane == lane], xs)


def test_sample_vrus_containment_and_mean():
    rng = np.random.default_rng(17)
    xs = sample_vrus(100, (1200.0, 1800.0), rng)
    assert xs.shape == (100,)
    assert np.all((xs >= 1200.0) & (xs <= 1800.0))
    assert abs(np.mean(xs) - 1500.0) < 60.0  # ~3.5 standard errors


def test_sample_vrus_degenerate_strip():
    rng = np.random.default_rng(0)
    (x,) = sample_vrus(1, (1500.0, 1500.0 + 1e-6), rng)
    assert x == pytest.approx(1500.0, abs=1e-5)


def test_sample_vrus_range_containment_wide():
    rng = np.random.default_rng(2)
    xs = sample_vrus(3, (0.0, 3000.0), rng)
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
    moved = advance_vehicles(scn.vehicle_x, scn.vehicle_speed, 1.0, RoadGeometry().lane_length_m)
    assert moved[0] == pytest.approx(120.0)
    assert moved[1] == pytest.approx(10.0)  # wraps past the end
    assert moved[2] == pytest.approx(2985.0)  # wraps below zero
    assert moved.size == scn.vehicle_count


def test_advance_vehicles_zero_dt_is_identity():
    scn = _tiny_scenario()
    same = advance_vehicles(scn.vehicle_x, scn.vehicle_speed, 0.0, RoadGeometry().lane_length_m)
    assert np.array_equal(same, scn.vehicle_x)


def test_sample_scenario_is_deterministic_per_replication():
    params = ScenarioParams(vru_count=20)
    a = sample_scenario(params, SubstreamFactory(7), 3)
    b = sample_scenario(params, SubstreamFactory(7), 3)
    c = sample_scenario(params, SubstreamFactory(7), 4)
    assert np.array_equal(a.vehicle_x, b.vehicle_x)
    assert np.array_equal(a.vru_x, b.vru_x)
    assert not np.array_equal(a.vru_x, c.vru_x)


def test_road_geometry_invariants():
    with pytest.raises(ConfigurationError):
        RoadGeometry(lane_length_m=-1.0)
    with pytest.raises(ConfigurationError):
        RoadGeometry(enb_position_m=(5000.0, 10.0))
    with pytest.raises(ConfigurationError):
        RoadGeometry(lane_centerlines_m=(4.0, 0.0, -4.0))
    with pytest.raises(ConfigurationError):
        ScenarioParams(vru_count=0)
