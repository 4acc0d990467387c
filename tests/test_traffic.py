"""Per-period workload generation and offset-bin concurrency."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from camlat.config import default_plan
from camlat.rng import SubstreamFactory
from camlat.traffic import generate_period, n_hat

TRAFFIC = default_plan().traffic


def test_one_job_per_vru_and_ranges():
    params = TRAFFIC
    packets = generate_period(100, params, np.random.default_rng(0))
    assert len(packets) == 100
    assert np.all((0 <= packets["offset_bin"]) & (packets["offset_bin"] < params.offset_bins))
    assert np.all((8000.0 <= packets["size_bits"]) & (packets["size_bits"] <= 12000.0))
    assert np.all((100.0 <= packets["compute_density"]) & (packets["compute_density"] <= 300.0))


def test_occupancy_sums_to_vru_count_every_period():
    params = TRAFFIC
    rng = np.random.default_rng(1)
    for _ in range(50):
        packets = generate_period(100, params, rng)
        occ = np.bincount(packets["offset_bin"], minlength=params.offset_bins)
        assert occ.sum() == 100


def test_expected_bin_occupancy_is_n_over_b():
    params = replace(TRAFFIC, offset_bins=5)
    rng = np.random.default_rng(2)
    occ = np.zeros(5)
    periods = 2000
    for _ in range(periods):
        occ += np.bincount(generate_period(100, params, rng)["offset_bin"], minlength=5)
    assert np.allclose(occ / periods, 20.0, atol=0.5)


def test_single_bin_degenerate():
    params = replace(TRAFFIC, offset_bins=1)
    (packet,) = generate_period(1, params, np.random.default_rng(0))
    assert packet["offset_bin"] == 0


def test_degenerate_size_range():
    params = replace(TRAFFIC, size_bits_range=(10_000.0, 10_000.0))
    packets = generate_period(10, params, np.random.default_rng(0))
    assert np.all(packets["size_bits"] == 10_000.0)


def test_concurrent_count_examples():
    assert list(n_hat(np.array([3, 3, 7, 3, 9]))) == [3, 3, 1, 3, 1]
    assert np.all(n_hat(np.arange(6)) == 1)
    assert np.all(n_hat(np.full(100, 4)) == 100)
    # one row per period: bins are counted within each row only
    assert n_hat(np.array([[3, 3, 7], [7, 1, 7]])).tolist() == [[2, 2, 1], [2, 1, 2]]
    # a block's (replications, periods, VRUs) bins: counted within each period
    block = np.array([[[3, 3, 7], [7, 1, 7]], [[0, 0, 0], [3, 3, 7]]])
    assert n_hat(block).tolist() == [[[2, 2, 1], [2, 1, 2]], [[3, 3, 3], [2, 2, 1]]]


@settings(deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=60))
def test_concurrent_count_matches_brute_force(offsets):
    counts = n_hat(np.array(offsets))
    for k, offset in enumerate(offsets):
        brute = sum(1 for other in offsets if other == offset)
        assert counts[k] == brute
        assert counts[k] >= 1


def test_offsets_independent_across_periods():
    # a VRU's bin index must decorrelate between consecutive periods of its
    # replication's block draw, which fills a (periods, VRUs) block row by row
    params = replace(TRAFFIC, offset_bins=5)
    streams = SubstreamFactory(321)
    periods = 10_000
    block = generate_period(periods, params, streams.stream("traffic", 0)).reshape(periods, 1)
    bins = block["offset_bin"][:, 0].astype(float)
    rho = np.corrcoef(bins[:-1], bins[1:])[0, 1]
    assert abs(rho) < 0.05
