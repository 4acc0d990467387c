"""PRB pool, scheduling, clustering, and radio latency."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camlat.config import RadioParams
from camlat.errors import ConfigurationError, ScenarioError, UnreachableLinkError
from camlat.radio import (
    PrbPool,
    dl_latency,
    link_rate_bps,
    nearest_member_indices,
    prb_share,
    ul_latency,
)
from camlat.traffic import n_hat

POOL = PrbPool()


def _nearest(vru_x, xs, m, lanes=None, lane_y=(0.0, 4.0)):
    """Nearest-member indices of one VRU at (vru_x, 0) among vehicles at xs."""
    xs = np.asarray(xs, dtype=float)
    lanes = np.zeros(xs.size, dtype=np.int64) if lanes is None else np.asarray(lanes)
    return nearest_member_indices(np.array([vru_x]), xs, lanes, lane_y, m)[0]


def test_pool_default_prb_count():
    assert POOL.total_prbs == 50


def test_pool_must_fit_one_prb():
    with pytest.raises(ConfigurationError):
        PrbPool(bandwidth_hz=100.0, prb_bandwidth_hz=180e3)
    with pytest.raises(ConfigurationError):
        RadioParams(cluster_size=0)


def test_select_cluster_example():
    xs = np.array([1490.0, 1510.0, 1400.0, 1600.0, 2000.0])
    assert list(xs[_nearest(1500.0, xs, 3)]) == [1490.0, 1510.0, 1400.0]


def test_select_cluster_saturates():
    assert _nearest(1500.0, [100.0, 200.0], 10).size == 2


def test_select_cluster_tie_breaks_toward_lower_x():
    xs = np.array([1510.0, 1490.0])
    assert xs[_nearest(1500.0, xs, 1)[0]] == 1490.0


def test_select_cluster_empty_road():
    with pytest.raises(ScenarioError):
        _nearest(0.0, [], 1)


def _oracle_indices(vru_x, xs, ys, lanes, m):
    def key(i):
        d2 = (xs[i] - vru_x) ** 2 + ys[i] ** 2
        return (d2, xs[i], lanes[i])

    return sorted(range(len(xs)), key=key)[:m]


@settings(deadline=None, max_examples=150)
@given(
    xs=st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=40),
    m=st.integers(min_value=1, max_value=8),
    vru_x=st.integers(min_value=0, max_value=60),
)
def test_select_cluster_matches_exhaustive_sort(xs, m, vru_x):
    # integer coordinates force exact-distance ties, exercising the tie-break
    xs = [float(x) for x in xs]
    lanes = [i % 2 for i in range(len(xs))]
    ys = [4.0 * lane for lane in lanes]
    nearest = _nearest(float(vru_x), xs, m, lanes)
    assert list(nearest) == _oracle_indices(float(vru_x), xs, ys, lanes, m)


# --- windowed search on (periods, vehicles) stacks ------------------------------
# Coordinates sit on a lattice, so every squared distance is exact in floating
# point and the oracle's ties are the search's ties.


def _check_block(vru_x, x, lanes, lane_y, m):
    """The (P, V) search equals the 1-D search and the brute-force oracle, row by row."""
    vru_x = np.asarray(vru_x, dtype=float)
    ys = np.asarray(lane_y)[lanes]
    block = nearest_member_indices(vru_x, x, lanes, lane_y, m)
    assert block.shape == (x.shape[0], vru_x.size, min(m, x.shape[1]))
    for p, row in enumerate(x):
        single = nearest_member_indices(vru_x, row, lanes, lane_y, m)
        assert single.dtype == np.intp
        assert np.array_equal(single, block[p])
        for i, q in enumerate(vru_x):
            assert list(block[p, i]) == _oracle_indices(q, row, ys, lanes, m), (p, i)
    return block


LANE_Y = (4.0, -4.0)


@pytest.mark.parametrize("m", [1, 2, 5, 9, 16])
def test_windowed_search_lattice_ties(m):
    # 300 vehicles on 120 integer x-values: many share an x, and integer VRUs
    # see equal squared distances on both sides of every window edge
    rng = np.random.default_rng(m)
    x = rng.integers(0, 120, (4, 300)).astype(float)
    lanes = rng.integers(0, 2, 300)
    vru_x = np.concatenate([np.arange(-3.0, 124.0, 3.0), rng.integers(0, 240, 20) / 2.0])
    _check_block(vru_x, x, lanes, LANE_Y, m)


def test_windowed_search_vrus_beyond_every_vehicle():
    rng = np.random.default_rng(1)
    x = rng.integers(100, 400, (3, 250)).astype(float)
    lanes = rng.integers(0, 2, 250)
    vru_x = [-1000.0, 0.0, 99.0, 100.0, 399.0, 400.0, 401.0, 5000.0]
    block = _check_block(vru_x, x, lanes, LANE_Y, 7)
    assert np.all(x[0][block[0, 0]] == np.sort(x[0])[:7])
    assert np.all(x[0][block[0, -1]] == np.sort(x[0])[::-1][:7])


def test_windowed_search_sparse_and_empty_lanes():
    rng = np.random.default_rng(2)
    x = rng.integers(0, 200, (3, 200)).astype(float)
    vru_x = np.arange(-5.0, 210.0, 7.0)
    # lane 1 holds three vehicles, fewer than m
    lanes = np.zeros(200, dtype=np.int64)
    lanes[[17, 80, 151]] = 1
    _check_block(vru_x, x, lanes, LANE_Y, 9)
    # lane 1 is empty
    _check_block(vru_x, x, np.zeros(200, dtype=np.int64), LANE_Y, 9)
    # lane 1 is empty and nearer the VRUs than lane 0: the certificate's
    # lateral bound (16) lies below every real vehicle's offset (1600), so
    # windows fail it and retry
    _check_block(vru_x, x, np.zeros(200, dtype=np.int64), (40.0, 4.0), 9)


@pytest.mark.parametrize("m", [150, 151, 400])
def test_windowed_search_cluster_covers_every_vehicle(m):
    rng = np.random.default_rng(m)
    x = rng.integers(0, 100, (2, 150)).astype(float)
    lanes = rng.integers(0, 2, 150)
    block = _check_block(np.arange(-10.0, 120.0, 13.0), x, lanes, LANE_Y, m)
    assert block.shape[-1] == 150


def test_windowed_search_retries_past_a_stacked_lane():
    # lane 1, 40 m off the strip on the far side, has 200 vehicles stacked
    # at the VRU's x; lane 0 has one vehicle per metre around it. The
    # members are lane-0 vehicles on both sides of the stack, and those past
    # it lie 200 sorted positions away, out of reach of any 2m window around
    # the VRU: only the retry with wider windows finds them.
    lane0 = np.arange(1400.0, 1601.0)
    x = np.stack([np.concatenate([lane0, np.full(200, c)]) for c in (1500.0, 1450.5)])
    lanes = np.repeat([0, 1], [lane0.size, 200])
    block = _check_block([1500.0, 1450.5, 1499.5], x, lanes, (4.0, -40.0), 5)
    # 1501 and 1451 lie past the 200 stacked vehicles in sorted order
    assert sorted(x[0][block[0, 0]]) == [1498.0, 1499.0, 1500.0, 1501.0, 1502.0]
    assert sorted(x[1][block[1, 1]]) == [1448.0, 1449.0, 1450.0, 1451.0, 1452.0]


def test_ul_allocation_examples():
    assert list(prb_share(POOL, n_hat(np.array([0, 0])), 1)) == [25.0, 25.0]
    assert list(prb_share(POOL, n_hat(np.array([2])), 1)) == [50.0]
    crowded = prb_share(POOL, n_hat(np.zeros(20, dtype=np.int64)), 1)
    assert all(v == pytest.approx(2.5) for v in crowded)


def test_ul_allocation_conserves_pool_per_bin():
    rng = np.random.default_rng(0)
    offsets = np.array([int(rng.integers(0, 5)) for _ in range(137)])
    eta = prb_share(POOL, n_hat(offsets), 1)
    for b in range(5):
        share = eta[offsets == b].sum()
        if share:
            assert share == pytest.approx(POOL.total_prbs, rel=1e-9)


def test_ul_latency_log2_unit_case():
    # 1 PRB at 0 dB: rate = 180 kHz * log2(2) = 180 kbps
    assert ul_latency(180_000.0, 1.0, 0.0, POOL) == pytest.approx(1.0, rel=1e-12)


def test_ul_latency_worked_example():
    rate = 10.0 * 180e3 * math.log2(1.0 + 10.0 ** 1.5)
    assert link_rate_bps(10.0, 15.0, POOL) == pytest.approx(rate, rel=1e-9)
    assert rate == pytest.approx(9.05e6, rel=1e-3)
    t = ul_latency(10_000.0, 10.0, 15.0, POOL)
    assert t == pytest.approx(10_000.0 / rate, rel=1e-9)
    assert t == pytest.approx(1.105e-3, rel=1e-3)


def test_ul_latency_halves_when_prbs_double():
    assert ul_latency(1e4, 20.0, 9.0, POOL) == 0.5 * ul_latency(1e4, 10.0, 9.0, POOL)


def test_ul_latency_strictly_decreasing_in_snr_and_prbs():
    snrs = np.linspace(-10, 40, 26)
    ts = [ul_latency(1e4, 5.0, s, POOL) for s in snrs]
    assert all(b < a for a, b in zip(ts, ts[1:]))
    etas = np.linspace(0.5, 50, 30)
    ts = [ul_latency(1e4, e, 10.0, POOL) for e in etas]
    assert all(b < a for a, b in zip(ts, ts[1:]))


def test_ul_latency_unreachable():
    with pytest.raises(UnreachableLinkError):
        ul_latency(1e4, 0.0, 10.0, POOL)
    with pytest.raises(UnreachableLinkError):
        ul_latency(1e4, 5.0, -np.inf, POOL)


def test_dl_allocation_examples():
    # one cluster of 5 alone in its bin; 20 clusters of 5 sharing one bin
    assert list(prb_share(POOL, n_hat(np.array([3])), 5)) == pytest.approx([10.0])
    assert list(prb_share(POOL, n_hat(np.full(20, 3)), 5)) == pytest.approx([0.5] * 20)


def _snr_for_rate(rate_bps, prbs):
    # invert rate = prbs * 180e3 * log2(1 + snr)
    return 10.0 * math.log10(2.0 ** (rate_bps / (prbs * 180e3)) - 1.0)


def _dl_one(size, prbs, member_snrs):
    """DL latency of a single packet whose cluster members see ``member_snrs``."""
    (t,) = dl_latency(np.array([size]), np.array([prbs]), np.array([member_snrs]), POOL)
    return t


def test_dl_latency_max_rule():
    snrs = [_snr_for_rate(1e6, 1.0), _snr_for_rate(2e6, 1.0)]
    t = _dl_one(1e4, 1.0, snrs)
    assert t == pytest.approx(10e-3, rel=1e-9)  # slowest member (1 Mbps) decides


def test_dl_latency_singleton():
    expected = 1e4 / link_rate_bps(10.0, 12.0, POOL)
    assert _dl_one(1e4, 10.0, [12.0]) == pytest.approx(expected, rel=1e-12)


def test_dl_latency_farthest_member_dominates_without_fading():
    # deterministic SNR falls with distance, so the farthest member is slowest
    from camlat.channel import ChannelParams, LinkBudget, sample_snr_db

    budget = LinkBudget(
        ChannelParams(shadow_std_db=0.0, fast_fade_std_db=0.0),
        tx_power_dbm=46.0, h_ue_m=1.5, additional_losses_db=15.0,
    )
    distances = np.array([50.0, 120.0, 300.0, 800.0])
    snrs = sample_snr_db(budget, distances, np.random.default_rng(0))
    times = 1e4 / link_rate_bps(np.full(4, 2.0), snrs, POOL)
    assert int(np.argmax(times)) == 3
    assert _dl_one(1e4, 2.0, snrs) == pytest.approx(float(np.max(times)), rel=1e-12)


def test_dl_latency_nondecreasing_in_cluster_size():
    # fixed randomness and share: the max over a superset cannot shrink
    rng = np.random.default_rng(8)
    snrs = rng.normal(10.0, 5.0, size=9)
    previous = 0.0
    for m in (1, 3, 5, 7, 9):
        t = _dl_one(1e4, 0.5, snrs[:m])
        assert t >= previous
        previous = t


def test_dl_latency_unreachable_member():
    with pytest.raises(UnreachableLinkError):
        _dl_one(1e4, 1.0, [10.0, -np.inf])


def test_dl_latency_requires_one_snr_per_member():
    # one row of member SNRs per packet: a flat list or a missing row is refused
    with pytest.raises(ValueError):
        dl_latency(np.array([1e4]), np.array([1.0]), np.array([10.0, 12.0]), POOL)
    with pytest.raises(ValueError):
        dl_latency(np.full(2, 1e4), np.ones(2), np.array([[10.0, 12.0]]), POOL)


# --- padded multi-replication blocks -----------------------------------------


@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_padded_block_search_matches_exhaustive_sort(data):
    # each replication has its own vehicle count, lanes and VRUs; its rows are
    # padded at x = +inf on lane 0 to the block's largest count, as the engine does
    m = data.draw(st.integers(min_value=1, max_value=6))
    periods = data.draw(st.integers(min_value=1, max_value=3))
    counts = data.draw(st.lists(st.integers(min_value=m, max_value=20), min_size=1, max_size=4))
    n = data.draw(st.integers(min_value=1, max_value=5))
    coordinates = st.integers(min_value=0, max_value=40)
    rows, v = len(counts) * periods, max(counts)
    x = np.full((rows, v), np.inf)
    ys = np.full((rows, v), np.inf)
    lanes = np.zeros((rows, v), dtype=np.int64)
    vru_x = np.empty((rows, n))
    for b, count in enumerate(counts):
        lane = data.draw(st.lists(st.integers(0, 1), min_size=count, max_size=count))
        vrus = data.draw(st.lists(coordinates, min_size=n, max_size=n))
        for r in range(b * periods, (b + 1) * periods):
            x[r, :count] = data.draw(st.lists(coordinates, min_size=count, max_size=count))
            ys[r, :count] = [4.0 * k for k in lane]
            lanes[r, :count] = lane
            vru_x[r] = vrus
    block = nearest_member_indices(vru_x, x, lanes, (0.0, 4.0), m)
    assert block.shape == (rows, n, m)
    for r in range(rows):
        count = counts[r // periods]
        for i in range(n):
            real = slice(0, count)
            expected = _oracle_indices(vru_x[r, i], x[r, real], ys[r, real], lanes[r, real], m)
            assert list(block[r, i]) == expected, (r, i)
