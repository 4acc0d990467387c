"""Radio section, scheduling, clustering, and radio latency."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camlat.config import default_plan
from camlat.errors import UnreachableLinkError
from camlat.radio import (
    _lower_bound,
    dl_latency,
    link_rate_bps,
    nearest_member_indices,
    prb_share,
    ul_latency,
)
from camlat.traffic import n_hat

RADIO = default_plan().radio


# Lateral distance of both lanes from the VRUs: lane 0 at +4 m, lane 1 at -4 m,
# as ``lane_width_m`` = 4 puts them.
OFFSET = 4.0


def _nearest(vru_x, xs, m):
    """Nearest-member indices of one VRU at (vru_x, 0) among vehicles at xs."""
    xs = np.asarray(xs, dtype=float)
    return nearest_member_indices(np.array([[vru_x]]), xs[None, None], m)[0, 0]


def test_pool_default_prb_count():
    assert RADIO.total_prbs == 50


def test_select_cluster_example():
    xs = np.array([1490.0, 1510.0, 1400.0, 1600.0, 2000.0])
    assert list(xs[_nearest(1500.0, xs, 3)]) == [1490.0, 1510.0, 1400.0]


def test_select_cluster_saturates():
    assert _nearest(1500.0, [100.0, 200.0], 10).size == 2


def test_select_cluster_tie_breaks_toward_lower_x():
    xs = np.array([1510.0, 1490.0])
    assert xs[_nearest(1500.0, xs, 1)[0]] == 1490.0


def test_select_cluster_empty_road():
    # an empty road is the engine's ScenarioError; the search itself returns no members
    assert _nearest(0.0, [], 1).shape == (0,)
    block = nearest_member_indices(np.zeros((2, 3)), np.empty((2, 4, 0)), 5)
    assert block.shape == (8, 3, 0)


def _lane_y(lanes):
    """Each vehicle's signed lateral position: lane 0 at +OFFSET, lane 1 at -OFFSET."""
    return np.where(np.asarray(lanes) == 0, OFFSET, -OFFSET)


def _oracle_indices(vru_x, xs, ys, m):
    """Brute force: rank by (squared distance, x, index) with every vehicle at |y| = OFFSET."""
    def key(i):
        d2 = (xs[i] - vru_x) ** 2 + ys[i] ** 2
        return (d2, xs[i], i)

    return sorted(range(len(xs)), key=key)[:m]


@settings(deadline=None, max_examples=150)
@given(
    xs=st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=40),
    m=st.integers(min_value=1, max_value=8),
    vru_x=st.integers(min_value=0, max_value=60),
)
def test_select_cluster_matches_exhaustive_sort(xs, m, vru_x):
    # integer coordinates force exact-distance ties, exercising the tie-break;
    # lane 0 holds the first half of the vehicles, lane 1 the rest
    xs = [float(x) for x in xs]
    ys = _lane_y([2 * i >= len(xs) for i in range(len(xs))])
    nearest = _nearest(float(vru_x), xs, m)
    assert list(nearest) == _oracle_indices(float(vru_x), xs, ys, m)


def _rounded_oracle(vru_x, xs, m):
    """Brute force on the search's own rounded distances: rank by ((q - x)**2, x, index)."""
    d2 = [(vru_x - x) * (vru_x - x) for x in xs]
    return sorted(range(len(xs)), key=lambda i: (d2[i], xs[i], i))[:m]


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_select_cluster_matches_rounded_oracle_on_float_coordinates(data):
    # off-lattice floats, where distances round: some vehicles and VRUs repeat
    # a drawn value or sit one ulp from it, so equal and nearly equal x occur
    # on both sides of a VRU
    values = data.draw(st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=8), label="values")
    near = st.sampled_from(values).flatmap(
        lambda x: st.sampled_from([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
    )
    coordinate = st.one_of(near, st.floats(-1e4, 1e4))
    periods = data.draw(st.integers(1, 3), label="periods")
    v = data.draw(st.integers(1, 30), label="v")
    m = data.draw(st.integers(1, 12), label="m")
    row = st.lists(coordinate, min_size=v, max_size=v)
    x = np.array(data.draw(st.lists(row, min_size=periods, max_size=periods), label="x"))
    vru_x = np.array(data.draw(st.lists(coordinate, min_size=1, max_size=6), label="vru_x"))
    block = nearest_member_indices(vru_x[None], x[None], m)
    assert block.shape == (periods, vru_x.size, min(m, v))
    for p in range(periods):
        for i, q in enumerate(vru_x):
            assert list(block[p, i]) == _rounded_oracle(float(q), list(x[p]), m), (p, i)


# --- search on (periods, vehicles) stacks ---------------------------------------
# Coordinates sit on a lattice, so every squared distance is exact in floating
# point and the oracle's ties are the search's ties.


def _check_block(vru_x, x, lanes, m):
    """The (P, V) search equals the one-row search and the brute-force oracle, row by row.

    Every row shares the VRUs and the lanes, as one replication's periods do;
    the lanes, numbered lane 0 first as a scenario numbers them, only set the
    oracle's signed y.
    """
    vru_x = np.asarray(vru_x, dtype=float)
    ys = _lane_y(lanes)
    rows = x.shape[0]
    block = nearest_member_indices(vru_x[None], x[None], m)
    assert block.shape == (rows, vru_x.size, min(m, x.shape[1]))
    for p, row in enumerate(x):
        single = nearest_member_indices(vru_x[None], row[None, None], m)[0]
        assert single.dtype == np.intp
        assert np.array_equal(single, block[p])
        for i, q in enumerate(vru_x):
            assert list(block[p, i]) == _oracle_indices(q, row, ys, m), (p, i)
    return block


@pytest.mark.parametrize("m", [1, 2, 5, 9, 16])
def test_search_lattice_ties(m):
    # 300 vehicles on 120 integer x-values: many share an x, and integer VRUs
    # see equal squared distances on both sides of them
    rng = np.random.default_rng(m)
    x = rng.integers(0, 120, (4, 300)).astype(float)
    lanes = np.sort(rng.integers(0, 2, 300))
    vru_x = np.concatenate([np.arange(-3.0, 124.0, 3.0), rng.integers(0, 240, 20) / 2.0])
    _check_block(vru_x, x, lanes, m)


def test_search_vrus_beyond_every_vehicle():
    rng = np.random.default_rng(1)
    x = rng.integers(100, 400, (3, 250)).astype(float)
    lanes = np.sort(rng.integers(0, 2, 250))
    vru_x = [-1000.0, 0.0, 99.0, 100.0, 399.0, 400.0, 401.0, 5000.0]
    block = _check_block(vru_x, x, lanes, 7)
    assert np.all(x[0][block[0, 0]] == np.sort(x[0])[:7])
    assert np.all(x[0][block[0, -1]] == np.sort(x[0])[::-1][:7])


def test_search_sparse_and_empty_lanes():
    rng = np.random.default_rng(2)
    x = rng.integers(0, 200, (3, 200)).astype(float)
    vru_x = np.arange(-5.0, 210.0, 7.0)
    # lane 1 holds three vehicles, fewer than m
    lanes = np.zeros(200, dtype=np.int64)
    lanes[-3:] = 1
    _check_block(vru_x, x, lanes, 9)
    # lane 1 is empty
    _check_block(vru_x, x, np.zeros(200, dtype=np.int64), 9)


@pytest.mark.parametrize("m", [150, 151, 400])
def test_search_cluster_covers_every_vehicle(m):
    rng = np.random.default_rng(m)
    x = rng.integers(0, 100, (2, 150)).astype(float)
    lanes = np.sort(rng.integers(0, 2, 150))
    block = _check_block(np.arange(-10.0, 120.0, 13.0), x, lanes, m)
    assert block.shape[-1] == 150


def test_search_re_ranks_past_a_stacked_lane():
    # lane 0 has one vehicle per metre on [1400, 1600]; lane 1, numbered
    # after it, has 200 vehicles stacked at 1497. For the VRU at 1500 the 6th
    # and 7th members tie at dx^2 = 9 with every vehicle at 1497 and with
    # 1503, and the tie goes to the lowest indices: lane 0's 1497 and the
    # first stacked one. Walked downward from the VRU, the left side meets
    # that run of equal distances at its highest index, 400: only the re-rank
    # of the entry over its whole row finds lane 0's 1497.
    lane0 = np.arange(1400.0, 1601.0)
    x = np.concatenate([lane0, np.full(200, 1497.0)])[None]
    lanes = np.repeat([0, 1], [lane0.size, 200])
    block = _check_block([1500.0], x, lanes, 7)
    assert sorted(block[0, 0]) == [97, 98, 99, 100, 101, 102, 201]


def test_search_with_a_stacked_lane_on_the_right():
    # the mirror of the case above: lane 1's 200 vehicles stack at 1503, on
    # the right of the VRU at 1500. The dx^2 = 9 tie goes to 1497 first
    # (lower x), then to lane 0's 1503, the lowest index at that x. The right
    # side is walked upward in (x, index) order, so the merge alone gives it
    # and no entry is ranked again.
    lane0 = np.arange(1400.0, 1601.0)
    x = np.concatenate([lane0, np.full(200, 1503.0)])[None]
    lanes = np.repeat([0, 1], [lane0.size, 200])
    block = _check_block([1500.0], x, lanes, 7)
    assert list(block[0, 0]) == [100, 99, 101, 98, 102, 97, 103]


def test_search_re_ranks_two_equal_x_runs_on_the_left():
    # left of the VRU at 35 lie 30 and two runs of equal x: 20 at indices 1
    # and 4, 10 at indices 0, 3 and 5. Walked downward, each run would come
    # out highest index first. On the right, 40, 50 and 60 tie with 30, 20
    # and 10 and rank after them.
    xs = [10.0, 20.0, 30.0, 10.0, 20.0, 10.0, 40.0, 50.0, 60.0]
    ranked = [2, 6, 1, 4, 7, 0, 3, 5, 8]
    for m in range(1, len(xs) + 1):
        assert list(_nearest(35.0, xs, m)) == ranked[:m], m
    # in a block, entries that need the re-rank sit beside ones that do not
    x = np.array([xs, xs[::-1]])
    _check_block([35.0, 25.0, 45.0, 15.0, 0.0, 65.0], x, np.zeros(len(xs), dtype=int), 6)


def test_padded_row_with_fewer_real_vehicles_than_m():
    # replication 0 holds six vehicles and replication 1 two, padded at +inf
    # to six. With m = 4, replication 1's rows give their two real vehicles,
    # nearest first, then the padding indices 2 and 3 in index order, and
    # never an index outside the row.
    x = np.array([
        [[5.0, 1.0, 9.0, 3.0, 7.0, 2.0], [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]],
        [[8.0, 4.0] + [np.inf] * 4, [4.0, 8.0] + [np.inf] * 4],
    ])
    block = nearest_member_indices(np.array([[4.0, 0.0], [6.0, 100.0]]), x, 4)
    expected = [
        [[3, 0, 5, 1], [1, 5, 3, 0]],
        [[3, 0, 5, 1], [1, 5, 3, 0]],
        [[1, 0, 2, 3], [0, 1, 2, 3]],
        [[0, 1, 2, 3], [1, 0, 2, 3]],
    ]
    assert block.tolist() == expected


@pytest.mark.parametrize("v", [1, 2, 3, 7, 8, 9, 64, 300])
def test_lower_bound_equals_searchsorted_left(v):
    # integer values repeat, and rows may end in +inf padding or in a NaN,
    # as the cluster search frames them; the queries fall below, between, on
    # and above every value
    rng = np.random.default_rng(v)
    xs = np.sort(rng.integers(0, 20, (6, v)).astype(float), axis=1)
    xs[1, v // 2 :] = np.inf
    xs[2] = np.inf
    xs[3, -1] = np.nan
    q = rng.integers(-2, 23, (6, 11)).astype(float)
    q[:, 0] = np.inf
    expected = np.concatenate([np.searchsorted(row, queries) for row, queries in zip(xs, q)])
    assert np.array_equal(_lower_bound(xs, q), expected)


def test_ul_allocation_examples():
    assert list(prb_share(RADIO, n_hat(np.array([0, 0])), 1)) == [25.0, 25.0]
    assert list(prb_share(RADIO, n_hat(np.array([2])), 1)) == [50.0]
    crowded = prb_share(RADIO, n_hat(np.zeros(20, dtype=np.int64)), 1)
    assert all(v == pytest.approx(2.5) for v in crowded)


def test_ul_allocation_conserves_pool_per_bin():
    rng = np.random.default_rng(0)
    offsets = np.array([int(rng.integers(0, 5)) for _ in range(137)])
    eta = prb_share(RADIO, n_hat(offsets), 1)
    for b in range(5):
        share = eta[offsets == b].sum()
        if share:
            assert share == pytest.approx(RADIO.total_prbs, rel=1e-9)


def test_ul_latency_log2_unit_case():
    # 1 PRB at 0 dB: rate = 180 kHz * log2(2) = 180 kbps
    assert ul_latency(180_000.0, 1.0, 0.0, RADIO) == pytest.approx(1.0, rel=1e-12)


def test_ul_latency_worked_example():
    rate = 10.0 * 180e3 * math.log2(1.0 + 10.0 ** 1.5)
    assert link_rate_bps(10.0, 15.0, RADIO) == pytest.approx(rate, rel=1e-9)
    assert rate == pytest.approx(9.05e6, rel=1e-3)
    t = ul_latency(10_000.0, 10.0, 15.0, RADIO)
    assert t == pytest.approx(10_000.0 / rate, rel=1e-9)
    assert t == pytest.approx(1.105e-3, rel=1e-3)


def test_ul_latency_halves_when_prbs_double():
    assert ul_latency(1e4, 20.0, 9.0, RADIO) == 0.5 * ul_latency(1e4, 10.0, 9.0, RADIO)


def test_ul_latency_strictly_decreasing_in_snr_and_prbs():
    snrs = np.linspace(-10, 40, 26)
    ts = [ul_latency(1e4, 5.0, s, RADIO) for s in snrs]
    assert all(b < a for a, b in zip(ts, ts[1:]))
    etas = np.linspace(0.5, 50, 30)
    ts = [ul_latency(1e4, e, 10.0, RADIO) for e in etas]
    assert all(b < a for a, b in zip(ts, ts[1:]))


def test_ul_latency_unreachable():
    with pytest.raises(UnreachableLinkError):
        ul_latency(1e4, 0.0, 10.0, RADIO)
    with pytest.raises(UnreachableLinkError):
        ul_latency(1e4, 5.0, -np.inf, RADIO)


@pytest.mark.filterwarnings("error")
def test_overflowing_snr_is_an_infinite_rate_not_a_zero_one():
    # 10 ** (SNR / 10) overflows above about 3,083 dB: the rate is +inf, so
    # the error says so, and numpy's overflow warning is not raised
    with pytest.raises(UnreachableLinkError, match="^uplink rate is not finite: its SNR overflows$"):
        ul_latency(1e4, 5.0, np.array([10.0, 4000.0]), RADIO)
    with pytest.raises(UnreachableLinkError, match="^downlink rate is not finite: its SNR overflows$"):
        _dl_one(1e4, 1.0, [4000.0, 5000.0])
    # an overflowing member that is not the slowest one leaves the rate finite
    assert _dl_one(1e4, 1.0, [12.0, 4000.0]) == _dl_one(1e4, 1.0, [12.0])


def test_dl_allocation_examples():
    # one cluster of 5 alone in its bin; 20 clusters of 5 sharing one bin
    assert list(prb_share(RADIO, n_hat(np.array([3])), 5)) == pytest.approx([10.0])
    assert list(prb_share(RADIO, n_hat(np.full(20, 3)), 5)) == pytest.approx([0.5] * 20)


def _snr_for_rate(rate_bps, prbs):
    # invert rate = prbs * 180e3 * log2(1 + snr)
    return 10.0 * math.log10(2.0 ** (rate_bps / (prbs * 180e3)) - 1.0)


def _dl_one(size, prbs, member_snrs):
    """DL latency of a single packet whose cluster members see ``member_snrs``."""
    (t,) = dl_latency(np.array([size]), np.array([prbs]), np.array([member_snrs]), RADIO)
    return t


def test_dl_latency_max_rule():
    snrs = [_snr_for_rate(1e6, 1.0), _snr_for_rate(2e6, 1.0)]
    t = _dl_one(1e4, 1.0, snrs)
    assert t == pytest.approx(10e-3, rel=1e-9)  # slowest member (1 Mbps) decides


def test_dl_latency_singleton():
    expected = 1e4 / link_rate_bps(10.0, 12.0, RADIO)
    assert _dl_one(1e4, 10.0, [12.0]) == pytest.approx(expected, rel=1e-12)


def test_dl_latency_farthest_member_dominates_without_fading():
    # deterministic SNR falls with distance, so the farthest member is slowest
    from camlat.channel import LinkBudget, mean_snr_db, sample_snr_db

    budget = LinkBudget(
        replace(default_plan().channel, shadowing_std_db=0.0, fast_fading_std_db=0.0),
        tx_power_dbm=46.0, h_ue_m=1.5, additional_losses_db=15.0,
    )
    distances = np.array([50.0, 120.0, 300.0, 800.0])
    snrs = sample_snr_db(budget, mean_snr_db(budget, distances), np.random.default_rng(0))
    times = 1e4 / link_rate_bps(np.full(4, 2.0), snrs, RADIO)
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


def _dl_oracle(sizes, prbs, member_snr_db):
    """Per-member oracle of ``dl_latency``: every member's own rate, the slowest one decides."""
    return np.array([
        max(size / link_rate_bps(share, snr, RADIO) for snr in row)
        for size, share, row in zip(sizes, prbs, member_snr_db)
    ])


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_dl_latency_equals_per_member_oracle(data):
    # only the lowest-SNR member's rate is computed: the result must equal
    # the largest of every member's own latency exactly, ties included
    packets = data.draw(st.integers(1, 12), label="packets")
    m = data.draw(st.integers(1, 9), label="m")
    snr_db = st.one_of(st.floats(-60.0, 150.0), st.sampled_from([-3.0, 0.0, 10.0]))
    snr = np.array(data.draw(st.lists(
        st.lists(snr_db, min_size=m, max_size=m), min_size=packets, max_size=packets
    ), label="snr"))
    sizes = np.array(data.draw(st.lists(
        st.floats(1.0, 1e5), min_size=packets, max_size=packets
    ), label="sizes"))
    prbs = np.array(data.draw(st.lists(
        st.floats(0.01, 50.0), min_size=packets, max_size=packets
    ), label="prbs"))
    assert np.array_equal(dl_latency(sizes, prbs, snr, RADIO), _dl_oracle(sizes, prbs, snr))
    # one member too weak to carry a bit makes its whole block unreachable
    row, col = data.draw(st.integers(0, packets - 1)), data.draw(st.integers(0, m - 1))
    snr[row, col] = -1e3
    with pytest.raises(UnreachableLinkError):
        dl_latency(sizes, prbs, snr, RADIO)


def test_dl_latency_requires_one_snr_per_member():
    # one row of member SNRs per packet: a flat list or a missing row is refused
    with pytest.raises(ValueError):
        dl_latency(np.array([1e4]), np.array([1.0]), np.array([10.0, 12.0]), RADIO)
    with pytest.raises(ValueError):
        dl_latency(np.full(2, 1e4), np.ones(2), np.array([[10.0, 12.0]]), RADIO)


# --- padded multi-replication blocks -----------------------------------------


@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_padded_block_search_matches_exhaustive_sort(data):
    # each replication has its own vehicle count, lanes and VRUs; its rows are
    # padded at x = +inf to the block's largest count, as the engine does
    m = data.draw(st.integers(min_value=1, max_value=6))
    periods = data.draw(st.integers(min_value=1, max_value=3))
    counts = data.draw(st.lists(st.integers(min_value=m, max_value=20), min_size=1, max_size=4))
    n = data.draw(st.integers(min_value=1, max_value=5))
    coordinates = st.integers(min_value=0, max_value=40)
    rows, v = len(counts) * periods, max(counts)
    x = np.full((rows, v), np.inf)
    ys = np.full((rows, v), np.inf)
    vru_x = np.empty((rows, n))
    for b, count in enumerate(counts):
        lane = sorted(data.draw(st.lists(st.integers(0, 1), min_size=count, max_size=count)))
        vrus = data.draw(st.lists(coordinates, min_size=n, max_size=n))
        for r in range(b * periods, (b + 1) * periods):
            x[r, :count] = data.draw(st.lists(coordinates, min_size=count, max_size=count))
            ys[r, :count] = _lane_y(lane)
            vru_x[r] = vrus
    # the search takes each replication's VRUs once, and its (P, V) positions
    reps = len(counts)
    block = nearest_member_indices(vru_x[::periods], x.reshape(reps, periods, v), m)
    assert block.shape == (rows, n, m)
    for r in range(rows):
        count = counts[r // periods]
        for i in range(n):
            real = slice(0, count)
            expected = _oracle_indices(vru_x[r, i], x[r, real], ys[r, real], m)
            assert list(block[r, i]) == expected, (r, i)
