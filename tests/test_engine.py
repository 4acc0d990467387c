"""Replication pipeline: determinism, substreams, aggregation, hand-checked chain."""

import ctypes
import hashlib
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from camlat import channel, engine, radio, scenario
from camlat.config import default_plan, plan_from_document
from camlat.errors import CamlatError, ScenarioError, UnreachableLinkError
from camlat.experiments import SweepSpec, run_sweep
from camlat.latency import COMPONENT_KEYS, compose_e2e
from camlat.radio import link_rate_bps
from camlat.rng import SubstreamFactory
from camlat.scenario import Scenario, sample_scenario
from camlat.traffic import PACKET_DTYPE, generate_period

ROOT = Path(__file__).resolve().parent.parent


def _small_plan(**engine_overrides):
    doc = {
        "scenario": {"vru_count": 10},
        "engine": {"replications": 3, "periods": 2, "master_seed": 77, **engine_overrides},
    }
    return plan_from_document(doc)


def _scenario(vru_count):
    """One vehicle at (1600, 4) on lane 0; every VRU at (1500, 0)."""
    return Scenario(
        vehicle_x=np.array([1600.0]),
        vehicle_speed=np.array([30.0]),
        vehicle_lane=np.array([0]),
        vru_x=np.full(vru_count, 1500.0),
    )


def _by_key(samples):
    return dict(zip(COMPONENT_KEYS, samples))


def _width(plan):
    """Packets per replication."""
    return plan.periods * plan.scenario.vru_count


def _aggregate_packets(samples, width):
    """``aggregate`` of packets, reduced per replication of ``width`` packets as the engine does."""
    return engine.aggregate(engine.replication_moments(samples, width), width)


def _one_period(scn, plan, packets, streams):
    """``evaluate_period`` on one replication of one period, with replication 0's streams."""
    return engine.evaluate_period(
        plan, scn.vru_x[None], scn.vehicle_x[None, None], scn.vehicle_lane[None],
        packets[None, None], streams, range(0, 1),
    )


def test_hand_checked_single_packet_chain():
    # one VRU, one vehicle, every random range degenerate: the whole pipeline
    # must equal an independently computed arithmetic chain
    plan = plan_from_document({
        "scenario": {"vru_count": 1},
        "traffic": {"period_ms": 100, "offset_bins": 1, "packet_kbits": [10, 10],
                    "compute_cycles_per_bit": [200, 200]},
        "channel": {"shadowing_std_db": 0, "fast_fading_std_db": 0, "dl_calibration_loss_db": 0},
        "radio": {"cluster_size": 1},
        "network": {"backhaul_mbps": 10, "tn_cn_one_way_ms": [45, 45],
                    "server_gcycles_per_s": 9},
        "engine": {"replications": 1, "periods": 1},
    })
    packets = generate_period(1, plan.traffic, np.random.default_rng(0))
    samples = _one_period(_scenario(1), plan, packets, SubstreamFactory(0))

    height_terms = (
        -17.3 * math.log10(10.0 - 1.0)
        - 17.3 * math.log10(1.5 - 1.0)
        + 2.7 * math.log10(5.9)
        - 7.56
    )
    d_ul = math.hypot(1500.0 - 1500.0, 0.0 - 10.0)
    snr_ul = 23.0 - (22.7 * math.log10(d_ul) + height_terms) - 15.0 + 110.0
    rate_ul = 50 * 180e3 * math.log2(1.0 + 10.0 ** (snr_ul / 10.0))
    t_ul = 10_000.0 / rate_ul

    t_bh = 10_000.0 * 1 / 1e7
    t_exc = 1 * 10_000.0 * 200.0 / 9e9
    t_tn_cn = 0.045

    d_dl = math.hypot(1600.0 - 1500.0, 4.0 - 10.0)
    snr_dl = 46.0 - (22.7 * math.log10(d_dl) + height_terms) - 15.0 + 110.0
    rate_dl = 50 * 180e3 * math.log2(1.0 + 10.0 ** (snr_dl / 10.0))
    t_dl = 10_000.0 / rate_dl

    assert samples.shape == (7, 1)
    result = _by_key(samples[:, 0])
    assert result["ul"] == pytest.approx(t_ul, rel=1e-9)
    assert result["bh"] == pytest.approx(t_bh, rel=1e-9)
    assert result["tn_cn"] == pytest.approx(t_tn_cn, rel=1e-9)
    assert result["exc"] == pytest.approx(t_exc, rel=1e-9)
    assert result["dl"] == pytest.approx(t_dl, rel=1e-9)
    assert result["e2e_cloud"] == pytest.approx(t_ul + 2 * (t_bh + t_tn_cn) + t_exc + t_dl, rel=1e-9)
    assert result["e2e_mec"] == pytest.approx(t_ul + t_exc + t_dl, rel=1e-9)


def test_resource_sharing_is_isolated_per_offset_bin():
    # two VRUs in different bins must each see the whole pool, exactly like
    # a lone sender; pooling across bins would double both latencies
    plan = plan_from_document({
        "scenario": {"vru_count": 2},
        "traffic": {"offset_bins": 2, "packet_kbits": [10, 10],
                    "compute_cycles_per_bit": [200, 200]},
        "channel": {"shadowing_std_db": 0, "fast_fading_std_db": 0},
        "radio": {"cluster_size": 1},
        "network": {"tn_cn_one_way_ms": [45, 45]},
        "engine": {"replications": 1, "periods": 1},
    })

    def _packets(bins):
        return np.array([(b, 1e4, 200.0) for b in bins], dtype=PACKET_DTYPE)

    streams = SubstreamFactory(0)
    split = _by_key(_one_period(_scenario(2), plan, _packets([0, 1]), streams))
    lone = _by_key(_one_period(_scenario(1), plan, _packets([0]), streams))
    for key in ("ul", "dl"):
        assert split[key] == pytest.approx(np.repeat(lone[key], 2), rel=1e-12)


def test_lanes_sit_at_plus_and_minus_the_offset_in_the_enb_distance():
    # lane_width_m = 8 puts the lanes at +-(8/2 + 2) = +-6 m; the eNB stands
    # at y = 10. Each VRU's one member is the vehicle at its own x, lane 0's
    # at 1600 and lane 1's at 1400, 100 m from the eNB along x: lane 0's is
    # 4 m and lane 1's 16 m from it across, so swapping the signs swaps the
    # two DL latencies.
    plan = plan_from_document({
        "scenario": {"vru_count": 2, "lane_width_m": 8.0},
        "traffic": {"offset_bins": 1},
        "channel": {"shadowing_std_db": 0, "fast_fading_std_db": 0},
        "radio": {"cluster_size": 1},
        "engine": {"replications": 1, "periods": 1},
    })
    assert plan.scenario.lane_offset_m == 8.0 / 2 + 2.0
    assert plan_from_document({}).scenario.lane_offset_m == 4.0 / 2 + 2.0
    scn = Scenario(
        vehicle_x=np.array([1600.0, 1400.0]),
        vehicle_speed=np.array([30.0, -30.0]),
        vehicle_lane=np.array([0, 1]),
        vru_x=np.array([1600.0, 1400.0]),
    )
    packets = np.array([(0, 1e4, 200.0)] * 2, dtype=PACKET_DTYPE)
    dl = _by_key(_one_period(scn, plan, packets, SubstreamFactory(0)))["dl"]

    budget = plan.channel.dl_budget()
    distance = np.hypot(100.0, np.array([6.0 - 10.0, -6.0 - 10.0]))
    rate = link_rate_bps(25.0, channel.mean_snr_db(budget, distance), plan.radio)
    assert dl == pytest.approx(1e4 / rate, rel=1e-12)
    assert dl[0] != pytest.approx(dl[1], rel=1e-3)


def test_closed_form_means_at_the_default_point():
    # The bin count of a packet is n_hat = 1 + Binomial(N - 1, 1/K), so
    # E[n_hat] = 1 + (N - 1)/K; size l and compute density beta are
    # independent uniforms. Four component means and the cloud-edge saving
    # follow in closed form. Each simulated mean must lie within 4 standard
    # errors of the replication means of it.
    plan = default_plan()
    n_hat = 1.0 + (plan.scenario.vru_count - 1) / plan.traffic.offset_bins
    size = np.mean(plan.traffic.size_bits_range)
    beta = np.mean(plan.traffic.compute_cycles_per_bit)
    bh = size * n_hat / plan.network.backhaul_bps
    tn_cn = np.mean(plan.network.tn_cn_one_way_s)
    exact = {
        "bh": bh,
        "exc": n_hat * size * beta / plan.network.server_cycles_per_s,
        "tn_cn": tn_cn,
        "saving": 2.0 * (bh + tn_cn),
    }
    assert [exact[key] * 1e3 for key in exact] == pytest.approx([20.8, 41.6 / 9, 45.0, 131.6])

    means = _by_key(engine.run_plan(plan)[:, :, 0])
    means["saving"] = means["e2e_cloud"] - means["e2e_mec"]
    for key, value in exact.items():
        standard_error = np.std(means[key], ddof=1) / np.sqrt(plan.replications)
        assert abs(np.mean(means[key]) - value) < 4.0 * standard_error, key


def test_ul_mean_equals_its_quadrature_oracle_at_the_default_point():
    # The UL latency is l * n_hat / (PRBs * W * log2(1 + SNR)) with size l,
    # bin count n_hat and SNR independent, so E[UL] = E[l] E[n_hat]
    # E[1/log2(1 + SNR)] / (PRBs * W). The SNR is the mean SNR at the VRU's
    # eNB distance, x uniform on the strip, minus one normal: a midpoint grid
    # over x and Gauss-Hermite nodes over the normal. The simulated mean must
    # lie within the 95 % CI of the replication means around it.
    plan = default_plan()
    budget = plan.channel.ul_budget()
    low, high = plan.scenario.vru_strip_m
    x = low + (np.arange(2000) + 0.5) * (high - low) / 2000
    enb_x, enb_y = plan.scenario.enb_position_m
    z, weights = hermegauss(60)
    std = math.hypot(budget.channel.shadowing_std_db, budget.channel.fast_fading_std_db)
    snr_db = channel.mean_snr_db(budget, np.hypot(x - enb_x, enb_y))[:, None] - std * z
    inverse_rate = (1.0 / np.log2(1.0 + 10.0 ** (snr_db / 10.0))) @ (weights / weights.sum())
    n_hat = 1.0 + (plan.scenario.vru_count - 1) / plan.traffic.offset_bins
    size = np.mean(plan.traffic.size_bits_range)
    pool_hz = plan.radio.total_prbs * plan.radio.prb_bandwidth_hz
    exact = size * n_hat * np.mean(inverse_rate) / pool_hz
    assert exact * 1e3 == pytest.approx(0.8007, abs=1e-4)

    means = _by_key(engine.run_plan(plan)[:, :, 0])["ul"]
    half_width = 1.96 * np.std(means, ddof=1) / np.sqrt(plan.replications)
    assert abs(np.mean(means) - exact) < half_width


def test_run_replication_bit_identical():
    plan = _small_plan()
    assert np.array_equal(
        engine.run_replication(plan, range(1, 2)), engine.run_replication(plan, range(1, 2))
    )


def test_replications_use_distinct_substreams():
    plan = _small_plan()
    a = engine.run_replication(plan, range(0, 1))
    b = engine.run_replication(plan, range(1, 2))
    assert not np.array_equal(a, b)


def test_aggregates_independent_of_execution_order():
    plan = _small_plan()
    sequential = engine.aggregate(engine.run_plan(plan), _width(plan))
    shuffled = {rep: engine.run_replication(plan, range(rep, rep + 1)) for rep in (2, 0, 1)}
    merged = np.concatenate([shuffled[rep] for rep in range(plan.replications)], axis=1)
    assert _aggregate_packets(merged, _width(plan)) == sequential


def _default_point(**engine_overrides):
    return plan_from_document({"engine": {"replications": 13, **engine_overrides}})


@pytest.mark.parametrize(
    "make_plan, block_sizes",
    # the default point makes more blocks than workers, the last one short
    [(_small_plan, [3]), (_default_point, [6, 6, 1])],
    ids=["one-block", "three-blocks"],
)
def test_workers_do_not_change_aggregates(monkeypatch, make_plan, block_sizes):
    monkeypatch.setattr(engine, "BLOCK_PAIRS", 30_000)
    plan = make_plan()
    assert [len(block) for block in engine._blocks(plan, range(plan.replications))] == block_sizes
    serial = engine.run_plan(make_plan(workers=1))
    parallel = engine.run_plan(make_plan(workers=2))
    assert np.array_equal(serial, parallel)
    assert serial.tobytes() == parallel.tobytes()
    width = _width(plan)
    assert engine.aggregate(serial, width) == engine.aggregate(parallel, width)


def test_a_pool_plan_gets_at_least_two_blocks_per_worker(monkeypatch):
    # a serial run fills each block up to BLOCK_PAIRS; on a pool of w workers
    # a block holds at most max(1, R // 2w) replications, so no worker idles;
    # w counts only the workers the pool opens, at most one per CPU
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    serial, pooled = _default_point(), _default_point(workers=2)
    assert engine._blocks(_default_point(workers=8), range(13)) == engine._blocks(pooled, range(13))
    fits = engine.BLOCK_PAIRS // (serial.periods * serial.scenario.vru_count * 5)
    assert max(len(block) for block in engine._blocks(serial, range(13))) == min(13, fits)
    assert [len(block) for block in engine._blocks(pooled, range(13))] == [3, 3, 3, 3, 1]
    for replications in (4, 20, 200):
        assert len(engine._blocks(pooled, range(replications))) >= 4
    assert engine.run_plan(pooled).tobytes() == engine.run_plan(serial).tobytes()


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_a_task_list_gets_at_least_two_blocks_per_worker_or_one_per_replication(
    monkeypatch, workers
):
    # T replications on w workers make at least min(T, 2w) blocks, whether
    # they come as one plan or split between two plans of one task list
    monkeypatch.setattr(os, "cpu_count", lambda: workers)
    plan = _default_point(workers=workers)
    for total in range(1, 65):
        assert len(engine._blocks(plan, range(total))) >= min(total, 2 * workers), total
        for first in range(1, total):
            blocks = [engine._blocks(plan, range(r), total) for r in (first, total - first)]
            assert sum(map(len, blocks)) >= min(total, 2 * workers), (first, total)


@pytest.fixture
def recording_pool(monkeypatch):
    """The (plan, block) of every task submitted to a 2-worker pool, in order.

    The pool is a serial stand-in: each task runs when its result is read.
    """
    tasks = []

    class RecordingPool:
        def __init__(self, max_workers):
            pass

        def submit(self, task, args):
            tasks.append(args)
            return SimpleNamespace(result=partial(task, args))

        def shutdown(self, cancel_futures):
            pass

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(engine, "ProcessPoolExecutor", RecordingPool)
    return tasks


def test_pool_blocks_are_sized_by_the_whole_task_list(recording_pool):
    # five plans of 20 on 2 workers, equal but for their cluster sizes, share
    # their blocks. T = 100 counts each plan's replications and caps a block
    # at 25, so only BLOCK_PAIRS at the largest size (10 fit at 9) cuts them,
    # in 2 tasks, where counting the shared blocks' 20 once would cap them at
    # 5, in 4, and each plan's own blocks would be 8 tasks
    plans = [
        plan_from_document({"radio": {"cluster_size": m}, "engine": {"replications": 20}})
        for m in (1, 3, 5, 7, 9)
    ]
    with engine.pool(2) as executor:
        runs = engine.run_plans([replace(plan, workers=2) for plan in plans], executor)
        moments = [run() for run in runs]
    assert [len(block) for _, block in recording_pool] == [10, 10]
    for plan, got in zip(plans, moments):
        assert got.tobytes() == engine.run_plan(plan).tobytes()


def test_a_lone_pool_plan_keeps_its_own_blocks(recording_pool):
    # run_plan submits a task list of its own plan: T = R = 13 on 2 workers
    plan = _default_point(workers=2)
    moments = engine.run_plan(plan)
    assert [len(block) for _, block in recording_pool] == [3, 3, 3, 3, 1]
    assert moments.tobytes() == engine.run_plan(_default_point()).tobytes()


def test_equal_plans_in_a_task_list_run_once(recording_pool):
    # T = 26 on 2 workers caps a block at 6: one set of blocks serves both
    plan = _default_point(workers=2)
    with engine.pool(2) as executor:
        runs = engine.run_plans([plan, replace(plan)], executor)
        first, second = runs[0](), runs[1]()
    assert [(plans, len(block)) for plans, block in recording_pool] == [
        ((plan,), 6), ((plan,), 6), ((plan,), 1)
    ]
    assert first.tobytes() == second.tobytes() == engine.run_plan(_default_point()).tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_a_size_failing_in_a_shared_block_fails_its_own_plan(monkeypatch, workers):
    # The DL fails at cluster size 9 in replication 3 only. The shared block
    # raises and each plan runs it again alone, so the size-9 plan raises
    # what it raises alone, and sizes 1 and 5 return their lone bytes.
    plans = [
        plan_from_document({
            "scenario": {"vru_count": 10}, "traffic": {"offset_bins": 1},
            "radio": {"cluster_size": m},
            "engine": {"replications": 6, "periods": 2, "workers": workers},
        })
        for m in (1, 5, 9)
    ]
    streams = SubstreamFactory(plans[0].master_seed)
    rep_3_sizes = generate_period(20, plans[0].traffic, streams.stream("traffic", 3))["size_bits"]
    dl_latency = radio.dl_latency

    def failing(size_bits, prbs, slowest_snr_db, params):
        # one offset bin: every packet shares its PRBs with the 10 VRUs' packets
        members = np.rint(params.total_prbs / (prbs * 10))
        for sizes, row in zip(size_bits, members):
            if np.array_equal(sizes.ravel(), rep_3_sizes) and np.all(row == 9):
                raise UnreachableLinkError("a cluster of 9 in replication 3")
        return dl_latency(size_bits, prbs, slowest_snr_db, params)

    evaluations = []  # each evaluate_period call's replications, seen in this process only
    evaluate_period = engine.evaluate_period

    def counted(plan, vru_x, vehicle_x, lane, packets, streams, replications, *sizes):
        evaluations.append(len(replications))
        return evaluate_period(plan, vru_x, vehicle_x, lane, packets, streams, replications, *sizes)

    def cost():
        """The evaluate_period calls and replication-evaluations since the last cost()."""
        counts = len(evaluations), sum(evaluations)
        evaluations.clear()
        return counts

    monkeypatch.setattr(radio, "dl_latency", failing)
    monkeypatch.setattr(engine, "evaluate_period", counted)
    message = "^replication 3: a cluster of 9 in replication 3$"
    with pytest.raises(UnreachableLinkError, match=message):
        engine.run_plan(plans[2])
    costs = [cost()]
    lone = []
    for plan in plans[:2]:
        lone.append(engine.run_plan(plan).tobytes())
        costs.append(cost())
    with engine.pool(workers) as executor:
        runs = engine.run_plans(plans, executor)
        with pytest.raises(UnreachableLinkError, match=message):
            runs[2]()
        assert [run().tobytes() for run in runs[:2]] == lone
    costs.append(cost())
    if workers == 1:
        # size 9 alone names replication 3 by rerunning 0 to 3 one by one: 5
        # calls over 10 replications. The group names no replication: its
        # failing block runs each plan as a group of one, 1 + 1 + 1 + 5 calls
        assert costs == [(5, 10), (1, 6), (1, 6), (8, 28)]


@pytest.mark.parametrize("workers", [1, 2])
def test_plans_of_a_shared_block_fail_at_their_own_replications(monkeypatch, workers):
    # A 243 dB DL loss leaves some clusters with an unreachable member, the
    # more often the larger the cluster: the five sizes share one block of 8
    # serially, sizes 1 and 3 pass, and 5, 7 and 9 fail at replications 2, 6
    # and 5, each as its plan fails alone. Nothing is patched to fail; the
    # wrapper below only counts evaluate_period's calls.
    plan = plan_from_document({
        "channel": {"dl_calibration_loss_db": 243},
        "engine": {"replications": 8, "periods": 2, "master_seed": 1729, "workers": workers},
    })
    evaluations = []  # each evaluate_period call's replications, seen in this process only
    evaluate_period = engine.evaluate_period

    def counted(plan, vru_x, vehicle_x, lane, packets, streams, replications, *sizes):
        evaluations.append(len(replications))
        return evaluate_period(plan, vru_x, vehicle_x, lane, packets, streams, replications, *sizes)

    monkeypatch.setattr(engine, "evaluate_period", counted)
    result = run_sweep(SweepSpec("cluster_size", (1, 3, 5, 7, 9), plan))
    if workers == 1:
        # the group's block, sizes 1 and 3 once each, then sizes 5, 7 and 9
        # alone: the block and its replications up to 2, 6 and 5 one by one,
        # 4 calls over 11, 8 over 15 and 7 over 14 replications
        assert (len(evaluations), sum(evaluations)) == (22, 64)
    assert [row.value for row in result.rows] == [1, 3]
    unreachable = "a downlink cluster has an unreachable member"
    assert result.failures == (
        (5, f"replication 2: {unreachable}"),
        (7, f"replication 6: {unreachable}"),
        (9, f"replication 5: {unreachable}"),
    )
    for size, message in result.failures:
        with pytest.raises(UnreachableLinkError, match=f"^{message}$"):
            engine.run_plan(replace(plan, radio=replace(plan.radio, cluster_size=size)))


@pytest.mark.parametrize(
    ("document", "budget"),
    # 31.9 and 25.7 bytes per (packet, cluster member) pair measured with
    # numpy 2.4.6, plus a margin of about 15 %
    [
        ({}, 37.0),
        ({"scenario": {"vehicle_intensity_per_m": 0.09}, "radio": {"cluster_size": 9}}, 30.0),
    ],
    ids=["default", "dense"],
)
def test_block_working_set_stays_within_its_bytes_per_pair_budget(document, budget):
    plan = plan_from_document(document)
    block = engine._blocks(plan, range(plan.replications))[0]
    pairs = len(block) * plan.periods * plan.scenario.vru_count * plan.radio.cluster_size
    peak = _first_block_peak(plan)
    assert peak / pairs <= budget, peak / pairs


@pytest.mark.parametrize(
    ("document", "budget"),
    # 23.5 and 27.2 bytes per pair at cluster size 9 measured with numpy
    # 2.4.6, within the budgets above
    [({}, 37.0), ({"scenario": {"vehicle_intensity_per_m": 0.09}}, 30.0)],
    ids=["default", "dense"],
)
def test_a_shared_block_stays_within_the_budget_of_its_largest_size(document, budget):
    # the cluster sweep's five sizes share a block sized at 9: it holds its
    # members at 9 only, and one size's DL and total rows at a time
    plan = plan_from_document(document)
    group = tuple(
        replace(plan, radio=replace(plan.radio, cluster_size=m)) for m in (1, 3, 5, 7, 9)
    )
    block = engine._blocks(group[-1], range(plan.replications))[0]
    pairs = len(block) * plan.periods * plan.scenario.vru_count * 9
    peak = _peak(partial(engine._group_moments, group, block))
    assert peak / pairs <= budget, peak / pairs


def _first_block_peak(plan):
    """The tracemalloc peak of the plan's first block, after a warm-up run of it."""
    block = engine._blocks(plan, range(plan.replications))[0]
    return _peak(partial(engine._group_moments, (plan,), block))


def _peak(run):
    """The tracemalloc peak of ``run()``, after a warm-up call of it."""
    run()  # warm-up: imports and caches
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_block_counts_the_vehicles_of_a_long_road():
    # With the VRU strip spanning the road, the reach cut keeps every
    # vehicle, so a block's vehicle arrays grow with the road. At 30 km and
    # 0.09 /m a replication's 5,400 vehicles outnumber its 900 pairs per
    # period, so its blocks shrink to one replication and the first one
    # peaks no higher than the 3 km road's block of ten.
    def plan(km):
        return plan_from_document({
            "scenario": {
                "lane_length_km": km, "vehicle_intensity_per_m": 0.09,
                "vru_strip_m": [0.0, km * 1e3], "enb_position_m": [km * 500.0, 10.0],
            },
            "radio": {"cluster_size": 9},
        })

    assert [len(engine._blocks(plan(km), range(10))[0]) for km in (3.0, 30.0)] == [10, 1]
    assert _first_block_peak(plan(30.0)) <= _first_block_peak(plan(3.0))


def test_a_block_counts_the_offset_bins_of_its_periods():
    # traffic.n_hat counts a block's bins in a table of one slot per (period,
    # bin): at 100,000 bins one replication's 10 periods hold 10**6 slots,
    # past BLOCK_PAIRS, so each block holds one replication (about 8 MB).
    plan = plan_from_document({"traffic": {"offset_bins": 100_000}})
    assert len(engine._blocks(plan, range(plan.replications))[0]) == 1
    assert _first_block_peak(plan) < 16e6


@pytest.mark.parametrize("workers", [1, 2])
def test_run_plans_gives_each_plan_its_own_moments(monkeypatch, workers):
    # 1, 2, 4, 7 and 3 blocks: the blocks of every plan share one task list
    monkeypatch.setattr(engine, "BLOCK_PAIRS", 30_000)
    documents = [
        {"radio": {"cluster_size": 1}},
        {"scenario": {"vru_count": 50}},
        {"radio": {"cluster_size": 5}},
        {"radio": {"cluster_size": 9}},
        {"radio": {"cluster_size": 5}, "engine": {"replications": 13}},
    ]
    plans = [
        plan_from_document({**doc, "engine": {"replications": 20, **doc.get("engine", {})}})
        for doc in documents
    ]
    assert [len(engine._blocks(p, range(p.replications))) for p in plans] == [1, 2, 4, 7, 3]
    with engine.pool(workers) as executor:
        moments = [run() for run in engine.run_plans(plans, executor)]
    for plan, got in zip(plans, moments):
        assert got.tobytes() == engine.run_plan(plan).tobytes()
    # each callable runs its own plan, not the last one built
    assert len({got.tobytes() for got in moments}) == len(plans)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_plan_fails_alone(workers):
    # 1e-5 /m leaves replication 0's road empty; on 2 workers that block
    # fails inside a worker, and the plans queued after it still return
    good = plan_from_document({"engine": {"replications": 4}})
    empty = plan_from_document(
        {"scenario": {"vehicle_intensity_per_m": 1e-5}, "engine": {"replications": 4}}
    )
    with engine.pool(workers) as executor:
        runs = engine.run_plans([good, empty, good], executor)
        with pytest.raises(
            ScenarioError, match="^replication 0: no vehicles on the road; cannot form clusters$"
        ):
            runs[1]()
        assert runs[2]().tobytes() == runs[0]().tobytes() == engine.run_plan(good).tobytes()


# Golden per-replication moments: SHA-256 of the replication means,
# ``run_plan(plan)[..., 0]``, and of the sums of squared deviations,
# ``[..., 1]``, at R = 12. Pinned on Python 3.11.7, numpy 2.4.6, as criterion
# 7's tables are: numpy does not promise the same Generator streams across
# versions. Re-pin only when the sample path or the model moves, with the
# reason in CHANGES.md; a refactor leaves them as they are.
GOLDEN_DOCUMENTS = {
    "default": {},
    "dense": {"scenario": {"vehicle_intensity_per_m": 0.09}, "radio": {"cluster_size": 9}},
    # the CLI tests' SPARSE: roads shorter than the cluster size
    "sparse": {"scenario": {"vehicle_intensity_per_m": 0.002}, "radio": {"cluster_size": 9}},
    "log-distance": {"profile": "table-literal", "channel": {"pathloss_model": "log-distance"}},
}
GOLDEN_MOMENTS_SHA256 = {
    ("default", 1729): (
        "82709087ed4d717f65b49f08d4346bd8621c3a900f9da4553b8d87f0901add4f",
        "3bd1ae5137a929b631b72970fcdf3fd60e99a2413af7b0ced920c74ebc961e2c",
    ),
    ("default", 2718): (
        "2e51fe5f453db0a15dcafd7c405a16b228fc2637548149b194fcc4d323cfdb7d",
        "171361e73cb58d92d24fc6280250ba41300ecc29afafd9164483ad6980d96702",
    ),
    ("dense", 1729): (
        "ab7626a79ddc767c7dc1f845e52f974253d4c8ef5e37169317f81eed0cb4ac1d",
        "b1d8daac9324dc4738f85579d8ce476300d63b5a05636511e456fb87f483f365",
    ),
    ("dense", 2718): (
        "805554f072e6781fa39e74b4aed59ad7f1b5b5fd3605c2d803a880f8c64939e8",
        "74657d4812f2d568dba9634a92b6144c888fdc1c40d19893e68c084446ddcfab",
    ),
    ("sparse", 1729): (
        "8994850c0bd576c461e65844e59021bade09d4f8938c4505eb1482607101436f",
        "691d39ce0db25677ad206983500d9880ab2637edb815571df96c57dd4da0dd73",
    ),
    ("sparse", 2718): (
        "aab6285567344f2d687a8c91af8e68c2e6658b103aad817fed1b248fb5d36677",
        "4769bffc309c3dcb16e6437b8b341ffb2a346079a7dd31770f8771f87976ed83",
    ),
    ("log-distance", 1729): (
        "eb276cb41625b13bf0781ece80ee278fd82e93795b21dbbdfce73a0bae2ddd8b",
        "c347d70d4e9b9c14935e4e3fee9e91b53e628d13d4e124c5ea94944216d71864",
    ),
    ("log-distance", 2718): (
        "75e9062e425535fa2e3723e97c82c01997cee9596ba0fc06789930d77befc9a6",
        "d1171fb3aeb720b5009a3357b3b46151c956874583951ae63891aae1f22e0845",
    ),
}


def _golden_plan(case, seed):
    engine_section = {"master_seed": seed, "replications": 12}
    return plan_from_document({**GOLDEN_DOCUMENTS[case], "engine": engine_section})


def _moments_sha256(moments):
    return tuple(hashlib.sha256(moments[..., k].tobytes()).hexdigest() for k in (0, 1))


@pytest.mark.parametrize(("case", "seed"), list(GOLDEN_MOMENTS_SHA256))
def test_moments_match_their_golden_digests_on_1_and_2_workers(monkeypatch, case, seed):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a real 2-worker pool
    plan = _golden_plan(case, seed)
    serial = engine.run_plan(plan)
    assert engine.run_plan(replace(plan, workers=2)).tobytes() == serial.tobytes()
    assert _moments_sha256(serial) == GOLDEN_MOMENTS_SHA256[case, seed]


def test_a_golden_cluster_size_group_gives_each_size_its_lone_bytes(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    plan = _golden_plan("default", 1729)
    sizes = [replace(plan, radio=replace(plan.radio, cluster_size=m)) for m in (1, 5, 9)]
    lone = [engine.run_plan(size) for size in sizes]
    assert _moments_sha256(lone[1]) == GOLDEN_MOMENTS_SHA256["default", 1729]  # size 5
    for workers in (1, 2):
        group = [replace(size, workers=workers) for size in sizes]
        with engine.pool(workers) as executor:
            shared = [run().tobytes() for run in engine.run_plans(group, executor)]
        assert shared == [moments.tobytes() for moments in lone]


@pytest.mark.parametrize("cpus, expected", [(3, 3), (None, 1), (8000, 5000)])
def test_pool_opens_at_most_one_worker_per_cpu(monkeypatch, cpus, expected):
    # a recording fake: no process is started
    opened = []

    class RecordingPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def shutdown(self, cancel_futures):
            opened.append("shutdown")

    monkeypatch.setattr(engine, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    with engine.pool(5000) as executor, engine.pool(5000) as inner:
        assert inner is executor
    assert opened == [expected, "shutdown"]


def test_pooled_statistics_match_the_packet_level_oracle():
    # 5 replications of 2 periods x 10 VRUs: the pooled moments give the
    # mean and CI half-width of all 100 packets
    plan = _small_plan(replications=5)
    stats = engine.aggregate(engine.run_plan(plan), _width(plan))
    packets = engine.run_replication(plan, range(plan.replications))
    assert packets.shape == (7, 5 * _width(plan))
    for key, values in zip(COMPONENT_KEYS, packets):
        assert stats[key].mean_s == pytest.approx(np.mean(values), rel=1e-12), key
        half_width = 1.96 * np.std(values, ddof=1) / math.sqrt(values.size)
        assert stats[key].ci95_half_width_s == pytest.approx(half_width, rel=1e-12), key
        assert stats[key].sample_count == values.size


def _constant_packets(n):
    """n packets whose components are 1, 2, 3, 4 and 5 ms."""
    # the last two rows are the totals compose_e2e writes
    return compose_e2e(np.repeat([[1e-3], [2e-3], [3e-3], [4e-3], [5e-3], [0.0], [0.0]], n, axis=1))


def test_aggregate_singleton_and_constant():
    one = _constant_packets(1)
    stats = _aggregate_packets(one, 1)
    assert stats["ul"].mean_s == 1e-3
    assert stats["ul"].ci95_half_width_s == 0.0
    assert stats["ul"].sample_count == 1

    stats = _aggregate_packets(_constant_packets(40), 10)
    assert stats["e2e_cloud"].mean_s == pytest.approx(_by_key(one[:, 0])["e2e_cloud"], rel=1e-12)
    assert stats["e2e_cloud"].ci95_half_width_s == pytest.approx(0.0, abs=1e-15)


def test_aggregate_empty_is_error():
    with pytest.raises(CamlatError, match="^cannot aggregate an empty sample set$"):
        engine.aggregate(np.empty((7, 0, 2)), 10)


def test_ci_shrinks_like_sqrt_n():
    rng = np.random.default_rng(5)

    def synthetic(n):
        # each row of draws is one packet's five components
        components = np.abs(rng.normal(1e-3, 2e-4, size=(n, 5))).T
        return compose_e2e(np.vstack([components, np.empty((2, n))]))

    small = _aggregate_packets(synthetic(2000), 100)
    large = _aggregate_packets(synthetic(8000), 100)
    for key in engine.COMPONENT_KEYS:
        ratio = small[key].ci95_half_width_s / large[key].ci95_half_width_s
        assert 1.6 < ratio < 2.4


def test_identity_and_dominance_on_simulated_packets():
    samples = engine.run_replication(_small_plan(), range(3))
    assert samples.shape == (7, 3 * 2 * 10)
    b = _by_key(samples)
    assert np.array_equal(b["e2e_cloud"], b["e2e_mec"] + 2.0 * (b["bh"] + b["tn_cn"]))
    assert np.all(b["e2e_mec"] <= b["e2e_cloud"])
    assert np.all(samples[:5] >= 0)
    stats = _aggregate_packets(samples, 2 * 10)
    assert stats["e2e_cloud"].mean_s >= stats["e2e_mec"].mean_s


def test_empty_road_raises_scenario_error_with_context():
    doc = {
        "scenario": {"vehicle_intensity_per_m": 1e-12},
        "engine": {"replications": 1, "periods": 1, "master_seed": 3},
    }
    plan = plan_from_document(doc)
    with pytest.raises(ScenarioError, match="replication 0"):
        engine.run_plan(plan)
    # the block itself raises the pipeline's error; only run_plan names the replication
    with pytest.raises(ScenarioError, match="^no vehicles on the road; cannot form clusters$"):
        engine.run_replication(plan, range(0, 1))


def test_unreachable_downlink_raises_with_context():
    # a huge DL margin drives every member's rate to zero: a typed error, not inf
    doc = {
        "channel": {"dl_calibration_loss_db": 1e4},
        "engine": {"replications": 1, "periods": 1},
    }
    with pytest.raises(UnreachableLinkError, match="replication 0"):
        engine.run_plan(plan_from_document(doc))


def test_non_finite_component_fails_loudly():
    # a hand-built plan is not validated, so it can carry a NaN capacity
    plan = default_plan()
    plan = replace(
        plan, network=replace(plan.network, backhaul_bps=float("nan")), replications=1, periods=2
    )
    with pytest.raises(CamlatError, match="^replication 0: .*finite and non-negative: bh$"):
        engine.run_plan(plan)


@pytest.mark.parametrize(
    ("network", "key"),
    [({"backhaul_mbps": 1e-310}, "bh"), ({"server_gcycles_per_s": 1e-310}, "exc")],
    ids=["bh", "exc"],
)
def test_tiny_valid_capacity_fails_by_name_without_a_warning(network, key):
    # the capacity passes validation, but the latency overflows to +inf; under
    # the suite's error::RuntimeWarning filter a numpy overflow warning would
    # raise in place of the typed error naming the component
    plan = plan_from_document({"network": network, "engine": {"replications": 2, "periods": 2}})
    message = f"^replication 0: latency components must be finite and non-negative: {key}$"
    with pytest.raises(CamlatError, match=message):
        engine.run_plan(plan)


def test_aggregate_rejects_non_finite_means_and_half_widths():
    # two replications of two packets: finite backhaul latencies whose spread
    # overflows, and a cloud total that overflowed to +inf in compose_e2e;
    # each component is named, with no numpy warning on the way
    samples = np.ones((7, 4))
    samples[1] = (0.0, 0.0, 1e300, 1e300)
    samples[5, 0] = np.inf
    with pytest.raises(CamlatError, match="^means and CI half-widths must be finite: bh, e2e_cloud$"):
        _aggregate_packets(samples, 2)


def test_period_block_matches_period_by_period():
    # with the fading stds at zero and a degenerate transport+core range no
    # draw depends on its position in a block, so one block of periods must
    # equal the periods evaluated one at a time, column for column: the
    # period axis of the bin counts, the cluster search and the DL
    plan = plan_from_document({
        "scenario": {"vru_count": 12},
        "channel": {"shadowing_std_db": 0.0, "fast_fading_std_db": 0.0},
        "radio": {"cluster_size": 4},
        "network": {"tn_cn_one_way_ms": [45.0, 45.0]},
        "engine": {"periods": 3, "master_seed": 11},
    })
    streams = SubstreamFactory(plan.master_seed)
    scn = sample_scenario(plan.scenario, streams, 0)
    vehicle_x = np.stack([scn.vehicle_x + 25.0 * p for p in range(3)]) % 3000.0
    packets = generate_period(36, plan.traffic, streams.stream("traffic", 0)).reshape(3, 12)

    def evaluate(rows):
        return engine.evaluate_period(
            plan, scn.vru_x[None], vehicle_x[None, rows], scn.vehicle_lane[None],
            packets[None, rows], streams, range(0, 1),
        )

    block = evaluate(slice(0, 3))
    single = [evaluate(slice(p, p + 1)) for p in range(3)]
    assert np.array_equal(block, np.concatenate(single, axis=1))
    assert not np.array_equal(packets[0]["offset_bin"], packets[1]["offset_bin"])


def test_replication_draws_one_stream_per_purpose(monkeypatch):
    # 7 streams per replication: 2 lanes, the VRUs and one per draw purpose,
    # none of them keyed by a period
    keys = []
    stream = SubstreamFactory.stream

    def recording(self, purpose, *indices):
        keys.append((purpose, *indices))
        return stream(self, purpose, *indices)

    monkeypatch.setattr(SubstreamFactory, "stream", recording)
    engine.run_replication(_small_plan(periods=4), range(2, 3))
    assert sorted(keys) == sorted([
        ("vehicles", 2, 0), ("vehicles", 2, 1), ("vrus", 2),
        ("traffic", 2), ("ul", 2), ("dl", 2), ("tn_cn", 2),
    ])


def _scenarios(plan):
    streams = SubstreamFactory(plan.master_seed)
    sample = scenario.sample_scenario
    return [sample(plan.scenario, streams, rep) for rep in range(plan.replications)]


def _build_roads(monkeypatch, vehicles):
    """Give replication r the vehicles ``vehicles(r)``, x-positions and lanes, and its own VRUs."""
    sample = scenario.sample_scenario

    def built(params, streams, replication):
        x, lanes = vehicles(replication)
        lanes = np.asarray(lanes, dtype=np.int64)
        return replace(
            sample(params, streams, replication),
            vehicle_x=np.asarray(x, dtype=float),
            vehicle_speed=np.where(lanes == 0, 30.0, -30.0),
            vehicle_lane=lanes,
        )

    monkeypatch.setattr(scenario, "sample_scenario", built)


@pytest.mark.parametrize(
    ("cluster_size", "replications", "block_pairs", "block_sizes", "short"),
    [
        pytest.param(9, 16, 30_000, [16], 3, id="30000"),
        pytest.param(9, 16, 5 * 3 * 10 * 9, [5, 5, 5, 1], 3, id=str(5 * 3 * 10 * 9)),
        pytest.param(13, 8, 30_000, [8], 8, id="all-short"),
    ],
)
def test_blocks_match_replications_run_one_by_one(
    monkeypatch, cluster_size, replications, block_pairs, block_sizes, short
):
    # replications 1, 9 and 13 hold 4 vehicles, fewer than the cluster size of
    # 9, so a block mixes full and short roads, and replication 5 holds 9
    # vehicles beside an empty lane; the second budget cuts the 16
    # replications into blocks of 5. At cluster size 13 every road is short:
    # one block whose width, 12 vehicles, is below the cluster size
    def vehicles(rep):
        if rep == 5:
            return 320.0 * np.arange(9) + 150.0, np.ones(9)
        count = 4 if rep % 4 == 1 else 12
        return (240.0 * np.arange(count) + 37.0 * rep) % 3000.0, np.arange(count) % 2

    _build_roads(monkeypatch, vehicles)
    monkeypatch.setattr(engine, "BLOCK_PAIRS", block_pairs)
    plan = plan_from_document({
        "scenario": {"vru_count": 10, "vehicle_intensity_per_m": 0.002},
        "radio": {"cluster_size": cluster_size},
        "engine": {"replications": replications, "periods": 3, "master_seed": 24},
    })
    scenarios = _scenarios(plan)
    counts = [scn.vehicle_count for scn in scenarios]
    assert sum(count < cluster_size for count in counts) == short
    assert max(counts) == 12 and counts[5] == 9 and np.all(scenarios[5].vehicle_lane == 1)
    blocks = engine._blocks(plan, range(plan.replications))
    assert [len(block) for block in blocks] == block_sizes
    one_by_one = [engine.run_replication(plan, range(r, r + 1)) for r in range(plan.replications)]
    by_block = [engine.run_replication(plan, block) for block in blocks]
    assert np.array_equal(np.concatenate(by_block, axis=1), np.concatenate(one_by_one, axis=1))
    moments = [engine.replication_moments(packets, _width(plan)) for packets in one_by_one]
    assert engine.run_plan(plan).tobytes() == np.concatenate(moments, axis=1).tobytes()


def test_empty_road_inside_a_block_names_its_replication(monkeypatch):
    # replication 2's road is empty; every other one holds a vehicle per lane
    _build_roads(monkeypatch, lambda rep: ([], []) if rep == 2 else ([1400.0, 1700.0], [0, 1]))
    plan = plan_from_document({
        "scenario": {"vehicle_intensity_per_m": 2e-4},
        "radio": {"cluster_size": 1},
        "engine": {"replications": 8, "periods": 1, "master_seed": 4},
    })
    counts = [scn.vehicle_count for scn in _scenarios(plan)]
    assert counts[0] > 0 and counts.index(0) == 2
    assert len(engine._blocks(plan, range(plan.replications))) == 1
    with pytest.raises(ScenarioError, match="^replication 2: "):
        engine.run_plan(plan)


def test_unreachable_link_inside_a_block_names_its_replication(monkeypatch):
    # replication 2's vehicles are moved 1e12 m along x, past the road's end:
    # no DL member of its VRUs can be reached, while its block-mates are unaffected
    sample = scenario.sample_scenario

    def far_road(params, streams, replication):
        scn = sample(params, streams, replication)
        if replication == 2:
            scn = replace(scn, vehicle_x=scn.vehicle_x + 1e12)
        return scn

    monkeypatch.setattr(scenario, "sample_scenario", far_road)
    plan = _small_plan(replications=4)
    assert len(engine._blocks(plan, range(plan.replications))) == 1
    engine.run_replication(plan, range(0, 2))
    with pytest.raises(UnreachableLinkError, match="^replication 2: "):
        engine.run_plan(plan)


def _keep_every_vehicle(monkeypatch):
    monkeypatch.setattr(engine, "_within_reach", lambda plan, scn: slice(None))


# name -> (document, whether the cut drops vehicles at some replication:
# True, never: False, either: None)
_REACH_CASES = {
    "default": ({}, True),
    "dense": ({"scenario": {"vehicle_intensity_per_m": 0.09}, "radio": {"cluster_size": 9}}, True),
    "cluster_1": ({"radio": {"cluster_size": 1}}, True),
    # some roads hold fewer vehicles than the cluster size
    "sparse_cluster_9": (
        {"scenario": {"vehicle_intensity_per_m": 0.002}, "radio": {"cluster_size": 9}}, None
    ),
    "no_mobility": ({"scenario": {"mobility": False}}, True),
    # the kept interval reaches a road end: vehicles could wrap around into it
    "strip_at_start": ({"scenario": {"vru_strip_m": [5.0, 300.0]}}, False),
    "strip_at_end": ({"scenario": {"vru_strip_m": [2800.0, 2999.0]}}, False),
    "fast_40_periods": (
        {"scenario": {"speed_kmh": [10.0, 250.0]}, "engine": {"periods": 40}}, None
    ),
}


@pytest.mark.parametrize("seed", [1729, 2718])
@pytest.mark.parametrize("case", list(_REACH_CASES))
def test_reach_cut_changes_no_output(monkeypatch, case, seed):
    doc, drops = _REACH_CASES[case]
    plan = plan_from_document({
        **doc, "engine": {**doc.get("engine", {}), "replications": 40, "master_seed": seed}
    })
    within_reach = engine._within_reach
    dropped = []

    def counting(plan, scn):
        keep = within_reach(plan, scn)
        dropped.append(scn.vehicle_count - scn.vehicle_x[keep].size)
        return keep

    monkeypatch.setattr(engine, "_within_reach", counting)
    cut = engine.run_plan(plan)
    assert len(dropped) == plan.replications
    if drops is not None:
        assert any(dropped) == drops
    _keep_every_vehicle(monkeypatch)
    assert np.array_equal(engine.run_plan(plan), cut)


def _reach_plan(mobility=True):
    """VRUs on [1490, 1510], cluster size 2, 3 periods of 100 ms."""
    return plan_from_document({
        "scenario": {"vru_count": 10, "vru_strip_m": [1490.0, 1510.0], "mobility": mobility},
        "radio": {"cluster_size": 2},
        "engine": {"replications": 2, "periods": 3, "master_seed": 5},
    })


def _kept(plan):
    streams = SubstreamFactory(plan.master_seed)
    scn = scenario.sample_scenario(plan.scenario, streams, 0)
    keep = engine._within_reach(plan, scn)
    return scn, replace(
        scn,
        vehicle_x=scn.vehicle_x[keep],
        vehicle_speed=scn.vehicle_speed[keep],
        vehicle_lane=scn.vehicle_lane[keep],
    )


def _cut_matches_every_vehicle(monkeypatch, plan):
    cut = engine.run_plan(plan)
    _keep_every_vehicle(monkeypatch)
    return np.array_equal(engine.run_plan(plan), cut)


def test_reach_cut_keeps_the_interval_in_index_order(monkeypatch):
    # Vehicles move at most D = 2 * 0.1 s * 30 m/s = 6 m, so w = 12 m + eps.
    # The 2nd vehicle below the VRUs is at 1470 and the 2nd above at 1530:
    # [1458, 1542] is kept, 1457.9 and 1542.1 are dropped.
    x = [2900.0, 1542.0, 1480.0, 100.0, 1457.9, 1520.0, 1458.0, 1530.0, 1542.1, 1470.0, 1500.0]
    lanes = [0, 1, 0, 1, 0, 1, 1, 0, 1, 1, 0]
    _build_roads(monkeypatch, lambda rep: (x, lanes))
    plan = _reach_plan()
    scn, kept = _kept(plan)
    index = [1, 2, 5, 6, 7, 9, 10]
    assert np.array_equal(kept.vehicle_x, scn.vehicle_x[index])
    assert np.array_equal(kept.vehicle_lane, scn.vehicle_lane[index])
    assert np.array_equal(kept.vehicle_speed, scn.vehicle_speed[index])
    assert np.array_equal(kept.vru_x, scn.vru_x)
    assert _cut_matches_every_vehicle(monkeypatch, plan)


def test_reach_cut_keeps_a_side_short_of_cluster_vehicles_whole(monkeypatch):
    # One vehicle below the VRUs, fewer than the cluster size: that side is
    # kept whole. Without mobility nothing wraps around, so the other side
    # is cut at the 2nd vehicle above (1530) plus eps; with mobility the kept
    # interval would reach the road's start, so nothing is cut.
    x = [100.0, 1530.0, 1600.0, 1520.0, 2900.0]
    lanes = [0, 1, 0, 0, 1]
    _build_roads(monkeypatch, lambda rep: (x, lanes))
    scn, moving = _kept(_reach_plan())
    assert np.array_equal(moving.vehicle_x, scn.vehicle_x)
    plan = _reach_plan(mobility=False)
    scn, kept = _kept(plan)
    assert np.array_equal(kept.vehicle_x, scn.vehicle_x[[0, 1, 3]])
    assert _cut_matches_every_vehicle(monkeypatch, plan)


def test_reach_cut_uses_the_replications_own_speeds(monkeypatch):
    # The road drives at 30 m/s, far above speed_kmh's 20 km/h: in 1 s the
    # vehicle at 1450 closes to 1480 and joins a VRU's cluster from period 6,
    # while the ones at 1480 and 1520 drive away from the VRUs. A reach taken
    # from speed_kmh (5.6 m) would drop it; the road's own (30 m) keeps it,
    # and drops only the vehicle at 200.
    x = [1480.0, 1520.0, 1450.0, 200.0]
    lanes = [1, 0, 0, 1]
    _build_roads(monkeypatch, lambda rep: (x, lanes))
    plan = plan_from_document({
        "scenario": {
            "vru_count": 10, "vru_strip_m": [1499.0, 1501.0], "speed_kmh": [10.0, 20.0]
        },
        "radio": {"cluster_size": 1},
        "engine": {"replications": 2, "periods": 11, "master_seed": 5},
    })
    scn, kept = _kept(plan)
    assert np.array_equal(kept.vehicle_x, scn.vehicle_x[:3])
    assert _cut_matches_every_vehicle(monkeypatch, plan)


def test_reach_cut_slack_keeps_a_vehicle_that_ties_the_edge(monkeypatch):
    # Without mobility the kept interval starts eps below the vehicle at 1.0.
    # The one just below it, on the other lane, sits at the same rounded
    # distance from every VRU and wins the tie on its lower x; without the
    # slack it would be dropped and the other lane's vehicle picked.
    x = [1.0, np.nextafter(1.0, 0.0), 2999.9]
    lanes = [0, 1, 0]
    _build_roads(monkeypatch, lambda rep: (x, lanes))
    plan = plan_from_document({
        "scenario": {"vru_count": 10, "vru_strip_m": [1400.0, 1401.0], "mobility": False},
        "radio": {"cluster_size": 1},
        "engine": {"replications": 2, "periods": 2, "master_seed": 5},
    })
    scn, kept = _kept(plan)
    assert np.array_equal(kept.vehicle_x, scn.vehicle_x)
    assert _cut_matches_every_vehicle(monkeypatch, plan)


def test_memory_does_not_grow_with_replications(monkeypatch):
    # 20 VRUs x 5 periods at cluster size 5: 60 replications fill a block of
    # 30,000 pairs. Each block is reduced to moments before the next one
    # runs, so ten times the replications may not need more than 1.25 times
    # the memory.
    monkeypatch.setattr(engine, "BLOCK_PAIRS", 30_000)
    def plan(replications):
        return plan_from_document({
            "scenario": {"vru_count": 20},
            "engine": {"replications": replications, "periods": 5},
        })

    assert [len(block) for block in engine._blocks(plan(120), range(120))] == [60, 60]

    def traced_peak(replications):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        engine.run_plan(plan(replications))
        return tracemalloc.get_traced_memory()[1] - start

    engine.run_plan(plan(60))  # warm-up: imports and caches
    tracemalloc.start()
    try:
        short, long = traced_peak(120), traced_peak(1200)
    finally:
        tracemalloc.stop()
    assert long <= 1.25 * short, (short, long)


# Minor page faults of a 12- and a 72-replication default run after a
# 1-replication warm-up, in a fresh interpreter.
_FAULTS_SCRIPT = """
import resource
from camlat.config import plan_from_document
from camlat.engine import run_plan

def faults(replications):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_plan(plan_from_document({"engine": {"replications": replications}}))
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

faults(1)
print(faults(12), faults(72))
"""


def test_blocks_reuse_the_memory_earlier_blocks_freed():
    # Freed block memory stays in the process, so more replications do not
    # fault every block's working set in again. The bound is twice the pages
    # of the packets the 60 extra replications fill (the run keeps only
    # their moments).
    resource = pytest.importorskip("resource")
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("mallopt thresholds are a glibc feature")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _FAULTS_SCRIPT], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    short, long = map(int, done.stdout.split())
    plan = plan_from_document({})
    extra_output_pages = (
        len(COMPONENT_KEYS) * 60 * plan.periods * plan.scenario.vru_count * 8
        / resource.getpagesize()
    )
    assert long - short < 2 * extra_output_pages, (short, long, extra_output_pages)


def test_run_plan_without_mallopt_gives_the_same_bytes(monkeypatch):
    # A libc without mallopt (any but glibc) leaves the allocator as it is.
    plan = _small_plan()
    expected = engine.run_plan(plan).tobytes()
    opened = []

    def libc_without_mallopt(name, *args, **kwargs):
        opened.append(name)
        return object()

    monkeypatch.setattr(ctypes, "CDLL", libc_without_mallopt)
    engine._keep_freed_memory.cache_clear()
    try:
        assert engine.run_plan(plan).tobytes() == expected
    finally:
        engine._keep_freed_memory.cache_clear()
    assert opened
