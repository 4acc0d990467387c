"""Replication pipeline: determinism, substreams, aggregation, hand-checked chain."""

import math
from dataclasses import replace

import numpy as np
import pytest

from camlat import engine, scenario
from camlat.channel import ChannelParams
from camlat.config import RadioParams, SimulationPlan, plan_from_document
from camlat.errors import (
    AggregationError,
    ConfigurationError,
    ScenarioError,
    UnreachableLinkError,
)
from camlat.latency import COMPONENT_KEYS, NetworkParams, TnCnDistribution, compose_e2e
from camlat.rng import SubstreamFactory
from camlat.scenario import Scenario, ScenarioParams, sample_scenario
from camlat.traffic import PACKET_DTYPE, TrafficParams, generate_period


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


def _one_period(scn, plan, packets, streams):
    """``evaluate_period`` on one replication of one period, with replication 0's streams."""
    return engine.evaluate_period(
        plan, [scn], scn.vehicle_x[None, None], packets[None, None],
        ul_rngs=[streams.stream("ul", 0)],
        dl_rngs=[streams.stream("dl", 0)],
        tn_cn_rngs=[streams.stream("tn_cn", 0)],
    )


def test_hand_checked_single_packet_chain():
    # one VRU, one vehicle, every random range degenerate: the whole pipeline
    # must equal an independently computed arithmetic chain
    scenario_params = ScenarioParams(vru_count=1)
    plan = SimulationPlan(
        scenario=scenario_params,
        traffic=TrafficParams(
            period_s=0.1,
            offset_bins=1,
            size_bits_range=(10_000.0, 10_000.0),
            compute_cycles_per_bit_range=(200.0, 200.0),
        ),
        channel=ChannelParams(shadow_std_db=0.0, fast_fade_std_db=0.0, dl_calibration_loss_db=0.0),
        radio=RadioParams(cluster_size=1),
        network=NetworkParams(
            backhaul_bps=1e7,
            tn_cn=TnCnDistribution(0.045, 0.045),
            server_cycles_per_s=9e9,
        ),
        replications=1,
        periods=1,
    )
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
    scenario_params = ScenarioParams(vru_count=2)
    plan = SimulationPlan(
        scenario=scenario_params,
        traffic=TrafficParams(offset_bins=2, size_bits_range=(1e4, 1e4),
                              compute_cycles_per_bit_range=(200.0, 200.0)),
        channel=ChannelParams(shadow_std_db=0.0, fast_fade_std_db=0.0),
        radio=RadioParams(cluster_size=1),
        network=NetworkParams(tn_cn=TnCnDistribution(0.045, 0.045)),
        replications=1,
        periods=1,
    )

    def _packets(bins):
        return np.array([(b, 1e4, 200.0) for b in bins], dtype=PACKET_DTYPE)

    streams = SubstreamFactory(0)
    split = _by_key(_one_period(_scenario(2), plan, _packets([0, 1]), streams))
    lone = _by_key(_one_period(_scenario(1), plan, _packets([0]), streams))
    for key in ("ul", "dl"):
        assert split[key] == pytest.approx(np.repeat(lone[key], 2), rel=1e-12)


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
    with pytest.raises(ConfigurationError, match="seed"):
        SimulationPlan(master_seed=-1)


def test_aggregates_independent_of_execution_order():
    plan = _small_plan()
    sequential = engine.aggregate(engine.run_plan(plan))
    shuffled = {rep: engine.run_replication(plan, range(rep, rep + 1)) for rep in (2, 0, 1)}
    merged = np.concatenate([shuffled[rep] for rep in range(plan.replications)], axis=1)
    assert engine.aggregate(merged) == sequential


def test_workers_do_not_change_aggregates():
    serial = engine.aggregate(engine.run_plan(_small_plan(workers=1)))
    parallel = engine.aggregate(engine.run_plan(_small_plan(workers=2)))
    assert serial == parallel


def _constant_packets(n):
    """n packets whose components are 1, 2, 3, 4 and 5 ms."""
    return compose_e2e(*np.repeat([[1e-3], [2e-3], [3e-3], [4e-3], [5e-3]], n, axis=1))


def test_aggregate_singleton_and_constant():
    one = _constant_packets(1)
    stats = engine.aggregate(one)
    assert stats["ul"].mean_s == 1e-3
    assert stats["ul"].sample_std_s == 0.0
    assert stats["ul"].ci95_half_width_s == 0.0
    assert stats["ul"].sample_count == 1

    stats = engine.aggregate(_constant_packets(40))
    assert stats["e2e_cloud"].mean_s == pytest.approx(_by_key(one[:, 0])["e2e_cloud"], rel=1e-12)
    assert stats["e2e_cloud"].ci95_half_width_s == pytest.approx(0.0, abs=1e-15)


def test_aggregate_empty_is_error():
    with pytest.raises(AggregationError):
        engine.aggregate(np.empty((7, 0)))


def test_ci_shrinks_like_sqrt_n():
    rng = np.random.default_rng(5)

    def synthetic(n):
        # each row of draws is one packet's five components
        return compose_e2e(*np.abs(rng.normal(1e-3, 2e-4, size=(n, 5))).T)

    small = engine.aggregate(synthetic(2000))
    large = engine.aggregate(synthetic(8000))
    for key in engine.COMPONENT_KEYS:
        ratio = small[key].ci95_half_width_s / large[key].ci95_half_width_s
        assert 1.6 < ratio < 2.4


def test_identity_and_dominance_on_simulated_packets():
    samples = engine.run_plan(_small_plan())
    assert samples.shape == (7, 3 * 2 * 10)
    b = _by_key(samples)
    assert np.array_equal(b["e2e_cloud"], b["e2e_mec"] + 2.0 * (b["bh"] + b["tn_cn"]))
    assert np.all(b["e2e_mec"] <= b["e2e_cloud"])
    assert np.all(samples[:5] >= 0)
    stats = engine.aggregate(samples)
    assert stats["e2e_cloud"].mean_s >= stats["e2e_mec"].mean_s


def test_empty_road_raises_scenario_error_with_context():
    doc = {
        "scenario": {"vehicle_intensity_per_m": 1e-12},
        "engine": {"replications": 1, "periods": 1, "master_seed": 3},
    }
    plan = plan_from_document(doc)
    with pytest.raises(ScenarioError, match="replication 0"):
        engine.run_replication(plan, range(0, 1))


def test_unreachable_downlink_raises_with_context():
    # a huge DL margin drives every member's rate to zero: a typed error, not inf
    doc = {
        "channel": {"dl_calibration_loss_db": 1e4},
        "engine": {"replications": 1, "periods": 1},
    }
    with pytest.raises(UnreachableLinkError, match="replication 0"):
        engine.run_replication(plan_from_document(doc), range(0, 1))


def test_non_finite_component_fails_loudly():
    # a library-built plan can carry NaN past NetworkParams' `<= 0` check
    plan = SimulationPlan(
        network=NetworkParams(backhaul_bps=float("nan")), replications=1, periods=2
    )
    with pytest.raises(ValueError, match="finite"):
        engine.run_replication(plan, range(0, 1))


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
            plan, [scn], vehicle_x[None, rows], packets[None, rows],
            ul_rngs=[streams.stream("ul", 0)], dl_rngs=[streams.stream("dl", 0)],
            tn_cn_rngs=[streams.stream("tn_cn", 0)],
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
    return [sample_scenario(plan.scenario, streams, rep) for rep in range(plan.replications)]


@pytest.mark.parametrize("window_entries", [engine.BLOCK_WINDOW_ENTRIES, 5 * 3 * 10 * 2 * 9])
def test_blocks_match_replications_run_one_by_one(monkeypatch, window_entries):
    # at 0.002 vehicles/m some roads hold fewer vehicles than the cluster size
    # of 9, so a block mixes its shared evaluation with single-replication
    # ones, and replication 5 shares it with an empty lane; the second budget
    # cuts the 16 replications into blocks of 5
    monkeypatch.setattr(engine, "BLOCK_WINDOW_ENTRIES", window_entries)
    plan = plan_from_document({
        "scenario": {"vru_count": 10, "vehicle_intensity_per_m": 0.002},
        "radio": {"cluster_size": 9},
        "engine": {"replications": 16, "periods": 3, "master_seed": 24},
    })
    scenarios = _scenarios(plan)
    assert min(scn.vehicle_count for scn in scenarios) < 9 <= scenarios[0].vehicle_count
    assert scenarios[5].vehicle_count == 9 and np.all(scenarios[5].vehicle_lane == 1)
    blocks = engine._blocks(plan, range(plan.replications))
    assert [len(block) for block in blocks] == ([16] if len(blocks) == 1 else [5, 5, 5, 1])
    one_by_one = [engine.run_replication(plan, range(r, r + 1)) for r in range(plan.replications)]
    assert np.array_equal(engine.run_plan(plan), np.concatenate(one_by_one, axis=1))


def test_empty_road_inside_a_block_names_its_replication():
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
