"""The engine against a packet-by-packet reference simulator.

The engine evaluates a block of replications as arrays: one cluster search
over every (replication, period) row, the vehicles cut to those within reach
of the VRUs. The reference below shares only the samplers with it (the
scenario, the packets, and each purpose's stream, drawn in the engine's
shapes), then walks period by period and VRU by VRU in plain Python over
the whole road. It uses neither ``engine.evaluate_period`` nor
``radio.nearest_member_indices``. It raises the engine's error types: a
``ScenarioError`` for an empty road, an ``UnreachableLinkError`` for a rate
that is zero, NaN or infinite.

Each plan also runs in an ``engine.run_plans`` group with other cluster
sizes, whose blocks it shares, and must give its lone bytes there.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from camlat import engine, scenario, traffic
from camlat.channel import mean_snr_db
from camlat.config import plan_from_document
from camlat.errors import CamlatError, ConfigurationError, ScenarioError, UnreachableLinkError
from camlat.rng import SubstreamFactory


def _rate_bps(plan, prbs, snr_db):
    """The link's rate; one that is zero, NaN or infinite is an ``UnreachableLinkError``."""
    try:
        rate = prbs * plan.radio.prb_bandwidth_hz * math.log2(1.0 + 10.0 ** (float(snr_db) / 10.0))
    except OverflowError:
        rate = math.inf
    if not 0.0 < rate < math.inf:
        raise UnreachableLinkError(f"rate {rate} at SNR {snr_db} dB")
    return rate


def reference_replication(plan, rep):
    """Replication ``rep``'s packets, shape (7, periods * VRUs), one packet at a time."""
    streams = SubstreamFactory(plan.master_seed)
    scn = scenario.sample_scenario(plan.scenario, streams, rep)
    periods, n = plan.periods, plan.scenario.vru_count
    packets = traffic.generate_period(
        periods * n, plan.traffic, streams.stream("traffic", rep)
    ).reshape(periods, n)
    m_r = min(plan.radio.cluster_size, scn.vehicle_count)
    std = math.hypot(plan.channel.shadowing_std_db, plan.channel.fast_fading_std_db)
    ul_noise = streams.stream("ul", rep).standard_normal((periods, n)) * std
    tn_cn = streams.stream("tn_cn", rep).uniform(*plan.network.tn_cn_one_way_s, size=(periods, n))
    dl_noise = streams.stream("dl", rep).standard_normal((periods, n, m_r)) * std

    enb_x, enb_y = plan.scenario.enb_position_m
    lane_y = (plan.scenario.lane_offset_m, -plan.scenario.lane_offset_m)
    ul_budget, dl_budget = plan.channel.ul_budget(), plan.channel.dl_budget()
    prbs = plan.radio.total_prbs
    x, lane = scn.vehicle_x.tolist(), scn.vehicle_lane.tolist()
    out = []
    for p in range(periods):
        if p and plan.scenario.mobility:
            x = [
                float(np.mod(x0 + speed * plan.traffic.period_s, plan.scenario.lane_length_m))
                for x0, speed in zip(x, scn.vehicle_speed)
            ]
        bins = packets["offset_bin"][p].tolist()
        for i, q in enumerate(scn.vru_x.tolist()):
            size = float(packets["size_bits"][p, i])
            n_hat = bins.count(bins[i])
            snr_ul = mean_snr_db(ul_budget, math.hypot(q - enb_x, enb_y)) - ul_noise[p, i]
            t_ul = size / _rate_bps(plan, prbs / n_hat, snr_ul)
            t_bh = size * n_hat / plan.network.backhaul_bps
            t_exc = (
                n_hat * size * float(packets["compute_density"][p, i])
                / plan.network.server_cycles_per_s
            )
            t_tn_cn = float(tn_cn[p, i])
            if not x:
                raise ScenarioError("no vehicles to form a cluster")
            ranked = sorted(range(len(x)), key=lambda j: ((q - x[j]) * (q - x[j]), x[j], j))
            # The k-th nearest member gets the k-th DL normal; the slowest decides.
            snr_dl = min(
                mean_snr_db(dl_budget, math.hypot(x[j] - enb_x, lane_y[lane[j]] - enb_y))
                - dl_noise[p, i, k]
                for k, j in enumerate(ranked[:m_r])
            )
            t_dl = size / _rate_bps(plan, prbs / (n_hat * m_r), snr_dl)
            out.append((
                t_ul, t_bh, t_tn_cn, t_exc, t_dl,
                t_ul + 2.0 * (t_bh + t_tn_cn) + t_exc + t_dl, t_ul + t_exc + t_dl,
            ))
    return np.array(out).T


def _plan(document, replications=6):
    return plan_from_document({
        **document,
        "engine": {"replications": replications, "periods": 4, "master_seed": 1729},
    })


def _with_cluster_size(plan, size):
    return replace(plan, radio=replace(plan.radio, cluster_size=size))


def _runs_in_a_group(plan, sizes):
    """Run ``plan`` in a ``run_plans`` group with the other cluster ``sizes``.

    Every plan of the group returns its lone ``run_plan``'s bytes, or raises
    its lone error.
    """
    plans = [_with_cluster_size(plan, size) for size in sizes] + [plan]
    for member, run in zip(plans, engine.run_plans(plans, None)):
        try:
            lone = engine.run_plan(member)
        except CamlatError as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                run()
        else:
            assert run().tobytes() == lone.tobytes(), member.radio.cluster_size


def _matches_reference(plan):
    """The engine's packets, one block and one replication at a time, against the reference.

    The plan also runs in a group with cluster sizes 1 and 9, whose blocks
    it shares; its moments match those of the reference packets.
    """
    reference = [reference_replication(plan, rep) for rep in range(plan.replications)]
    block = engine.run_replication(plan, range(plan.replications))
    np.testing.assert_allclose(block, np.concatenate(reference, axis=1), rtol=1e-13, atol=0)
    for rep, packets in enumerate(reference):
        single = engine.run_replication(plan, range(rep, rep + 1))
        np.testing.assert_allclose(single, packets, rtol=1e-13, atol=0)
    _runs_in_a_group(plan, (1, 9))
    width = plan.periods * plan.scenario.vru_count
    expected = [engine.replication_moments(packets, width) for packets in reference]
    np.testing.assert_allclose(
        engine.run_plan(plan), np.concatenate(expected, axis=1), rtol=1e-13, atol=0
    )


_CONFIGS = {
    "default": {},
    # replications 2, 3 and 4 hold 6, 7 and 6 vehicles: short roads in the block
    "sparse_cluster_9": {
        "scenario": {"vehicle_intensity_per_m": 0.002}, "radio": {"cluster_size": 9}
    },
    "dense_cluster_9": {
        "scenario": {"vehicle_intensity_per_m": 0.09}, "radio": {"cluster_size": 9}
    },
    "no_mobility_cluster_7": {"scenario": {"mobility": False}, "radio": {"cluster_size": 7}},
    "table_literal_log_distance_wide": {
        "profile": "table-literal",
        "channel": {"pathloss_model": "log-distance"},
        "scenario": {"lane_width_m": 30.0},
    },
    "one_offset_bin": {"traffic": {"offset_bins": 1}},
}


@pytest.mark.parametrize("name", list(_CONFIGS))
def test_engine_matches_the_reference(name):
    _matches_reference(_plan(_CONFIGS[name]))


def _build_roads(monkeypatch, road):
    """Give replication r the vehicles and VRUs of ``road(r)``: (x, lanes, VRU x or None)."""
    sample = scenario.sample_scenario

    def built(params, streams, replication):
        x, lanes, vru_x = road(replication)
        scn = sample(params, streams, replication)
        lanes = np.asarray(lanes, dtype=np.int64)
        return replace(
            scn,
            vehicle_x=np.asarray(x, dtype=float),
            vehicle_speed=np.where(lanes == 0, 30.0, -30.0),
            vehicle_lane=lanes,
            vru_x=scn.vru_x if vru_x is None else np.asarray(vru_x, dtype=float),
        )

    monkeypatch.setattr(scenario, "sample_scenario", built)


def _small_road_plan(cluster_size, mobility=True):
    return _plan({
        "scenario": {"vru_count": 10, "vehicle_intensity_per_m": 0.002, "mobility": mobility},
        "radio": {"cluster_size": cluster_size},
    })


def test_a_short_road_in_its_block_matches_the_reference(monkeypatch):
    # replication 2 holds 3 vehicles, fewer than the cluster size of 5
    def road(rep):
        count = 3 if rep == 2 else 14
        return (1437.0 + 211.0 * np.arange(count) + 13.0 * rep) % 3000.0, np.arange(count) % 2, None

    _build_roads(monkeypatch, road)
    _matches_reference(_small_road_plan(5))


def test_an_all_short_block_matches_the_reference(monkeypatch):
    # every road holds 2 to 7 vehicles against a cluster size of 9
    def road(rep):
        count = 2 + rep
        return (1100.0 + 97.0 * np.arange(count) + 5.0 * rep) % 3000.0, np.arange(count) % 2, None

    _build_roads(monkeypatch, road)
    _matches_reference(_small_road_plan(9))


def test_a_stacked_lane_tie_matches_the_reference(monkeypatch):
    # vehicles stacked on both lanes at one x, and VRUs halfway between
    # vehicles, in every period: equal distances in a left run (ranked again
    # over the whole row), and across a VRU at 1650 between single vehicles
    x = [1100.0, 1100.0, 1150.0, 1150.0, 1250.0, 1250.0, 1300.0, 1400.0, 1400.0,
         1500.0, 1560.0, 1600.0, 1700.0, 1790.0, 1850.0]
    lanes = [0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 0, 0, 1]
    vru_x = [1200.0, 1650.0, 1125.0, 1275.0, 1350.0, 1200.0, 1225.0, 1150.0, 1100.0, 1650.0]
    _build_roads(monkeypatch, lambda rep: (x, lanes, vru_x))
    _matches_reference(_small_road_plan(5, mobility=False))


@st.composite
def _small_documents(draw):
    """Small runs: roads of 50 m to 3 km, VRU strips up to the whole road,
    vehicles up to 3,000 km/h or standing, and now and then a DL power that
    overflows the rate."""
    length_m = draw(st.floats(50.0, 3000.0))
    return {
        "scenario": {
            "lane_length_km": length_m / 1e3,
            "vehicle_intensity_per_m": draw(st.floats(1e-4, 0.05)),
            "vru_count": draw(st.integers(1, 8)),
            "vru_strip_m": sorted(draw(st.floats(0.0, length_m)) for _ in range(2)),
            "enb_position_m": [draw(st.floats(0.0, length_m)), 10.0],
            "speed_kmh": sorted(draw(st.floats(1.0, 3000.0)) for _ in range(2)),
            "mobility": draw(st.booleans()),
        },
        "traffic": {"offset_bins": draw(st.integers(1, 50))},
        "channel": {"dl_tx_power_dbm": draw(st.sampled_from([46.0, 46.0, 46.0, 4000.0]))},
        "radio": {"cluster_size": draw(st.integers(1, 20))},
        "engine": {
            "replications": draw(st.integers(1, 6)),
            "periods": draw(st.integers(1, 4)),
            "master_seed": draw(st.integers(0, 2**32 - 1)),
        },
    }


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_small_documents(), st.integers(1, 20))
def test_the_engine_matches_the_reference_on_small_documents(document, other_size):
    # the reach cut, the merge search and the blocking against the plain
    # walk; where the reference fails, the engine fails with the same error
    # type at the same replication. The plan also shares its blocks with
    # another cluster size.
    try:
        plan = plan_from_document(document)
    except ConfigurationError:
        event("config error")
        return
    reference = []
    for rep in range(plan.replications):
        try:
            reference.append(reference_replication(plan, rep))
        except CamlatError as exc:
            event(f"both raise {type(exc).__name__}")
            with pytest.raises(CamlatError, match=f"^replication {rep}: ") as raised:
                engine.run_plan(plan)
            assert raised.type is type(exc)
            break
    else:
        event("a finite run")
        block = engine.run_replication(plan, range(plan.replications))
        np.testing.assert_allclose(block, np.concatenate(reference, axis=1), rtol=1e-13, atol=0)
    _runs_in_a_group(plan, (other_size,))
