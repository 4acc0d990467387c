"""Monte-Carlo orchestration: replications, the per-period pipeline, statistics.

A run is ``replications`` independent scenario realizations, each simulated
for ``periods`` message cycles. Every (replication, period) consumes its own
random substreams, so a replication's output depends only on
(master_seed, replication_index): replications can run in any order, on any
number of workers, and aggregates come out bit-identical because per-packet
results are merged in replication order before any reduction.

Per-packet results travel as one float array of shape (7, packets) whose
rows follow ``COMPONENT_KEYS``: one column per packet, periods and then
replications concatenated in order.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import channel, latency, radio, scenario, traffic
from .config import SimulationPlan
from .errors import AggregationError, CamlatError, ScenarioError
from .latency import COMPONENT_KEYS
from .rng import SubstreamFactory


@dataclass(frozen=True)
class AggregateStats:
    mean_s: float
    sample_std_s: float
    ci95_half_width_s: float
    sample_count: int


def evaluate_period(
    scn: scenario.Scenario,
    plan: SimulationPlan,
    packets: np.ndarray,
    ul_rng: np.random.Generator,
    dl_rng: np.random.Generator,
    tn_cn_rng: np.random.Generator,
) -> np.ndarray:
    """All latency components of one period, shape (7, n) (pure given the streams).

    ``packets[i]`` must belong to the i-th VRU of the scenario arrays.
    """
    pool = plan.radio.pool
    sizes = packets["size_bits"]
    n_hat = traffic.n_hat(packets["offset_bin"])

    enb_x, enb_y = plan.scenario.road.enb_position_m
    d_ul = np.hypot(scn.vru_x - enb_x, scn.vru_y - enb_y)
    snr_ul = channel.sample_snr_db(plan.channel.ul_budget(), d_ul, ul_rng)
    t_ul = radio.ul_latency(sizes, radio.prb_share(pool, n_hat, 1), snr_ul, pool)

    t_bh = latency.backhaul_latency(sizes, n_hat, plan.network.backhaul_bps)
    t_exc = latency.execution_latency(
        sizes, packets["compute_density"], n_hat, plan.network.server_cycles_per_s
    )
    t_tn_cn = latency.sample_tn_cn(plan.network.tn_cn, tn_cn_rng, size=len(packets))

    if scn.vehicle_count == 0:
        raise ScenarioError("no vehicles on the road; cannot form clusters")
    m = min(plan.radio.cluster_size, scn.vehicle_count)
    members = radio.nearest_member_indices(
        scn.vru_x, scn.vru_y, scn.vehicle_x, scn.vehicle_y, scn.vehicle_lane, m
    )
    d_dl = np.hypot(scn.vehicle_x[members] - enb_x, scn.vehicle_y[members] - enb_y)
    snr_dl = channel.sample_snr_db(plan.channel.dl_budget(), d_dl, dl_rng)
    t_dl = radio.dl_latency(sizes, radio.prb_share(pool, n_hat, m), snr_dl, pool)

    return latency.compose_e2e(t_ul, t_bh, t_tn_cn, t_exc, t_dl)


def run_replication(plan: SimulationPlan, replication_index: int) -> np.ndarray:
    """Simulate one scenario realization for all periods of the plan, shape (7, n)."""
    streams = SubstreamFactory(plan.master_seed)
    try:
        scn = scenario.sample_scenario(plan.scenario, streams, replication_index)
        periods = []
        for period in range(plan.periods):
            packets = traffic.generate_period(
                plan.scenario.vru_count,
                plan.traffic,
                streams.stream("traffic", replication_index, period),
            )
            periods.append(
                evaluate_period(
                    scn,
                    plan,
                    packets,
                    ul_rng=streams.stream("ul", replication_index, period),
                    dl_rng=streams.stream("dl", replication_index, period),
                    tn_cn_rng=streams.stream("tn_cn", replication_index, period),
                )
            )
            if plan.scenario.mobility:
                scn = scenario.advance_vehicles(scn, plan.traffic.period_s)
        return np.concatenate(periods, axis=1)
    except CamlatError as exc:
        raise type(exc)(f"replication {replication_index}: {exc}") from exc


def _replication_task(args: tuple[SimulationPlan, int]) -> np.ndarray:
    return run_replication(*args)


def run_plan(plan: SimulationPlan) -> np.ndarray:
    """All replications, merged in replication order regardless of worker count."""
    if plan.workers == 1:
        results = [run_replication(plan, rep) for rep in range(plan.replications)]
    else:
        with ProcessPoolExecutor(max_workers=plan.workers) as executor:
            results = list(
                executor.map(_replication_task, ((plan, rep) for rep in range(plan.replications)))
            )
    return np.concatenate(results, axis=1)


def aggregate(samples: np.ndarray) -> dict[str, AggregateStats]:
    """Unweighted mean, sample std, and 95% CI half-width per component row."""
    n = samples.shape[1]
    if n == 0:
        raise AggregationError("cannot aggregate an empty sample set")
    stats: dict[str, AggregateStats] = {}
    for key, values in zip(COMPONENT_KEYS, samples):
        mean = float(np.mean(values))
        std = float(np.std(values, ddof=1)) if n > 1 else 0.0
        stats[key] = AggregateStats(
            mean_s=mean,
            sample_std_s=std,
            ci95_half_width_s=1.96 * std / np.sqrt(n),
            sample_count=n,
        )
    return stats
