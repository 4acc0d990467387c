"""Monte-Carlo orchestration: replications, the period pipeline, statistics.

A run is ``replications`` independent scenario realizations, each simulated
for ``periods`` message cycles. Every replication consumes its own random
substreams, one per purpose, so a replication's output depends only on
(master_seed, replication_index): replications can run in any order, on any
number of workers, and aggregates come out bit-identical because per-packet
results are written in replication order before any reduction.

A replication is evaluated as one block with a leading period axis: the
vehicle positions of every period form a (periods, vehicles) array, the
packets a (periods, VRUs) array, and one ``evaluate_period`` call computes
bin counts, uplink, downlink, backhaul, execution and composition for all of
them. Each purpose draws its whole block in one call, in (periods, VRUs) or,
for the downlink members, (periods, VRUs, m) shape. Each VRU's downlink
cluster comes from ``radio.nearest_member_indices``, which ranks a certified
window of candidates around the VRU instead of sorting every vehicle.

Per-packet results travel as one float array of shape (7, packets) whose
rows follow ``COMPONENT_KEYS``: one column per packet, VRUs within a period,
then periods, then replications, in order.

With several workers, replications run on a process pool. ``pool`` opens it
lazily and lets callers share it: the CLI holds one pool for the whole
invocation, so every sweep point of ``reproduce`` reuses the same workers.
Each pool task is a chunk of about R / (2 * workers) replications, which
keeps the IPC round trips few while both workers stay busy to the end, and
the results are merged in replication order as they would be serially.
"""

from __future__ import annotations

from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import channel, latency, radio, scenario, traffic
from .config import SimulationPlan
from .errors import AggregationError, CamlatError
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
    vehicle_x: np.ndarray,
    packets: np.ndarray,
    ul_rng: np.random.Generator,
    dl_rng: np.random.Generator,
    tn_cn_rng: np.random.Generator,
) -> np.ndarray:
    """All latency components of a block of periods, shape (7, P * n) (pure given the streams).

    ``vehicle_x`` holds the vehicle positions of each period, shape (P, V);
    ``packets[p, i]`` is the p-th period's packet of the i-th VRU of the
    scenario arrays. Each generator draws its purpose's whole block in one
    call: the UL SNRs and transport+core delays in shape (P, n), the DL SNRs
    in shape (P, n, m). Columns run over VRUs within a period, then periods.
    """
    pool = plan.radio.pool
    sizes = packets["size_bits"]
    n_hat = traffic.n_hat(packets["offset_bin"])

    enb_x, enb_y = plan.scenario.road.enb_position_m
    d_ul = np.hypot(scn.vru_x - enb_x, scn.vru_y - enb_y)
    snr_ul = channel.sample_snr_db(
        plan.channel.ul_budget(), np.broadcast_to(d_ul, sizes.shape), ul_rng
    )
    t_ul = radio.ul_latency(sizes, radio.prb_share(pool, n_hat, 1), snr_ul, pool)

    t_bh = latency.backhaul_latency(sizes, n_hat, plan.network.backhaul_bps)
    t_exc = latency.execution_latency(
        sizes, packets["compute_density"], n_hat, plan.network.server_cycles_per_s
    )
    t_tn_cn = latency.sample_tn_cn(plan.network.tn_cn, tn_cn_rng, size=sizes.shape)

    m = min(plan.radio.cluster_size, scn.vehicle_count)
    members = radio.nearest_member_indices(
        scn.vru_x, scn.vru_y, vehicle_x, scn.vehicle_y, scn.vehicle_lane, m
    )
    member_x = np.take_along_axis(vehicle_x, members.reshape(len(members), -1), axis=1)
    d_dl = np.hypot(member_x.reshape(members.shape) - enb_x, scn.vehicle_y[members] - enb_y)
    snr_dl = channel.sample_snr_db(plan.channel.dl_budget(), d_dl, dl_rng)
    t_dl = radio.dl_latency(
        sizes.ravel(), radio.prb_share(pool, n_hat, m).ravel(), snr_dl.reshape(-1, m), pool
    )

    return latency.compose_e2e(t_ul.ravel(), t_bh.ravel(), t_tn_cn.ravel(), t_exc.ravel(), t_dl)


def run_replication(plan: SimulationPlan, replication_index: int) -> np.ndarray:
    """Simulate one scenario realization for all periods of the plan, shape (7, n)."""
    streams = SubstreamFactory(plan.master_seed)
    try:
        scn = scenario.sample_scenario(plan.scenario, streams, replication_index)
        # Step the positions period by period: the closed form (x0 + v*t) mod L
        # rounds differently and would change the sample path.
        snapshots = [scn]
        for _ in range(plan.periods - 1):
            last = snapshots[-1]
            if plan.scenario.mobility:
                last = scenario.advance_vehicles(last, plan.traffic.period_s)
            snapshots.append(last)
        packets = traffic.generate_period(
            plan.periods * plan.scenario.vru_count,
            plan.traffic,
            streams.stream("traffic", replication_index),
        ).reshape(plan.periods, plan.scenario.vru_count)
        return evaluate_period(
            scn,
            plan,
            np.stack([snapshot.vehicle_x for snapshot in snapshots]),
            packets,
            ul_rng=streams.stream("ul", replication_index),
            dl_rng=streams.stream("dl", replication_index),
            tn_cn_rng=streams.stream("tn_cn", replication_index),
        )
    except CamlatError as exc:
        raise type(exc)(f"replication {replication_index}: {exc}") from exc


def _replication_task(args: tuple[SimulationPlan, int]) -> np.ndarray:
    return run_replication(*args)


# The innermost open pool and its worker count, shared by nested ``pool`` blocks.
_open_pool: tuple[int, ProcessPoolExecutor] | None = None


@contextmanager
def pool(workers: int) -> Iterator[ProcessPoolExecutor | None]:
    """A process pool of ``workers`` workers, or None for a serial run.

    Reentrant: inside a block that already holds a pool of the same size,
    that pool is reused; otherwise a new one is opened here and shut down,
    its workers joined, when the block exits.
    """
    global _open_pool
    if workers == 1:
        yield None
    elif _open_pool is not None and _open_pool[0] == workers:
        yield _open_pool[1]
    else:
        outer = _open_pool
        with ProcessPoolExecutor(max_workers=workers) as executor:
            _open_pool = (workers, executor)
            try:
                yield executor
            finally:
                _open_pool = outer


def run_plan(plan: SimulationPlan) -> np.ndarray:
    """All replications, written in replication order regardless of worker count."""
    width = plan.periods * plan.scenario.vru_count
    samples = np.empty((len(COMPONENT_KEYS), plan.replications * width))

    def fill(results):
        for rep, result in enumerate(results):
            samples[:, rep * width : (rep + 1) * width] = result

    reps = range(plan.replications)
    with pool(plan.workers) as executor:
        if executor is None:
            fill(run_replication(plan, rep) for rep in reps)
        else:
            tasks = ((plan, rep) for rep in reps)
            chunksize = max(1, plan.replications // (2 * plan.workers))
            fill(executor.map(_replication_task, tasks, chunksize=chunksize))
    return samples


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
