"""Monte-Carlo orchestration: replications, the period pipeline, statistics.

A run is ``replications`` independent scenario realizations, each simulated
for ``periods`` message cycles. Every replication consumes its own random
substreams, one per purpose, so a replication's output depends only on
(master_seed, replication_index): replications can run in any order, on any
number of workers, and aggregates come out bit-identical because per-packet
results are written in replication order before any reduction.

Replications are evaluated in blocks. ``run_replication(plan, replications)``
takes a ``range`` of replication indices; for each one it builds the
replication's own streams, samples its scenario and draws its packets. The
rest runs once per block: the vehicles of every replication are stepped
together as a (replications, periods, vehicles) position array, padded with
+inf to the block's largest vehicle count after stepping, and one
``evaluate_period`` call computes bin counts, uplink, downlink, backhaul,
execution and composition for every packet of the block. Only the random
draws stay per replication: each purpose draws its replication's whole block
in one call, in (periods, VRUs) or, for the downlink members, (periods,
VRUs, m) shape. Each VRU's downlink cluster comes from
``radio.nearest_member_indices``, which ranks a certified window of
candidates around the VRU over all (replication, period) rows at once.

The input sets the block size: a block holds as many replications as fit
``BLOCK_WINDOW_ENTRIES`` cluster-search window entries (periods * VRUs * 2 *
cluster_size per replication), which bounds its working memory. A
replication with fewer vehicles than ``cluster_size`` is evaluated as a
block of one, since its clusters are smaller. Outputs do not depend on the
blocking: a block's columns equal those of its replications run one by one.
An error in a block is raised again naming the lowest failing replication,
as a serial run would.

Per-packet results travel as one float array of shape (7, packets) whose
rows follow ``COMPONENT_KEYS``: one column per packet, VRUs within a period,
then periods, then replications, in order.

With several workers, replications run on a process pool. ``pool`` opens it
lazily and lets callers share it: the CLI holds one pool for the whole
invocation, so every sweep point of ``reproduce`` reuses the same workers.
Each pool task is a chunk of about R / (2 * workers) replications, evaluated
in blocks as above and returned as one array, which keeps the IPC round
trips few while both workers stay busy to the end; the results are merged in
replication order as they would be serially.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import channel, latency, radio, scenario, traffic
from .config import SimulationPlan
from .errors import AggregationError, CamlatError
from .latency import COMPONENT_KEYS
from .rng import SubstreamFactory

# Cluster-search window entries (replications * periods * VRUs * 2 * cluster_size)
# that one block of replications may hold; it bounds the block's working memory.
BLOCK_WINDOW_ENTRIES = 60_000


@dataclass(frozen=True)
class AggregateStats:
    mean_s: float
    sample_std_s: float
    ci95_half_width_s: float
    sample_count: int


def evaluate_period(
    plan: SimulationPlan,
    scenarios: Sequence[scenario.Scenario],
    vehicle_x: np.ndarray,
    packets: np.ndarray,
    ul_rngs: Sequence[np.random.Generator],
    dl_rngs: Sequence[np.random.Generator],
    tn_cn_rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """All latency components of a block of replications, shape (7, B * P * n).

    Pure given the streams. ``scenarios`` are the block's B replications.
    ``vehicle_x[b, p]`` holds the b-th one's vehicle positions in period p,
    padded with +inf to the block's largest vehicle count V, shape
    (B, P, V); ``packets[b, p, i]`` is its p-th period's packet of the i-th
    VRU, shape (B, P, n). The lateral geometry comes from the road: the VRUs
    stand at y = 0 and each vehicle on its lane's centerline. In a block of
    several replications each must hold at least ``cluster_size`` vehicles.
    Each replication's generators draw its purpose's whole block in one
    call: the UL SNRs and transport+core delays in shape (P, n), the DL SNRs
    in shape (P, n, m). Columns run over VRUs within a period, then periods,
    then replications.
    """
    reps, periods, v = vehicle_x.shape
    rows = reps * periods
    pool = plan.radio.pool
    sizes = packets["size_bits"]
    n = sizes.shape[-1]
    n_hat = traffic.n_hat(packets["offset_bin"].reshape(rows, n)).reshape(sizes.shape)

    road = plan.scenario.road
    enb_x, enb_y = road.enb_position_m
    vru_x = np.stack([scn.vru_x for scn in scenarios])
    d_ul = np.hypot(vru_x - enb_x, enb_y)
    ul_budget = plan.channel.ul_budget()
    snr_ul = np.stack([
        channel.sample_snr_db(ul_budget, np.broadcast_to(d, (periods, n)), rng)
        for d, rng in zip(d_ul, ul_rngs)
    ])
    t_ul = radio.ul_latency(sizes, radio.prb_share(pool, n_hat, 1), snr_ul, pool)

    t_bh = latency.backhaul_latency(sizes, n_hat, plan.network.backhaul_bps)
    t_exc = latency.execution_latency(
        sizes, packets["compute_density"], n_hat, plan.network.server_cycles_per_s
    )
    t_tn_cn = np.stack([
        latency.sample_tn_cn(plan.network.tn_cn, rng, size=(periods, n)) for rng in tn_cn_rngs
    ])

    # Padding vehicles sit at x = +inf on lane 0: they sort last and are never picked.
    lanes = _padded([scn.vehicle_lane for scn in scenarios], v, 0)
    m = min(plan.radio.cluster_size, v)
    members = radio.nearest_member_indices(
        np.repeat(vru_x, periods, axis=0),
        vehicle_x.reshape(rows, v),
        np.repeat(lanes, periods, axis=0),
        road.lane_centerlines_m,
        m,
    )
    # One distance per (replication, period, vehicle), gathered for the members.
    lane_dy = np.subtract(road.lane_centerlines_m, enb_y)
    d_vehicle = np.hypot(vehicle_x - enb_x, lane_dy[lanes][:, None]).reshape(rows, v)
    d_dl = np.take_along_axis(d_vehicle, members.reshape(rows, n * m), axis=1)
    dl_budget = plan.channel.dl_budget()
    snr_dl = np.stack([
        channel.sample_snr_db(dl_budget, d, rng)
        for d, rng in zip(d_dl.reshape(reps, periods, n, m), dl_rngs)
    ])
    t_dl = radio.dl_latency(
        sizes.ravel(), radio.prb_share(pool, n_hat, m).ravel(), snr_dl.reshape(-1, m), pool
    )

    return latency.compose_e2e(t_ul.ravel(), t_bh.ravel(), t_tn_cn.ravel(), t_exc.ravel(), t_dl)


def _padded(rows: Sequence[np.ndarray], width: int, fill) -> np.ndarray:
    """The rows stacked into shape (len(rows), width), each filled up with ``fill``."""
    out = np.full((len(rows), width), fill, dtype=np.result_type(fill, *rows))
    for padded, row in zip(out, rows):
        padded[: row.size] = row
    return out


def _vehicle_positions(plan: SimulationPlan, scenarios: Sequence[scenario.Scenario]) -> np.ndarray:
    """Every period's vehicle positions, shape (B, P, V), padded with +inf to the largest count."""
    counts = np.array([scn.vehicle_count for scn in scenarios])
    x = _padded([scn.vehicle_x for scn in scenarios], counts.max(initial=0), 0.0)
    speed = _padded([scn.vehicle_speed for scn in scenarios], x.shape[1], 0.0)
    positions = np.empty((len(scenarios), plan.periods, x.shape[1]))
    positions[:, 0] = x
    # Step the positions period by period: the closed form (x0 + v*t) mod L
    # rounds differently and would change the sample path.
    for p in range(1, plan.periods):
        if plan.scenario.mobility:
            x = scenario.advance_vehicles(
                x, speed, plan.traffic.period_s, plan.scenario.road.lane_length_m
            )
        positions[:, p] = x
    # Pad after stepping, so every real vehicle sorts before the padding.
    padding = np.arange(x.shape[1]) >= counts[:, None]
    np.copyto(positions, np.inf, where=padding[:, None])
    return positions


def _evaluate_block(plan: SimulationPlan, replications: range) -> np.ndarray:
    streams = SubstreamFactory(plan.master_seed)
    scenarios = [scenario.sample_scenario(plan.scenario, streams, rep) for rep in replications]
    shape = (plan.periods, plan.scenario.vru_count)
    packets = np.stack([
        traffic.generate_period(
            plan.periods * plan.scenario.vru_count,
            plan.traffic,
            streams.stream("traffic", rep),
        ).reshape(shape)
        for rep in replications
    ])
    # Replications with a full cluster share one evaluation; a road with
    # fewer vehicles than cluster_size is a block of its own.
    full = [i for i, scn in enumerate(scenarios) if scn.vehicle_count >= plan.radio.cluster_size]
    groups = ([full] if full else []) + [[i] for i in range(len(scenarios)) if i not in full]
    samples = np.empty((len(COMPONENT_KEYS), len(scenarios), shape[0] * shape[1]))
    for group in groups:
        members = [scenarios[i] for i in group]
        reps = [replications[i] for i in group]
        samples[:, group] = evaluate_period(
            plan,
            members,
            _vehicle_positions(plan, members),
            packets[group],
            ul_rngs=[streams.stream("ul", rep) for rep in reps],
            dl_rngs=[streams.stream("dl", rep) for rep in reps],
            tn_cn_rngs=[streams.stream("tn_cn", rep) for rep in reps],
        ).reshape(len(COMPONENT_KEYS), len(group), -1)
    return samples.reshape(len(COMPONENT_KEYS), -1)


def run_replication(plan: SimulationPlan, replications: range) -> np.ndarray:
    """Simulate a block of replications for all periods of the plan, shape (7, n).

    The columns equal those of the replications run one by one, in order.
    An error names the lowest failing replication, as a serial run would.
    """
    try:
        return _evaluate_block(plan, replications)
    except CamlatError as exc:
        if len(replications) > 1:
            for rep in replications:
                run_replication(plan, range(rep, rep + 1))
        raise type(exc)(f"replication {replications[0]}: {exc}") from exc


def _blocks(plan: SimulationPlan, replications: range) -> list[range]:
    """``replications`` cut into blocks of at most ``BLOCK_WINDOW_ENTRIES`` window entries."""
    entries = plan.periods * plan.scenario.vru_count * 2 * plan.radio.cluster_size
    size = max(1, BLOCK_WINDOW_ENTRIES // entries)
    return [replications[i : i + size] for i in range(0, len(replications), size)]


def _run_replications(plan: SimulationPlan, replications: range) -> np.ndarray:
    """The columns of ``replications``, evaluated block by block."""
    width = plan.periods * plan.scenario.vru_count
    samples = np.empty((len(COMPONENT_KEYS), len(replications) * width))
    for block in _blocks(plan, replications):
        # Assigned straight away: no block's result outlives its copy.
        start = (block.start - replications.start) * width
        samples[:, start : start + len(block) * width] = run_replication(plan, block)
    return samples


def _replication_task(args: tuple[SimulationPlan, range]) -> np.ndarray:
    return _run_replications(*args)


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
    reps = range(plan.replications)
    with pool(plan.workers) as executor:
        if executor is None:
            return _run_replications(plan, reps)
        size = max(1, plan.replications // (2 * plan.workers))
        chunks = [reps[i : i + size] for i in range(0, plan.replications, size)]
        width = plan.periods * plan.scenario.vru_count
        samples = np.empty((len(COMPONENT_KEYS), plan.replications * width))
        tasks = ((plan, chunk) for chunk in chunks)
        for chunk, result in zip(chunks, executor.map(_replication_task, tasks)):
            samples[:, chunk.start * width : chunk.stop * width] = result
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
