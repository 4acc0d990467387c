"""Monte-Carlo orchestration: replications, the period pipeline, statistics.

A run is ``replications`` independent scenario realizations, each simulated
for ``periods`` message cycles. Every replication consumes its own random
substreams, one per purpose, so a replication's output depends only on
(master_seed, replication_index): replications can run in any order, on any
number of workers, and aggregates come out bit-identical because each
replication's packets are reduced on their own, to moments that are pooled
in replication order.

Replications are evaluated in blocks. ``run_replication(plan, replications)``
takes a ``range`` of replication indices and makes one pass over them: each
replication samples its scenario, keeps the vehicles within reach of its
VRUs (below) and draws its packets into the block's arrays. The kept
vehicles' x, speed and lane go into (replications, vehicles) arrays, each
row padded to the block's largest kept count; the positions are stepped
together into a (replications, periods, vehicles) array, and the padding
set to +inf after stepping. One ``evaluate_period`` call then takes these
arrays and the ``SubstreamFactory``, and computes bin counts, uplink,
downlink, backhaul, execution and composition for every packet of the block.
Only the random draws stay per replication: each purpose draws its
replication's whole block from ``streams.stream(purpose, replication)`` in
one call, in (periods, VRUs) or, for the downlink members, (periods, VRUs,
m_r) shape. Each VRU's downlink cluster comes from
``radio.nearest_member_indices``, which merges the nearest vehicles on its
two sides in m steps over all (replication, period) rows at once, m being
the cluster size. A replication's clusters hold m_r = min(m, its vehicle
count) members, so a road with fewer than m vehicles stays in its block.

Only the vehicles that can join a VRU's cluster in some period are stepped
and ranked. With m the cluster size, take a replication's period-0 vehicle
positions over both lanes in x order: x- is the m-th vehicle below the lowest
VRU and x+ the m-th above the highest. D = (periods - 1) * period_s *
max|speed| over the replication's own vehicles bounds how far any of them
moves (0 without mobility), and eps = ``REACH_SLACK`` * periods * road
length is a slack far above the stepping's rounding error. The replication
keeps, in index order, the vehicles whose period-0 x lies in
[x- - w, x+ + w] with w = 2D + eps; a side with fewer than m vehicles beyond
the VRUs is kept whole. It keeps every vehicle when it holds at most m, or
when vehicles move and the kept interval comes within D + eps of a road end
(a side kept whole reaches it), where a vehicle wrapping around could come
in. The scenario is still sampled whole, so no draw changes.

The cut is exact. The search ranks by |dx| alone (both lanes sit at one
lateral distance from the VRUs). A VRU at q has m vehicles between x- and q
and m between q and x+ at period 0, which are kept, never wrap and move at
most D: in every period it has m kept vehicles within r(q) + D, r(q) being
the smaller of q - (x-) and (x+) - q over the cut sides. A dropped vehicle
starts more than 2D + eps beyond x- or x+, so it stays more than r(q) + D +
eps away, also after wrapping around a road end, which lands it beyond the
other cut side. It can never rank in a cluster, nor tie with a member. The
kept vehicles keep their index order and their stepped positions, so the
(x, index) tie rule and every output are those of the whole road.

The input sets the block size: a block holds as many replications as fit
``BLOCK_PAIRS`` (packet, cluster member) pairs, periods * VRUs * cluster_size
per replication, which bounds its working memory. Outputs do not depend on
the blocking: a block's columns equal those of its replications run one by
one. An error in a block is raised again naming the lowest failing
replication, as a serial run would.

Blocks reuse the memory earlier blocks freed. By default glibc maps every
array above 128 KiB on its own and unmaps it when freed, and it trims its
heap above 128 KiB free, so each block would fault its working set in again
from zero pages. glibc raises both thresholds by itself only after it frees
a large array, which a run may do late or never. So before its first block
each process, serial or pool worker, sets the mmap threshold to 32 MiB (glibc's
own ceiling for it) and the trim threshold to 64 MiB (twice that, as glibc
would). Where libc has no ``mallopt`` the allocator is left as it is; no
output depends on it.

A block's packets come out as one float array of shape (7, packets) whose
rows follow ``COMPONENT_KEYS``: one column per packet, VRUs within a period,
then periods, then replications, in order. No run keeps them: each block is
reduced at once by ``replication_moments`` to a (7, replications, 2) array
holding, per component and replication, the mean and the sum of squared
deviations from it. Each value comes from one replication's contiguous row,
so it does not depend on the block it was evaluated in.

With several workers, replications run on a process pool. ``pool`` opens it
lazily and lets callers share it: the CLI holds one pool for the whole
invocation, so every sweep point of ``reproduce`` reuses the same workers.
It opens no more workers than ``os.cpu_count()``: the fork start method forks
every worker at the first submit, and no output depends on the worker count.
The pool modules (``concurrent.futures`` and ``multiprocessing``) load when
the first pool opens, so a serial run never imports them. The pool class is
the module attribute ``ProcessPoolExecutor``, resolved on first use; a class
assigned to it beforehand opens every later pool.
The block is the only partition of a run's replications: each pool task is
one block, returned as its moments array, and the blocks' arrays are
joined in replication order, as a serial run joins its blocks. ``run_plans``
takes many plans, such as a sweep's points, and submits every block of
every plan at once, one future per block, so the workers never wait at a
plan boundary and a block that raises fails only its own plan. A serial
run takes the same path, computing each block when its plan is read.
If an exception leaves the pool's block, the blocks still queued are
cancelled before the workers are joined.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cache, partial
from typing import TYPE_CHECKING

import numpy as np

from . import channel, latency, radio, scenario, traffic
from .config import SimulationPlan
from .errors import AggregationError, CamlatError, ScenarioError
from .latency import COMPONENT_KEYS
from .rng import SubstreamFactory

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

# The (packet, cluster member) pairs one block of replications may hold,
# periods * VRUs * cluster_size per replication; it bounds the block's memory.
BLOCK_PAIRS = 30_000

# The reach cut's rounding slack per metre of road and per period; stepping
# rounds each position by about 1e-16 of the road length per period.
REACH_SLACK = 1e-9

# glibc's mallopt parameter numbers (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@dataclass(frozen=True)
class AggregateStats:
    mean_s: float
    sample_std_s: float
    ci95_half_width_s: float
    sample_count: int


def evaluate_period(
    plan: SimulationPlan,
    vru_x: np.ndarray,
    vehicle_x: np.ndarray,
    vehicle_lane: np.ndarray,
    packets: np.ndarray,
    streams: SubstreamFactory,
    replications: range,
) -> np.ndarray:
    """All latency components of a block of replications, shape (7, B * P * n).

    Pure given ``streams``. The block holds the B replications
    ``replications``, each P periods of n VRUs: ``vru_x[b]`` holds the b-th
    one's VRU positions, shape (B, n); ``vehicle_x[b, p]`` its vehicle
    positions in period p, padded with +inf to the block's largest vehicle
    count V, shape (B, P, V); ``vehicle_lane[b]`` each of its vehicles' lane,
    shape (B, V), any lane for the padding; ``packets[b, p, i]`` its p-th
    period's packet of the i-th VRU, shape (B, P, n). The lateral geometry
    comes from the road: the VRUs stand at y = 0 and each vehicle on its
    lane, at y = +-``lane_offset_m``. A replication's clusters hold
    m_r = min(``cluster_size``, its vehicles) members; a replication with
    none is a ``ScenarioError``. Each replication draws each purpose's
    whole block from its own stream, ``streams.stream(purpose, rep)``, in
    one call: the UL SNRs and transport+core delays in shape (P, n), the DL
    SNRs in shape (P, n, m_r). Columns run over VRUs within a period, then
    periods, then replications.
    """
    reps, periods, v = vehicle_x.shape
    rows = reps * periods
    sizes = packets["size_bits"]
    n = sizes.shape[-1]
    n_hat = traffic.n_hat(packets["offset_bin"].reshape(rows, n)).reshape(sizes.shape)

    enb_x, enb_y = plan.scenario.enb_position_m
    # A VRU's eNB distance is fixed for its replication: one mean per VRU,
    # broadcast over the periods.
    ul_budget = plan.channel.ul_budget()
    ul_mean = channel.mean_snr_db(ul_budget, np.hypot(vru_x - enb_x, enb_y))
    snr_ul = np.empty(sizes.shape)
    t_tn_cn = np.empty(sizes.shape)
    for b, rep in enumerate(replications):
        snr_ul[b] = channel.sample_snr_db(
            ul_budget, np.broadcast_to(ul_mean[b], (periods, n)), streams.stream("ul", rep)
        )
        t_tn_cn[b] = latency.sample_tn_cn(
            plan.network, streams.stream("tn_cn", rep), size=(periods, n)
        )
    t_ul = radio.ul_latency(sizes, radio.prb_share(plan.radio, n_hat, 1), snr_ul, plan.radio)

    t_bh = latency.backhaul_latency(sizes, n_hat, plan.network.backhaul_bps)
    t_exc = latency.execution_latency(
        sizes, packets["compute_density"], n_hat, plan.network.server_cycles_per_s
    )

    counts = np.count_nonzero(vehicle_x[:, 0] < np.inf, axis=1)
    if counts.min() == 0:
        raise ScenarioError("no vehicles on the road; cannot form clusters")
    members = radio.nearest_member_indices(vru_x, vehicle_x, plan.radio.cluster_size)
    m = members.shape[-1]
    # One mean SNR per (replication, period, vehicle), gathered for the members.
    offset = plan.scenario.lane_offset_m
    lane_dy = np.subtract((offset, -offset), enb_y)
    d_vehicle = np.hypot(vehicle_x - enb_x, lane_dy[vehicle_lane][:, None]).reshape(rows, v)
    dl_budget = plan.channel.dl_budget()
    dl_mean = np.take_along_axis(
        channel.mean_snr_db(dl_budget, d_vehicle), members.reshape(rows, n * m), axis=1
    ).reshape(reps, periods, n, m)
    # A short road's member slots past its m_r hold +inf: never the slowest member.
    cluster = np.minimum(counts, m)
    snr_dl = np.full(dl_mean.shape, np.inf)
    for b, rep in enumerate(replications):
        snr_dl[b, ..., : cluster[b]] = channel.sample_snr_db(
            dl_budget, dl_mean[b, ..., : cluster[b]], streams.stream("dl", rep)
        )
    dl_prbs = radio.prb_share(plan.radio, n_hat, cluster[:, None, None]).ravel()
    t_dl = radio.dl_latency(sizes.ravel(), dl_prbs, snr_dl.reshape(-1, m), plan.radio)

    return latency.compose_e2e(t_ul.ravel(), t_bh.ravel(), t_tn_cn.ravel(), t_exc.ravel(), t_dl)


def _within_reach(plan: SimulationPlan, scn: scenario.Scenario) -> scenario.Scenario:
    """``scn`` with only the vehicles that can join a VRU's cluster, in index order.

    The rule and why it changes no output are in the module docstring.
    """
    m = plan.radio.cluster_size
    length = plan.scenario.lane_length_m
    if scn.vehicle_count <= m:
        return scn
    reach = 0.0
    if plan.scenario.mobility:
        reach = (plan.periods - 1) * plan.traffic.period_s * float(np.abs(scn.vehicle_speed).max())
    slack = REACH_SLACK * plan.periods * length
    xs = np.sort(scn.vehicle_x)
    below = int(np.searchsorted(xs, scn.vru_x.min()))
    above = int(np.searchsorted(xs, scn.vru_x.max(), side="right"))
    low = xs[below - m] - 2 * reach - slack if below >= m else -np.inf
    high = xs[above + m - 1] + 2 * reach + slack if xs.size - above >= m else np.inf
    if reach > 0 and (low < reach + slack or high > length - reach - slack):
        return scn
    keep = (low <= scn.vehicle_x) & (scn.vehicle_x <= high)
    return replace(
        scn,
        vehicle_x=scn.vehicle_x[keep],
        vehicle_speed=scn.vehicle_speed[keep],
        vehicle_lane=scn.vehicle_lane[keep],
    )


def run_replication(plan: SimulationPlan, replications: range) -> np.ndarray:
    """Simulate a block of replications for all periods of the plan, shape (7, n).

    The columns equal those of the replications run one by one, in order.
    An error names the lowest failing replication, as a serial run would.
    """
    try:
        streams = SubstreamFactory(plan.master_seed)
        periods, n = plan.periods, plan.scenario.vru_count
        vru_x = np.empty((len(replications), n))
        packets = np.empty((len(replications), periods, n), traffic.PACKET_DTYPE)
        kept = []
        for b, rep in enumerate(replications):
            scn = _within_reach(plan, scenario.sample_scenario(plan.scenario, streams, rep))
            vru_x[b] = scn.vru_x
            packets[b] = traffic.generate_period(
                periods * n, plan.traffic, streams.stream("traffic", rep)
            ).reshape(periods, n)
            kept.append(scn)
        # Row b of the block's vehicle arrays holds replication b's kept
        # vehicles, in index order, then padding.
        counts = np.array([scn.vehicle_count for scn in kept])
        real = np.arange(counts.max()) < counts[:, None]
        x, speed, lane = (np.zeros(real.shape, dtype) for dtype in (float, float, np.int64))
        x[real] = np.concatenate([scn.vehicle_x for scn in kept])
        speed[real] = np.concatenate([scn.vehicle_speed for scn in kept])
        lane[real] = np.concatenate([scn.vehicle_lane for scn in kept])
        vehicle_x = np.empty((len(replications), periods, x.shape[1]))
        # Step the positions period by period: the closed form (x0 + v*t) mod L
        # rounds differently and would change the sample path.
        for p in range(periods):
            if p and plan.scenario.mobility:
                x = scenario.advance_vehicles(
                    x, speed, plan.traffic.period_s, plan.scenario.lane_length_m
                )
            vehicle_x[:, p] = x
        # Pad after stepping, so every real vehicle sorts before the padding.
        np.copyto(vehicle_x, np.inf, where=~real[:, None])
        return evaluate_period(plan, vru_x, vehicle_x, lane, packets, streams, replications)
    except CamlatError as exc:
        if len(replications) > 1:
            for rep in replications:
                run_replication(plan, range(rep, rep + 1))
        raise type(exc)(f"replication {replications[0]}: {exc}") from exc


def _blocks(plan: SimulationPlan, replications: range) -> list[range]:
    """``replications`` cut into blocks of at most ``BLOCK_PAIRS`` pairs."""
    pairs = plan.periods * plan.scenario.vru_count * plan.radio.cluster_size
    size = max(1, BLOCK_PAIRS // pairs)
    return [replications[i : i + size] for i in range(0, len(replications), size)]


@cache
def _keep_freed_memory() -> None:
    """Keep freed block memory in the process (see the module docstring); once per process."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


# Huge latencies overflow to +inf (or NaN past an infinite total) without a
# warning; ``aggregate`` rejects every component they reach, by name.
@np.errstate(over="ignore", invalid="ignore")
def replication_moments(samples: np.ndarray, packets_per_replication: int) -> np.ndarray:
    """Each replication's mean and sum of squared deviations, shape (7, R, 2).

    ``samples`` holds R replications' packets in order, shape (7, R * W)
    with W = ``packets_per_replication``. Two passes over each replication's
    contiguous row: the mean, then the squared deviations from it.
    """
    rows = samples.reshape(len(samples), -1, packets_per_replication)
    moments = np.empty(rows.shape[:2] + (2,))
    moments[..., 0] = rows.mean(axis=2)
    deviations = rows - moments[..., :1]
    deviations *= deviations
    moments[..., 1] = deviations.sum(axis=2)
    return moments


def _block_moments(plan: SimulationPlan, block: range) -> np.ndarray:
    """The moments of one block of replications, shape (7, len(block), 2)."""
    _keep_freed_memory()
    return replication_moments(run_replication(plan, block), plan.periods * plan.scenario.vru_count)


def _replication_task(args: tuple[SimulationPlan, range]) -> np.ndarray:
    return _block_moments(*args)


def __getattr__(name: str):
    # ``ProcessPoolExecutor`` is imported on first use, and kept as a module global.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# The innermost open pool and its worker count, shared by nested ``pool`` blocks.
_open_pool: tuple[int, ProcessPoolExecutor] | None = None


@contextmanager
def pool(workers: int) -> Iterator[ProcessPoolExecutor | None]:
    """A process pool of ``workers`` workers, at most one per CPU, or None for a serial run.

    Reentrant: inside a block that already holds a pool of the same size,
    that pool is reused; otherwise a new one is opened here and shut down,
    its workers joined, when the block exits. If the block exits on an
    exception, the tasks still queued on the pool are cancelled first.
    """
    global _open_pool
    if workers == 1:
        yield None
    elif _open_pool is not None and _open_pool[0] == workers:
        yield _open_pool[1]
    else:
        outer = _open_pool
        executor_type = globals().get("ProcessPoolExecutor") or __getattr__("ProcessPoolExecutor")
        executor = executor_type(max_workers=min(workers, os.cpu_count() or 1))
        _open_pool = (workers, executor)
        failed = True
        try:
            yield executor
            failed = False
        finally:
            _open_pool = outer
            executor.shutdown(cancel_futures=failed)


def _collect(results: list) -> np.ndarray:
    """The plan's moments: each block's ``result()``, joined in replication order."""
    return np.concatenate([result() for result in results], axis=1)


def run_plans(
    plans: list[SimulationPlan], executor: ProcessPoolExecutor | None
) -> list[Callable[[], np.ndarray]]:
    """One callable per plan, returning its ``run_plan`` moments or raising its error.

    With an ``executor``, every block of every plan is submitted here, in
    plan order, so the workers never wait at a plan boundary; a block that
    raises fails its own plan only. Without one, each block is computed when
    its plan's callable is called.
    """
    runs = []
    for plan in plans:
        blocks = _blocks(plan, range(plan.replications))
        if executor is None:
            # Not through _replication_task: perfbench/tracer.py replaces it
            # with a wrapper that resets and spills the spans of a worker.
            results = [partial(_block_moments, plan, block) for block in blocks]
        else:
            results = [executor.submit(_replication_task, (plan, block)).result for block in blocks]
        runs.append(partial(_collect, results))
    return runs


def run_plan(plan: SimulationPlan) -> np.ndarray:
    """Every replication's moments, shape (7, R, 2), in replication order on any worker count.

    See ``replication_moments``; ``aggregate`` pools them.
    """
    with pool(plan.workers) as executor:
        return run_plans([plan], executor)[0]()


@np.errstate(over="ignore", invalid="ignore")
def aggregate(moments: np.ndarray, packets_per_replication: int) -> dict[str, AggregateStats]:
    """Mean, sample std and 95% CI half-width per component over every packet.

    ``moments`` holds R replications of W = ``packets_per_replication``
    packets each, as ``run_plan`` returns them. The mean is the mean of the
    replication means; the sum of squared deviations pools the replications'
    own with W times the squared deviations of their means (Chan, Golub &
    LeVeque, 1979). The CI treats the n = R * W packets as independent.
    A component whose mean or half-width is not finite is a ``CamlatError``
    naming every such component.
    """
    n = moments.shape[1] * packets_per_replication
    if n == 0:
        raise AggregationError("cannot aggregate an empty sample set")
    stats: dict[str, AggregateStats] = {}
    for key, (means, m2s) in zip(COMPONENT_KEYS, moments.transpose(0, 2, 1)):
        mean = float(np.mean(means))
        m2 = float(np.sum(m2s)) + packets_per_replication * float(np.sum(np.square(means - mean)))
        std = float(np.sqrt(m2 / (n - 1))) if n > 1 else 0.0
        stats[key] = AggregateStats(
            mean_s=mean,
            sample_std_s=std,
            ci95_half_width_s=1.96 * std / np.sqrt(n),
            sample_count=n,
        )
    bad = [k for k, s in stats.items() if not np.isfinite([s.mean_s, s.ci95_half_width_s]).all()]
    if bad:
        raise CamlatError(f"means and CI half-widths must be finite: {', '.join(bad)}")
    return stats
