"""Monte-Carlo orchestration: replications in blocks, the period pipeline, statistics.

A run is ``replications`` independent scenario realizations, each simulated
for ``periods`` message cycles. Every replication draws from its own
substreams, one per purpose (``rng``), and is reduced on its own, so its
output depends only on (master_seed, replication): replications can run in
any order, in blocks of any length, on any number of workers, and every
output comes out bit-identical.

Replications are evaluated in blocks, which ``_blocks`` sizes. A block of B
replications of P periods and n VRUs is a set of arrays whose row b holds
the block's b-th replication:

- ``vru_x``, shape (B, n): the VRUs' x;
- ``packets``, shape (B, P, n): period p's packet of VRU i at [b, p, i];
- ``vehicle_x``, shape (B, P, V): the kept vehicles' x in every period, in
  index order, each row padded with +inf to the block's largest kept count V;
- ``vehicle_lane``, shape (B, V): each kept vehicle's lane, any lane for the
  padding.

``run_replication`` builds them and ``evaluate_period`` computes every
packet of the block from them at once. The block's packets come out as one
float array of shape (7, B * P * n) whose rows follow ``COMPONENT_KEYS``,
one column per packet: VRUs within a period, then periods, then
replications. ``replication_moments`` reduces them at once, so no run keeps
more than one block's packets.

Only the vehicles that can join a VRU's cluster in some period are stepped
and ranked (``_within_reach``). With m the cluster size, take a
replication's period-0 vehicle positions over both lanes in x order: x- is
the m-th vehicle below the lowest VRU and x+ the m-th above the highest.
D = (periods - 1) * period_s * max|speed| over the replication's own
vehicles bounds how far any of them moves (0 without mobility), and
eps = ``REACH_SLACK`` * periods * road length is a slack far above the
stepping's rounding error. The replication keeps, in index order, the
vehicles whose period-0 x lies in [x- - w, x+ + w] with w = 2D + eps; a side
with fewer than m vehicles beyond the VRUs is kept whole. It keeps every
vehicle when it holds at most m, or when vehicles move and the kept interval
comes within D + eps of a road end (a side kept whole reaches it), where a
vehicle wrapping around could come in. The scenario is still sampled whole,
so no draw changes; the cut is a mask over its vehicles (``slice(None)``
where it keeps them all), by which the replication gathers its kept x, speed
and lane.

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
from .errors import CamlatError, ScenarioError
from .latency import COMPONENT_KEYS
from .rng import SubstreamFactory

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

# The (packet, cluster member) pairs, or (period, vehicle) slots where more,
# one block of replications may hold; it bounds the block's memory (see
# ``_blocks``).
BLOCK_PAIRS = 90_000

# The reach cut's rounding slack per metre of road and per period; stepping
# rounds each position by about 1e-16 of the road length per period.
REACH_SLACK = 1e-9

# glibc's mallopt parameter numbers (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


# Student's t 0.975 quantile for 1 to 9 degrees of freedom (``_t975``).
_T975_TABLE = (
    12.7062047362, 4.30265272975, 3.18244630528, 2.77644510520, 2.57058183564,
    2.44691185114, 2.36462425159, 2.30600413520, 2.26215716280,
)
_Z975 = 1.959963984540054


def _t975(dof: int) -> float:
    """Student's t 0.975 quantile for ``dof`` >= 1 degrees of freedom, in plain arithmetic.

    A table up to 9 degrees; above, the four-term Cornish-Fisher expansion
    about the normal quantile z (Abramowitz & Stegun 26.7.5), z plus
    g_k(z) / dof**k for k = 1..4. Its error shrinks with ``dof``: about
    4e-6 relative at 10, 1e-12 at 199, but 0.75 % at 2, hence the table.
    """
    if dof <= len(_T975_TABLE):
        return _T975_TABLE[dof - 1]
    z = _Z975
    terms = (
        (z**3 + z) / 4,
        (5 * z**5 + 16 * z**3 + 3 * z) / 96,
        (3 * z**7 + 19 * z**5 + 17 * z**3 - 15 * z) / 384,
        (79 * z**9 + 776 * z**7 + 1482 * z**5 - 1920 * z**3 - 945 * z) / 92160,
    )
    return z + sum(term / dof**k for k, term in enumerate(terms, 1))


@dataclass(frozen=True)
class AggregateStats:
    mean_s: float
    ci95_half_width_s: float
    sample_count: int  # packets: perfbench's packets_per_s counts them
    # The t-CI half-width of the replication means; None for one replication.
    replication_ci95_half_width_s: float | None = None


def evaluate_period(
    plan: SimulationPlan,
    vru_x: np.ndarray,
    vehicle_x: np.ndarray,
    vehicle_lane: np.ndarray,
    packets: np.ndarray,
    streams: SubstreamFactory,
    replications: range,
    cluster_sizes: tuple[int, ...] | None = None,
) -> np.ndarray:
    """All latency components of a block of replications, shape (7, B * P * n).

    Pure given ``streams``. The arrays are the block's (see the module
    docstring) and ``replications`` its replication indices. The lateral
    geometry comes from the road: the VRUs stand at y = 0 and each vehicle
    on its lane, at y = +-``lane_offset_m``. A replication's clusters hold
    m_r = min(``cluster_size``, its vehicles) members, so a road with fewer
    vehicles stays in its block; a replication with none is a
    ``ScenarioError``. Only the random draws go one replication at a time:
    each replication draws each purpose's whole block from its own stream,
    ``streams.stream(purpose, rep)``, in one call, in the shapes that the
    stream layout (``rng``) fixes. Every other step runs once over the
    block, from the bin counts and the cluster search
    (``radio.nearest_member_indices``) to the composition.

    The block holds one mean DL SNR per (replication, period, vehicle). Each
    replication gathers its members' means, draws their SNRs and reduces
    them at once, in place, to the slowest member's
    (``radio.slowest_member_snr``), so only (P, n, m_r) member SNRs exist at
    a time; ``radio.dl_latency`` then takes the block's slowest members'
    SNRs in one call, as ``radio.ul_latency`` takes the senders'.

    With ``cluster_sizes``, ascending sizes whose largest is the plan's own,
    the block serves every one of them (see ``run_plans``) and returns their
    moments, shape (len(cluster_sizes), 7, B, 2). The search runs once, at
    the plan's size, and ranks each VRU's members nearest first, so size k
    takes the first min(k, vehicles) of them; each size then draws its DL
    from the ``dl`` streams as a lone plan would, and its packets are
    reduced by ``replication_moments`` before the next size's DL and totals
    overwrite them.
    """
    reps, periods, v = vehicle_x.shape
    rows = reps * periods
    sizes = packets["size_bits"]
    n = sizes.shape[-1]
    n_hat = traffic.n_hat(packets["offset_bin"])
    # The cluster search runs first, before the block's output is held: its
    # entry-wide buffers are the block's largest. It raises nothing, so the
    # errors still come in pipeline order.
    counts = np.count_nonzero(vehicle_x[:, 0] < np.inf, axis=1)
    members = radio.nearest_member_indices(vru_x, vehicle_x, plan.radio.cluster_size)
    # Each member's index into the block's flat (rows * V) per-vehicle means.
    members += v * np.arange(rows)[:, None, None]
    members = members.reshape(reps, periods, n, -1)

    # The five components go straight into the rows of the block's output.
    samples = np.empty((len(COMPONENT_KEYS), sizes.size))
    t_ul, t_bh, t_tn_cn, t_exc, t_dl = samples[:5].reshape(5, reps, periods, n)
    enb_x, enb_y = plan.scenario.enb_position_m
    # A VRU's eNB distance is fixed for its replication: one mean per VRU,
    # broadcast over the periods. The UL row holds the SNRs until their latency.
    ul_budget = plan.channel.ul_budget()
    ul_mean = channel.mean_snr_db(ul_budget, np.hypot(vru_x - enb_x, enb_y))
    for b, rep in enumerate(replications):
        t_ul[b] = channel.sample_snr_db(
            ul_budget, np.broadcast_to(ul_mean[b], (periods, n)), streams.stream("ul", rep)
        )
        t_tn_cn[b] = latency.sample_tn_cn(
            plan.network, streams.stream("tn_cn", rep), size=(periods, n)
        )
    t_ul[...] = radio.ul_latency(sizes, radio.prb_share(plan.radio, n_hat, 1), t_ul, plan.radio)

    t_bh[...] = latency.backhaul_latency(sizes, n_hat, plan.network.backhaul_bps)
    t_exc[...] = latency.execution_latency(
        sizes, packets["compute_density"], n_hat, plan.network.server_cycles_per_s
    )

    if counts.min() == 0:
        raise ScenarioError("no vehicles on the road; cannot form clusters")
    offset = plan.scenario.lane_offset_m
    lane_dy = np.subtract((offset, -offset), enb_y)
    d_vehicle = np.hypot(vehicle_x - enb_x, lane_dy[vehicle_lane][:, None])
    dl_budget = plan.channel.dl_budget()
    dl_mean = channel.mean_snr_db(dl_budget, d_vehicle).ravel()
    moments = []
    for size in cluster_sizes or (plan.radio.cluster_size,):
        # The DL row holds each packet's slowest member SNR until its latency.
        cluster = np.minimum(counts, size)
        for b, rep in enumerate(replications):
            snr = channel.sample_snr_db(
                dl_budget, dl_mean[members[b, ..., : cluster[b]]], streams.stream("dl", rep)
            )
            radio.slowest_member_snr(snr, out=t_dl[b])
        if size == plan.radio.cluster_size:  # the last size
            del members, dl_mean  # freed before the DL latency's entry-wide temporaries
        dl_prbs = radio.prb_share(plan.radio, n_hat, cluster[:, None, None])
        t_dl[...] = radio.dl_latency(sizes, dl_prbs, t_dl, plan.radio)
        latency.compose_e2e(samples)
        if cluster_sizes is None:
            return samples
        moments.append(replication_moments(samples, periods * n))
    return np.stack(moments)


def _within_reach(plan: SimulationPlan, scn: scenario.Scenario) -> np.ndarray | slice:
    """Which of ``scn``'s vehicles can join a VRU's cluster: a mask, or ``slice(None)`` for all.

    The rule and why it changes no output are in the module docstring.
    """
    m = plan.radio.cluster_size
    length = plan.scenario.lane_length_m
    if scn.vehicle_count <= m:
        return slice(None)
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
        return slice(None)
    return (low <= scn.vehicle_x) & (scn.vehicle_x <= high)


def run_replication(
    plan: SimulationPlan, replications: range, cluster_sizes: tuple[int, ...] | None = None
) -> np.ndarray:
    """Simulate a block of replications for all periods of the plan, shape (7, n).

    Each replication samples its scenario, keeps the vehicles within reach
    of its VRUs (``_within_reach``) and draws its packets into the block's
    arrays; the kept vehicles are then stepped together, period by period.
    The columns equal those of the replications run one by one, in order.
    With ``cluster_sizes``, as every block of ``run_plans`` has, it returns
    each size's moments instead (see ``evaluate_period``). An error is the
    pipeline's own, as raised; ``_group_moments`` names its replication.
    """
    streams = SubstreamFactory(plan.master_seed)
    periods, n = plan.periods, plan.scenario.vru_count
    vru_x = np.empty((len(replications), n))
    packets = np.empty((len(replications), periods, n), traffic.PACKET_DTYPE)
    kept = []
    for b, rep in enumerate(replications):
        scn = scenario.sample_scenario(plan.scenario, streams, rep)
        keep = _within_reach(plan, scn)
        vru_x[b] = scn.vru_x
        packets[b] = traffic.generate_period(
            periods * n, plan.traffic, streams.stream("traffic", rep)
        ).reshape(periods, n)
        kept.append((scn.vehicle_x[keep], scn.vehicle_speed[keep], scn.vehicle_lane[keep]))
    # Row b of the block's vehicle arrays holds replication b's kept
    # vehicles, in index order, then padding.
    counts = np.array([columns[0].size for columns in kept])
    real = np.arange(counts.max()) < counts[:, None]
    x, speed, lane = (np.zeros(real.shape, dtype) for dtype in (float, float, np.int64))
    for block, columns in zip((x, speed, lane), zip(*kept)):
        block[real] = np.concatenate(columns)
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
    return evaluate_period(
        plan, vru_x, vehicle_x, lane, packets, streams, replications, cluster_sizes
    )


def _blocks(plan: SimulationPlan, replications: range, total: int | None = None) -> list[range]:
    """``replications`` cut into blocks of at most ``BLOCK_PAIRS`` pairs, vehicles or bins.

    The input sets the block size; it is not a setting. A block holds as
    many replications as fit ``BLOCK_PAIRS``, at periods * max(VRUs *
    cluster_size, LANES * intensity * length, offset_bins) per replication:
    its (packet, cluster member) pairs, its road's expected vehicles or the
    slots of ``traffic.n_hat``'s table, one per period and offset bin,
    whichever is more; a replication larger than that is a block alone.
    Each block pays a fixed cost in numpy calls whatever its length, so
    longer blocks are faster, and memory is what bounds them: a block's
    working set stays within 37 bytes per pair at the default point and 30
    at the dense one (0.09 /m, cluster 9), the budgets that
    ``tests/test_engine.py`` pins. Its vehicle arrays and the search's sort
    arrays grow with its kept vehicles instead, and the reach cut keeps the
    whole road when the VRU strip spans it, so the road's vehicles are
    counted too. A block shared by several cluster sizes is cut by its
    largest size's plan.

    On a pool of w > 1 workers (see ``_pool_workers``) a block holds
    at most max(1, T // (2 * w)) replications, T being ``total``, the
    replications of the whole task list this plan is submitted with (by
    default its own). T counts every plan's replications, a shared block's
    once per plan, as the block evaluates its DL, totals and moments once
    per plan. A list whose plans share no block thus gets at least
    min(T, 2 * w) blocks, and no worker idles; a serial run is not capped.
    """
    scn = plan.scenario
    vehicles = scenario.LANES * scn.vehicle_intensity_per_m * scn.lane_length_m
    cost = plan.periods * max(
        scn.vru_count * plan.radio.cluster_size, vehicles, plan.traffic.offset_bins
    )
    size = int(BLOCK_PAIRS // cost)
    workers = _pool_workers(plan.workers)
    if workers > 1:
        total = len(replications) if total is None else total
        size = min(size, total // (2 * workers))
    size = max(1, size)
    return [replications[i : i + size] for i in range(0, len(replications), size)]


@cache
def _keep_freed_memory() -> None:
    """Let each block reuse the memory earlier blocks freed; once per process.

    By default glibc maps every array above 128 KiB on its own and unmaps it
    when freed, and it trims its heap above 128 KiB free, so each block would
    fault its working set in again from zero pages. glibc raises both
    thresholds by itself only after it frees a large array, which a run may
    do late or never. So before its first block each process, serial or pool
    worker, sets the mmap threshold to 32 MiB (glibc's own ceiling for it)
    and the trim threshold to 64 MiB (twice that, as glibc would). Where libc
    has no ``mallopt`` the allocator is left as it is; no output depends on it.
    """
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
    contiguous row: the mean, then the squared deviations from it. Each
    value comes from its own replication's row alone, so it does not depend
    on the block that replication was evaluated in.
    """
    rows = samples.reshape(len(samples), -1, packets_per_replication)
    moments = np.empty(rows.shape[:2] + (2,))
    moments[..., 0] = rows.mean(axis=2)
    # One component at a time, so only one row of squared deviations is held.
    for row, moment in zip(rows, moments):
        deviations = row - moment[:, :1]
        deviations *= deviations
        moment[:, 1] = deviations.sum(axis=1)
    return moments


def _group_moments(plans: tuple[SimulationPlan, ...], block: range) -> list:
    """Each plan's moments of ``block``, or the ``CamlatError`` it raises alone.

    ``plans`` differ only in their cluster sizes, which ascend; a lone plan
    is a group of one size. One evaluation of the block, at the largest
    size, gives every plan its moments, shape (7, len(block), 2). If it
    raises a ``CamlatError``, a larger group runs the block again as a group
    of one per plan. A group of one runs a longer block's replications one
    by one and returns the first one's error, as a serial run would; else,
    its error prefixed ``replication r: ``, r being the block's first. This
    is the engine's one failure path. An array numpy cannot allocate, a
    ``MemoryError``, fails the same way, as a ``CamlatError`` with numpy's
    message.
    """
    _keep_freed_memory()
    try:
        return list(run_replication(plans[-1], block, tuple(p.radio.cluster_size for p in plans)))
    except (CamlatError, MemoryError) as exc:
        if len(plans) > 1:
            return [_group_moments((plan,), block)[0] for plan in plans]
        alone = (_group_moments(plans, range(r, r + 1))[0] for r in block if len(block) > 1)
        failed = (outcome for outcome in alone if isinstance(outcome, CamlatError))
        kind = type(exc) if isinstance(exc, CamlatError) else CamlatError
        return [next(failed, kind(f"replication {block[0]}: {exc}"))]


def _replication_task(args: tuple[tuple[SimulationPlan, ...], range]) -> list:
    return _group_moments(*args)


def __getattr__(name: str):
    # ``ProcessPoolExecutor`` is imported on first use, and kept as a module global.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _pool_workers(workers: int) -> int:
    """The processes a pool for ``workers`` workers opens: at most one per CPU."""
    return min(workers, os.cpu_count() or 1)


# The open pool, shared by nested ``pool`` blocks.
_open_pool: ProcessPoolExecutor | None = None


@contextmanager
def pool(workers: int) -> Iterator[ProcessPoolExecutor | None]:
    """A process pool of ``workers`` workers, at most one per CPU, or None for a serial run.

    Reentrant: inside a block that already holds a pool, that pool is
    reused, whatever its size, as the CLI does for a whole invocation;
    otherwise a new one is opened here and shut down, its workers joined,
    when the block exits. If the block exits on an exception, the tasks
    still queued on the pool are cancelled first. The fork start method
    forks every worker at the first submit. The pool class is the module
    attribute ``ProcessPoolExecutor``, imported with ``concurrent.futures``
    and ``multiprocessing`` when the first pool opens, so a serial run never
    imports them; a class assigned to it beforehand opens every later pool.
    """
    global _open_pool
    if workers == 1:
        yield None
    elif _open_pool is not None:
        yield _open_pool
    else:
        executor_type = globals().get("ProcessPoolExecutor") or __getattr__("ProcessPoolExecutor")
        executor = _open_pool = executor_type(max_workers=_pool_workers(workers))
        failed = True
        try:
            yield executor
            failed = False
        finally:
            _open_pool = None
            executor.shutdown(cancel_futures=failed)


def _collect(results: list, index: int) -> np.ndarray:
    """Plan ``index`` of a group's moments: its outcome of each block's ``result()``, joined.

    The blocks are read in replication order; the first error is raised.
    """
    moments = []
    for result in results:
        outcome = result()[index]
        if isinstance(outcome, CamlatError):
            raise outcome
        moments.append(outcome)
    return np.concatenate(moments, axis=1)


def run_plans(
    plans: list[SimulationPlan], executor: ProcessPoolExecutor | None
) -> list[Callable[[], np.ndarray]]:
    """One callable per plan, returning its ``run_plan`` moments or raising its error.

    Plans equal but for their cluster sizes draw the same roads, packets, UL
    SNRs and transport+core delays from the same streams; only the DL
    depends on the size. They form a group, equal plans counting once, a
    lone plan being a group of one size, so every block takes one path.
    Each block of a group is one task, returned as its moments: it
    evaluates the block once for all the group's sizes (``_group_moments``),
    at the largest size m, whose reach cut keeps every vehicle a smaller
    size's cut keeps. Each size then draws its own DL (see
    ``evaluate_period``), so every plan gets the bytes it gets alone, and a
    plan's blocks are joined in replication order.

    With an ``executor``, every block of every group is submitted here, in
    the order of each group's first plan, so the workers never wait at a
    plan boundary; a block that raises fails its own plans only. The pool's
    block cap counts the replications of all ``plans`` (see ``_blocks``).
    Without one, a group's block is computed when the first of its plans is
    read, and kept for the others.
    """
    total = sum(plan.replications for plan in plans)
    groups: dict[SimulationPlan, dict[int, SimulationPlan]] = {}
    for plan in plans:
        # Keyed by the plan at one fixed cluster size: equal for plans equal but for it.
        key = replace(plan, radio=replace(plan.radio, cluster_size=1))
        groups.setdefault(key, {})[plan.radio.cluster_size] = plan
    runs = {}
    for by_size in groups.values():
        group = tuple(by_size[size] for size in sorted(by_size))
        blocks = _blocks(group[-1], range(group[-1].replications), total)
        if executor is None:
            # Not through _replication_task: perfbench/tracer.py replaces it
            # with a wrapper that resets and spills the spans of a worker.
            results = [cache(partial(_group_moments, group, block)) for block in blocks]
        else:
            results = [
                executor.submit(_replication_task, (group, block)).result for block in blocks
            ]
        for index, plan in enumerate(group):
            runs[plan] = partial(_collect, results, index)
    return [runs[plan] for plan in plans]


def run_plan(plan: SimulationPlan) -> np.ndarray:
    """Every replication's moments, shape (7, R, 2), in replication order on any worker count.

    See ``replication_moments``; ``aggregate`` pools them.
    """
    with pool(plan.workers) as executor:
        return run_plans([plan], executor)[0]()


@np.errstate(over="ignore", invalid="ignore")
def aggregate(moments: np.ndarray, packets_per_replication: int) -> dict[str, AggregateStats]:
    """Mean and 95% CI half-widths per component over every packet.

    ``moments`` holds R replications of W = ``packets_per_replication``
    packets each, as ``run_plan`` returns them. The mean is the mean of the
    replication means; the sum of squared deviations pools the replications'
    own with W times the squared deviations of their means (Chan, Golub &
    LeVeque, 1979). ``ci95_half_width_s`` treats the n = R * W packets as
    independent. ``replication_ci95_half_width_s`` treats the R replication
    means as the sample: t(0.975, R - 1) * s / sqrt(R), s their standard
    deviation; it is None for R = 1. An empty ``moments`` is a
    ``CamlatError``, and so is a component whose mean or half-width is not
    finite, naming every such component.
    """
    replications = moments.shape[1]
    n = replications * packets_per_replication
    if n == 0:
        raise CamlatError("cannot aggregate an empty sample set")
    t975 = _t975(replications - 1) if replications > 1 else None
    stats: dict[str, AggregateStats] = {}
    for key, (means, m2s) in zip(COMPONENT_KEYS, moments.transpose(0, 2, 1)):
        mean = float(np.mean(means))
        m2 = float(np.sum(m2s)) + packets_per_replication * float(np.sum(np.square(means - mean)))
        std = float(np.sqrt(m2 / (n - 1))) if n > 1 else 0.0
        replication_half_width = None
        if t975 is not None:
            replication_half_width = t975 * float(np.std(means, ddof=1)) / np.sqrt(replications)
        stats[key] = AggregateStats(
            mean_s=mean,
            ci95_half_width_s=1.96 * std / np.sqrt(n),
            sample_count=n,
            replication_ci95_half_width_s=replication_half_width,
        )
    bad = [
        key for key, s in stats.items()
        if not np.isfinite(
            [s.mean_s, s.ci95_half_width_s, s.replication_ci95_half_width_s or 0.0]
        ).all()
    ]
    if bad:
        raise CamlatError(f"means and CI half-widths must be finite: {', '.join(bad)}")
    return stats
