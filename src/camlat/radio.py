"""Radio access layer: PRB pool, equal-share scheduling, clustering, UL/DL latency.

The scheduler is fluid: the PRB pool splits equally (fractionally) among
every user scheduled in the same offset bin. A link's rate is

    r = prbs * prb_bandwidth * log2(1 + SNR_linear)   [bits/s]

and its transmission latency is size / r. Downlink multicast to a VRU's
vehicle cluster completes when the slowest member has received the packet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, ScenarioError, UnreachableLinkError


@dataclass(frozen=True)
class PrbPool:
    bandwidth_hz: float = 9e6
    prb_bandwidth_hz: float = 180e3

    def __post_init__(self):
        if self.prb_bandwidth_hz <= 0:
            raise ConfigurationError("PRB bandwidth must be positive")
        if self.total_prbs < 1:
            raise ConfigurationError("bandwidth must fit at least one PRB")

    @property
    def total_prbs(self) -> int:
        return int(self.bandwidth_hz // self.prb_bandwidth_hz)


def nearest_member_indices(
    vru_x: np.ndarray,
    vehicle_x: np.ndarray,
    vehicle_lane: np.ndarray,
    lane_y: tuple[float, ...],
    m: int,
) -> np.ndarray:
    """Indices of each VRU's m nearest vehicles, shape (n_vru, m) or (R, n_vru, m).

    The VRUs stand at y = 0 and each vehicle on its lane's lateral offset
    ``lane_y[lane]``. ``vehicle_x`` is one snapshot of positions, shape (V,),
    or R rows of them, shape (R, V): one per period, or one per
    (replication, period) of a block of replications. The VRU x-coordinates
    (shape (n_vru,) or (R, n_vru)) and the vehicles' lanes (shape (V,) or
    (R, V)) are either shared by every row or given per row, and the result
    gains the row axis to match. At most V members are returned.

    A row may end in padding vehicles at x = +inf, on any lane, which sort
    after every real vehicle and are never picked while the row holds at
    least m real ones; their indices follow the real vehicles'.

    Ties on exact squared distance break toward the lower x-coordinate,
    then the lower lane index, then the lower vehicle index.

    Each row's vehicles are sorted once by (x, lane, index) and each VRU
    is placed into that order by ``searchsorted``. A contiguous window of
    2m candidates around it is ranked by a stable sort on squared distance,
    which keeps the (x, lane, index) order among equals; each window gathers
    its squared lateral offsets from ``lane_y**2`` by sorted lane. The window
    always reaches the VRU's sorted position, so the nearest vehicle outside
    each window edge lies on the far side of the VRU. The pick is certified
    when that vehicle, even on the lane nearest the VRUs, is strictly farther
    than the m-th pick: every vehicle beyond it is then farther still,
    because rounded subtraction, squaring and addition are monotone. Rows
    that fail retry with a doubled window; at window V this is the full
    sort, which needs no certificate.
    """
    x = np.atleast_2d(vehicle_x)
    rows, v = x.shape
    if v == 0:
        raise ScenarioError("no vehicles on the road; cannot form clusters")
    n = np.shape(vru_x)[-1]
    vru_x = np.broadcast_to(vru_x, (rows, n))
    lane_dy2 = np.square(np.asarray(lane_y, dtype=float))
    min_dy2 = lane_dy2.min()  # the lane nearest the VRUs
    # (x, lane, index) order: a stable sort on x of the vehicles taken lane by lane.
    by_lane = np.broadcast_to(np.argsort(vehicle_lane, axis=-1, kind="stable"), (rows, v))
    by_x = np.argsort(np.take_along_axis(x, by_lane, axis=1), axis=1, kind="stable")
    order = np.take_along_axis(by_lane, by_x, axis=1)
    xs = np.take_along_axis(x, order, axis=1)
    lanes = np.take_along_axis(np.broadcast_to(vehicle_lane, (rows, v)), order, axis=1)
    # Sorted position of each VRU: vehicles before it have a smaller x.
    start = np.concatenate([np.searchsorted(row, q) for row, q in zip(xs, vru_x)])
    # Flat views: row r's sorted position i is entry r * V + i, and its
    # VRU u is entry r * n_vru + u.
    order, xs, lanes, vru_x = order.ravel(), xs.ravel(), lanes.ravel(), vru_x.ravel()

    take = min(m, v)
    out = np.empty((rows * n, take), dtype=order.dtype)
    pending = np.arange(out.shape[0])
    width = min(2 * take, v)
    while pending.size:
        row = pending // n
        lo = np.clip(start[pending] - width // 2, 0, v - width)
        first = row * v + lo
        # d2 = dx * dx + dy * dy over each window, in place. The (rows, width)
        # arrays set a block's peak memory, so each is freed once used: the
        # lane gather's index array is gone before d2 is made.
        dy2 = lane_dy2[sliding_window_view(lanes, width)[first]]
        d2 = sliding_window_view(xs, width)[first]
        np.subtract(vru_x[pending, None], d2, out=d2)
        d2 *= d2
        d2 += dy2
        del dy2
        picks = np.argsort(d2, axis=1, kind="stable")[:, :take]
        mth = np.take_along_axis(d2, picks[:, -1:], axis=1)[:, 0]
        del d2
        picks += first[:, None]
        out[pending] = order[picks]
        del picks
        if width == v:
            break
        # Certificate: the first vehicle past each window edge, on the lane
        # nearest the VRUs, is farther than the m-th pick. lo <= start <=
        # lo + width, so that vehicle is on the VRU's far side.
        left_gap = vru_x[pending] - xs[row * v + np.maximum(lo - 1, 0)]
        right_gap = vru_x[pending] - xs[row * v + np.minimum(lo + width, v - 1)]
        left_ok = (lo == 0) | (left_gap * left_gap + min_dy2 > mth)
        right_ok = (lo + width == v) | (right_gap * right_gap + min_dy2 > mth)
        pending = pending[~(left_ok & right_ok)]
        width = min(2 * width, v)
    out = out.reshape(rows, n, take)
    return out if np.ndim(vehicle_x) == 2 else out[0]


def prb_share(pool: PrbPool, n_hat, members: int):
    """Fractional PRBs per link when the pool splits equally over one offset bin.

    Every packet of a bin is served together: ``n_hat`` packets, each sent
    over ``members`` links (1 in the uplink, the cluster size in the
    downlink multicast).
    """
    return pool.total_prbs / (np.asarray(n_hat) * members)


def link_rate_bps(prbs, snr_db, pool: PrbPool):
    """Achievable rate of a link holding ``prbs`` (possibly fractional) PRBs."""
    snr_linear = np.power(10.0, np.asarray(snr_db, dtype=float) / 10.0)
    return np.asarray(prbs, dtype=float) * pool.prb_bandwidth_hz * np.log2(1.0 + snr_linear)


def ul_latency(size_bits, prbs, snr_db, pool: PrbPool):
    """Uplink transmission time size / rate; a zero-rate link is an error."""
    rate = link_rate_bps(prbs, snr_db, pool)
    if np.any(rate <= 0) or not np.all(np.isfinite(rate)):
        raise UnreachableLinkError("uplink has zero achievable rate")
    return np.asarray(size_bits, dtype=float) / rate


def dl_latency(size_bits, prbs, member_snr_db, pool: PrbPool) -> np.ndarray:
    """Multicast completion time per packet: its slowest cluster member's reception latency.

    ``member_snr_db`` holds one row per packet and one column per cluster
    member; ``prbs`` holds, per packet, the PRB share of each of its members.
    """
    sizes = np.asarray(size_bits, dtype=float)
    snr = np.asarray(member_snr_db, dtype=float)
    if snr.ndim != 2 or snr.shape[0] != sizes.size:
        raise ValueError("one row of member SNRs per packet is required")
    rates = link_rate_bps(np.asarray(prbs, dtype=float)[:, None], snr, pool)
    if np.any(rates <= 0) or not np.all(np.isfinite(rates)):
        raise UnreachableLinkError("a downlink cluster has an unreachable member")
    return np.max(sizes[:, None] / rates, axis=1)
