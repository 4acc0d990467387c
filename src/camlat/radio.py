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
    vru_y: np.ndarray,
    vehicle_x: np.ndarray,
    vehicle_y: np.ndarray,
    vehicle_lane: np.ndarray,
    m: int,
) -> np.ndarray:
    """Indices of each VRU's m nearest vehicles, shape (n_vru, m) or (P, n_vru, m).

    ``vehicle_x`` is one snapshot of positions, shape (V,), or one row per
    period, shape (P, V); the lateral offsets and lanes are shared by every
    period, and the result gains the period axis to match. At most V
    members are returned.

    Ties on exact squared distance break toward the lower x-coordinate,
    then the lower lane index, then the lower vehicle index.

    Each period's vehicles are sorted once by (x, lane, index) and each VRU
    is placed into that order by ``searchsorted``. A contiguous window of
    2m candidates around it is ranked by a stable sort on squared distance,
    which keeps the (x, lane, index) order among equals. The window always
    reaches the VRU's sorted position, so the nearest vehicle outside each
    window edge lies on the far side of the VRU. The pick is certified when
    that vehicle, even at the smallest lateral offset of any lane, is
    strictly farther than the m-th pick: every vehicle beyond it is then
    farther still, because rounded subtraction, squaring and addition are
    monotone. Rows that fail retry with a doubled window; at window V this
    is the full sort, which needs no certificate.
    """
    x = np.atleast_2d(vehicle_x)
    periods, v = x.shape
    if v == 0:
        raise ScenarioError("no vehicles on the road; cannot form clusters")
    vru_x = np.asarray(vru_x)
    vru_y = np.asarray(vru_y)
    # (x, lane, index) order: a stable sort on x of the vehicles taken lane by lane.
    by_lane = np.argsort(vehicle_lane, kind="stable")
    order = by_lane[np.argsort(x[:, by_lane], axis=1, kind="stable")]
    xs = np.take_along_axis(x, order, axis=1)
    # Sorted position of each VRU: vehicles before it have a smaller x.
    start = np.concatenate([np.searchsorted(row, vru_x) for row in xs])
    # Smallest squared lateral offset to any vehicle: it is reached at the
    # lateral position just below or just above the VRU's.
    lateral = np.sort(vehicle_y)
    near = np.searchsorted(lateral, vru_y)
    lane_dy = vru_y - lateral[np.clip([near - 1, near], 0, v - 1)]
    min_dy2 = np.min(lane_dy * lane_dy, axis=0)
    # Flat views: period p's sorted position i is entry p * V + i.
    order, xs = order.ravel(), xs.ravel()
    ys = np.asarray(vehicle_y)[order]

    take = min(m, v)
    out = np.empty((periods * vru_x.size, take), dtype=order.dtype)
    pending = np.arange(out.shape[0])
    width = min(2 * take, v)
    while pending.size:
        p, u = np.divmod(pending, vru_x.size)
        lo = np.clip(start[pending] - width // 2, 0, v - width)
        window = (p * v + lo)[:, None] + np.arange(width)
        dx = vru_x[u, None] - xs[window]
        dy = vru_y[u, None] - ys[window]
        d2 = dx * dx + dy * dy
        rank = np.argsort(d2, axis=1, kind="stable")[:, :take]
        out[pending] = order[np.take_along_axis(window, rank, axis=1)]
        if width == v:
            break
        # Certificate: the first vehicle past each window edge, at the
        # smallest lateral offset of any lane, is farther than the m-th pick.
        # lo <= start <= lo + width, so that vehicle is on the VRU's far side.
        mth = d2[np.arange(len(d2)), rank[:, -1]]
        left_gap = vru_x[u] - xs[p * v + np.maximum(lo - 1, 0)]
        right_gap = vru_x[u] - xs[p * v + np.minimum(lo + width, v - 1)]
        left_ok = (lo == 0) | (left_gap * left_gap + min_dy2[u] > mth)
        right_ok = (lo + width == v) | (right_gap * right_gap + min_dy2[u] > mth)
        pending = pending[~(left_ok & right_ok)]
        width = min(2 * width, v)
    out = out.reshape(periods, vru_x.size, take)
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
    rate = np.asarray(prbs, dtype=float) * pool.prb_bandwidth_hz * np.log2(1.0 + snr_linear)
    return rate if rate.ndim else float(rate)


def ul_latency(size_bits, prbs, snr_db, pool: PrbPool):
    """Uplink transmission time size / rate; a zero-rate link is an error."""
    rate = link_rate_bps(prbs, snr_db, pool)
    if np.any(np.asarray(rate) <= 0) or not np.all(np.isfinite(np.asarray(rate))):
        raise UnreachableLinkError("uplink has zero achievable rate")
    out = np.asarray(size_bits, dtype=float) / rate
    return out if isinstance(out, np.ndarray) and out.ndim else float(out)


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
