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
    """Indices of each VRU's m nearest vehicles, shape (n_vru, m).

    Ties on exact distance break toward the lower x-coordinate, then the
    lower lane index: vehicles are pre-ordered by (x, lane) and a stable
    sort on squared distance preserves that order among equals.
    """
    if m < 1:
        raise ConfigurationError("cluster size must be at least 1")
    if vehicle_x.size == 0:
        raise ScenarioError("no vehicles on the road; cannot form clusters")
    order = np.lexsort((vehicle_lane, vehicle_x))
    dx = np.subtract.outer(vru_x, vehicle_x[order])
    dy = np.subtract.outer(vru_y, vehicle_y[order])
    d2 = dx * dx + dy * dy
    take = min(m, vehicle_x.size)
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :take]
    return order[nearest]


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
