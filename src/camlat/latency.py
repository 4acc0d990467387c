"""Latency components and end-to-end composition for both architectures.

Per packet of ``l`` bits from a VRU whose offset bin holds ``n_hat``
concurrent senders:

    backhaul    t_bh  = l * n_hat / c_bh          (capacity shared equally)
    execution   t_exc = n_hat * l * beta / f      (server batches the bin)
    transport + core: one combined uniform draw per packet, one-way

End-to-end, distant cloud:  t_ul + 2*(t_bh + t_tn_cn) + t_exc + t_dl
End-to-end, edge host:      t_ul + t_exc + t_dl   (no network segment)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

# Rows of every per-packet latency array, in this order.
COMPONENT_KEYS = ("ul", "bh", "tn_cn", "exc", "dl", "e2e_cloud", "e2e_mec")


@dataclass(frozen=True)
class TnCnDistribution:
    """Uniform one-way transport+core delay, in seconds."""

    low_s: float
    high_s: float

    def __post_init__(self):
        if not 0 <= self.low_s <= self.high_s:
            raise ConfigurationError("transport+core delay range must satisfy 0 <= min <= max")


@dataclass(frozen=True)
class NetworkParams:
    backhaul_bps: float = 10e6
    tn_cn: TnCnDistribution = TnCnDistribution(0.035, 0.055)
    server_cycles_per_s: float = 9e9

    def __post_init__(self):
        if self.backhaul_bps <= 0:
            raise ConfigurationError("backhaul capacity must be positive")
        if self.server_cycles_per_s <= 0:
            raise ConfigurationError("server capacity must be positive")


def backhaul_latency(size_bits, n_hat, backhaul_bps: float):
    """Routing time through the shared finite-capacity backhaul."""
    return np.asarray(size_bits, dtype=float) * np.asarray(n_hat, dtype=float) / backhaul_bps


def execution_latency(size_bits, cycles_per_bit, n_hat, server_cycles_per_s: float):
    """Processing time when the server's capacity is split over the bin."""
    return (
        np.asarray(n_hat, dtype=float)
        * np.asarray(size_bits, dtype=float)
        * np.asarray(cycles_per_bit, dtype=float)
        / server_cycles_per_s
    )


def sample_tn_cn(dist: TnCnDistribution, rng: np.random.Generator, size=None):
    """One combined transport+core one-way delay draw per packet."""
    return rng.uniform(dist.low_s, dist.high_s, size=size)


def compose_e2e(t_ul, t_bh, t_tn_cn, t_exc, t_dl) -> np.ndarray:
    """Stack per-packet components and both architectures' E2E figures.

    Takes five equal-length 1-D arrays and returns a (7, n) array whose rows
    follow ``COMPONENT_KEYS``. The edge-host path skips backhaul and
    transport/core entirely, so e2e_cloud == e2e_mec + 2*(t_bh + t_tn_cn)
    holds exactly by construction.
    """
    # Written in place: one call composes a whole block of replications.
    out = np.empty((len(COMPONENT_KEYS), len(t_ul)))
    components = out[:5]
    components[:] = (t_ul, t_bh, t_tn_cn, t_exc, t_dl)
    if not np.all((components >= 0) & (components < np.inf)):
        raise ValueError("latency components must be finite and non-negative")
    ul, bh, tn_cn, exc, dl = components
    np.add(ul + exc, dl, out=out[6])
    np.add(out[6], 2.0 * (bh + tn_cn), out=out[5])
    return out
