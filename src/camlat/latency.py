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

from .errors import CamlatError

# Rows of every per-packet latency array, in this order.
COMPONENT_KEYS = ("ul", "bh", "tn_cn", "exc", "dl", "e2e_cloud", "e2e_mec")


@dataclass(frozen=True)
class NetworkParams:
    """The config document's network section, in SI units."""

    backhaul_bps: float
    server_cycles_per_s: float
    tn_cn_one_way_s: tuple[float, float]  # bounds of the uniform one-way delay


# A tiny capacity can overflow a latency to +inf; ``compose_e2e`` rejects it
# by name, so numpy's overflow warning would only repeat that error.
@np.errstate(over="ignore")
def backhaul_latency(size_bits, n_hat, backhaul_bps: float):
    """Routing time through the shared finite-capacity backhaul."""
    return np.asarray(size_bits, dtype=float) * np.asarray(n_hat, dtype=float) / backhaul_bps


@np.errstate(over="ignore")
def execution_latency(size_bits, cycles_per_bit, n_hat, server_cycles_per_s: float):
    """Processing time when the server's capacity is split over the bin."""
    return (
        np.asarray(n_hat, dtype=float)
        * np.asarray(size_bits, dtype=float)
        * np.asarray(cycles_per_bit, dtype=float)
        / server_cycles_per_s
    )


def sample_tn_cn(network: NetworkParams, rng: np.random.Generator, size=None):
    """One combined transport+core one-way delay draw per packet."""
    return rng.uniform(*network.tn_cn_one_way_s, size=size)


def compose_e2e(samples: np.ndarray) -> np.ndarray:
    """Complete a (7, n) array of per-packet components with both architectures' E2E figures.

    Rows follow ``COMPONENT_KEYS``: the caller writes the five components
    into the first five rows, and the two totals are written here, in place;
    ``samples`` is returned. The edge-host path skips backhaul and
    transport/core entirely, so e2e_cloud == e2e_mec + 2*(t_bh + t_tn_cn)
    holds exactly by construction.
    """
    components = samples[:5]
    valid = (components >= 0) & (components < np.inf)
    if not valid.all():
        bad = ", ".join(key for key, row in zip(COMPONENT_KEYS, valid) if not row.all())
        raise CamlatError(f"latency components must be finite and non-negative: {bad}")
    ul, bh, tn_cn, exc, dl = components
    # A total that overflows is left +inf; ``engine.aggregate`` rejects it by name.
    with np.errstate(over="ignore"):
        np.add(ul + exc, dl, out=samples[6])
        np.add(samples[6], 2.0 * (bh + tn_cn), out=samples[5])
    return samples
