"""Periodic awareness-message workload.

Every period each VRU emits one packet: size and compute demand are drawn
uniform from their ranges, and the transmission start is a uniform offset
bin inside the period. Offsets are redrawn fresh every period; resource
sharing is driven by how many VRUs land in the same bin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TrafficParams:
    period_s: float
    offset_bins: int
    size_bits_range: tuple[float, float]
    compute_cycles_per_bit: tuple[float, float]


PACKET_DTYPE = np.dtype(
    [("offset_bin", np.int64), ("size_bits", np.float64), ("compute_density", np.float64)]
)


def generate_period(vru_count: int, params: TrafficParams, rng: np.random.Generator) -> np.ndarray:
    """Draw one period's packets, one record per VRU in VRU order, from fresh randomness.

    The record fields are ``offset_bin``, ``size_bits`` and ``compute_density``
    (cycles per bit); see ``PACKET_DTYPE``.
    """
    packets = np.empty(vru_count, dtype=PACKET_DTYPE)
    packets["offset_bin"] = rng.integers(0, params.offset_bins, size=vru_count)
    packets["size_bits"] = rng.uniform(*params.size_bits_range, size=vru_count)
    packets["compute_density"] = rng.uniform(*params.compute_cycles_per_bit, size=vru_count)
    return packets


def n_hat(offsets: np.ndarray) -> np.ndarray:
    """Per packet, how many packets (its own included) share its offset bin.

    ``offsets`` holds each period's bins along its last axis, in any leading
    shape: (n,) for one period, (B, P, n) for a block of B replications of P
    periods. Bins are counted within each period.
    """
    rows = np.atleast_2d(offsets)
    periods = np.arange(np.prod(rows.shape[:-1], dtype=int))
    keys = rows + (rows.max(initial=0) + 1) * periods.reshape(rows.shape[:-1] + (1,))
    return np.bincount(keys.ravel())[keys].reshape(np.shape(offsets))
