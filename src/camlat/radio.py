"""Radio access layer: the radio section, equal-share scheduling, clustering, UL/DL latency.

The scheduler is fluid: the PRB pool splits equally (fractionally) among
every user scheduled in the same offset bin. A link's rate is

    r = prbs * prb_bandwidth * log2(1 + SNR_linear)   [bits/s]

and its transmission latency is size / r. Downlink multicast to a VRU's
vehicle cluster completes when the slowest member has received the packet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnreachableLinkError


@dataclass(frozen=True)
class RadioParams:
    """The config document's radio section: the PRB pool and the multicast cluster size."""

    bandwidth_hz: float
    prb_bandwidth_hz: float
    cluster_size: int

    @property
    def total_prbs(self) -> int:
        return int(self.bandwidth_hz // self.prb_bandwidth_hz)


def nearest_member_indices(vru_x: np.ndarray, vehicle_x: np.ndarray, m: int) -> np.ndarray:
    """Indices of each VRU's m nearest vehicles, shape (B * P, n_vru, m).

    The VRUs stand at y = 0 and every vehicle at one lateral distance from
    them, on either lane, so a vehicle's distance order is its |dx| order.
    The input is a block of B replications of P periods each: ``vru_x``
    holds each replication's VRUs' x, shape (B, n_vru), and ``vehicle_x``
    their vehicles' x in every period, shape (B, P, V). Each output row is
    one (replication, period) snapshot, periods within replications; row r
    belongs to replication r // P. At most V members are returned.

    A replication may end in padding vehicles at x = +inf, which sort after
    every real vehicle; their indices follow the real vehicles'. A
    replication with fewer than m real vehicles picks all of them, nearest
    first, and its picks end in padding.

    Ties on exact squared x-distance break toward the lower x-coordinate,
    then the lower vehicle index. ``scenario.sample_scenario`` numbers lane
    0's vehicles before lane 1's, so the index order is also the lane order.

    The engine passes only the vehicles within reach of the VRUs; the
    ``engine`` module docstring states that cut and why it keeps every member.

    Each row's vehicles are sorted once by (x, index), a stable sort on x,
    followed by +inf and then NaN, and each VRU is placed into that order by
    one binary search over all rows at once. The vehicles below its place
    form its left side, the rest its right side; walked away from the VRU,
    each side's rounded squared distance never falls, as rounded subtraction
    and squaring are monotone. m merge steps over every (row, VRU) entry at
    once take the nearer head, the left one on equal distance (it has the
    lower x), and advance that side. A spent left side reaches a NaN, which
    compares false, so it is never taken; the right side's +inf lies beyond
    the at most V steps, and its padding comes last, in index order.

    Walked downward, a left run of equal distances comes out in descending
    (x, index) order, so an entry that takes a left head whose next-left
    neighbour has the same distance is ranked again by a stable sort on
    distance over its whole row.
    """
    reps, periods, v = vehicle_x.shape
    rows = reps * periods
    n = vru_x.shape[1]
    framed = np.empty((rows, v + 2))  # each row's vehicles, +inf, NaN
    framed[:, :v], framed[:, v], framed[:, v + 1] = vehicle_x.reshape(rows, v), np.inf, np.nan
    order = np.argsort(framed, axis=1, kind="stable")
    xs = np.take_along_axis(framed, order, axis=1)
    q = np.repeat(vru_x, periods, axis=0)
    # Flat index of each VRU's left head, the last vehicle below it: row r's
    # sorted position i is entry r * (V + 2) + i, so the entry before a row's
    # first vehicle is the NaN ending the row above it (the last row's for row 0).
    left = _lower_bound(xs, q) + np.repeat(np.arange(rows) * (v + 2) - 1, n)
    xs, q = xs.ravel(), q.ravel()  # entry r * n_vru + u is row r's VRU u

    take = min(m, v)
    picks = np.empty((q.size, take), dtype=order.dtype)
    left_tie = np.zeros(q.size, dtype=bool)
    dl = q - xs[left]
    dl *= dl
    for k in range(take):
        # After k steps the right head lies k + 1 past the left one.
        right = left + (k + 1)
        dr = q - xs[right]
        dr *= dr
        took_left = dl <= dr
        picks[:, k] = np.where(took_left, left, right)
        left -= took_left
        d = q - xs[left]
        d *= d
        left_tie |= took_left & (d == dl)
        dl = d
    out = order.ravel()[picks]
    # Re-rank the entries that took a left run of equal distances.
    tied = np.flatnonzero(left_tie)
    d2 = q[tied, None] - xs.reshape(rows, -1)[tied // n]
    d2 *= d2
    first = np.argsort(d2, axis=1, kind="stable")[:, :take]
    out[tied] = np.take_along_axis(order[tied // n], first, axis=1)
    return out.reshape(rows, n, take)


def _lower_bound(xs: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.searchsorted(xs[r], q[r])`` of every row r at once, flattened to (rows * n,).

    ``xs`` is (rows, V), each row sorted (a NaN counts as above every query),
    V > 0; ``q`` is (rows, n). A branchless binary search: every entry halves
    the same lengths, so each of the about log2 V passes is one gather,
    compare and add over all of them.
    """
    rows, v = xs.shape
    flat = xs.ravel()
    q = q.ravel()
    base = np.repeat(np.arange(rows) * v, q.size // rows)  # row r's entry i is r * V + i
    first = base.copy()
    length = v
    while length > 1:
        half = length // 2
        base += half * (flat[base + half] < q)
        length -= half
    base += flat[base] < q
    return base - first


def prb_share(radio: RadioParams, n_hat, members):
    """Fractional PRBs per link when the pool splits equally over one offset bin.

    Every packet of a bin is served together: ``n_hat`` packets, each sent
    over ``members`` links (1 in the uplink, the cluster size in the
    downlink multicast); ``members`` broadcasts against ``n_hat``.
    """
    return radio.total_prbs / (np.asarray(n_hat) * members)


def link_rate_bps(prbs, snr_db, radio: RadioParams):
    """Achievable rate of a link holding ``prbs`` (possibly fractional) PRBs."""
    snr_linear = np.power(10.0, np.asarray(snr_db, dtype=float) / 10.0)
    return np.asarray(prbs, dtype=float) * radio.prb_bandwidth_hz * np.log2(1.0 + snr_linear)


def _latency(size_bits, prbs, snr_db, radio: RadioParams, direction, unreachable):
    """size / rate; a zero or NaN rate raises ``unreachable``, an infinite one an overflow error."""
    with np.errstate(over="ignore"):  # an SNR above about 3,083 dB overflows the rate to +inf
        rate = link_rate_bps(prbs, snr_db, radio)
    if np.any(rate <= 0) or not np.all(np.isfinite(rate)):
        if np.any(rate == np.inf):
            raise UnreachableLinkError(f"{direction} rate is not finite: its SNR overflows")
        raise UnreachableLinkError(unreachable)
    return np.asarray(size_bits, dtype=float) / rate


def ul_latency(size_bits, prbs, snr_db, radio: RadioParams):
    """Uplink transmission time size / rate; a zero, NaN or infinite rate is an error."""
    return _latency(size_bits, prbs, snr_db, radio, "uplink", "uplink has zero achievable rate")


def dl_latency(size_bits, prbs, member_snr_db, radio: RadioParams) -> np.ndarray:
    """Multicast completion time per packet: its slowest cluster member's reception latency.

    ``member_snr_db`` holds one row per packet and one column per cluster
    member; ``prbs`` holds, per packet, the PRB share of each of its members.
    The members share the PRB share and the rate rises with the SNR, so the
    slowest member is the one with the lowest SNR, and only its rate is
    computed. A NaN SNR makes its packet's rate NaN, which is an error.
    """
    sizes = np.asarray(size_bits, dtype=float)
    snr = np.asarray(member_snr_db, dtype=float)
    if snr.ndim != 2 or snr.shape[0] != sizes.size:
        raise ValueError("one row of member SNRs per packet is required")
    # One elementwise minimum per member column: np.min(snr, axis=1) would run
    # one short reduction per row, in the same order and to the same values.
    slowest = snr[:, 0].copy()
    for column in snr.T[1:]:
        np.minimum(slowest, column, out=slowest)
    unreachable = "a downlink cluster has an unreachable member"
    return _latency(sizes, prbs, slowest, radio, "downlink", unreachable)
