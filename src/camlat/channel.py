"""Link budget: pathloss, shadowing, fast fading, SNR.

The default pathloss model is the urban macro formula

    PL(dB) = 22.7 log10(d) - 17.3 log10(h_enb - 1) - 17.3 log10(h_ue - 1)
             + 2.7 log10(f_c) - 7.56

with d in meters and f_c in GHz; effective antenna heights are the actual
heights minus 1 m and must stay positive. A plain log-distance model
(10 * n * log10(d) + offset) can be substituted per config for
sensitivity studies; the configured pathloss exponent is only used there.

Shadowing and fast fading are independent zero-mean Gaussians in the dB
domain, redrawn for every packet transmission; their sum is drawn as one
Gaussian of std sqrt(shadow_std**2 + fading_std**2). SNR in dB is

    tx_power - PL - X_shadow - X_fade - additional_losses - noise_power,

whose deterministic part, all but the two Gaussians, is ``mean_snr_db``.

``ChannelParams`` holds the knobs both directions share; the config
document checks them. A ``LinkBudget`` adds only what differs by
direction: the transmit power, the terminal's antenna height (the VRU's in
the uplink, the vehicle's in the downlink) and the additional losses, which
in the downlink include the calibration margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PATHLOSS_MODELS = ("winner-plus", "log-distance")


def pathloss_db(d_m, h_enb_m: float, h_ue_m: float, fc_ghz: float):
    """Default pathloss in dB; distances below 1 m are clamped to 1 m."""
    d = np.maximum(d_m, 1.0)
    return (
        22.7 * np.log10(d)
        - 17.3 * np.log10(h_enb_m - 1.0)
        - 17.3 * np.log10(h_ue_m - 1.0)
        + 2.7 * np.log10(fc_ghz)
        - 7.56
    )


def log_distance_pathloss_db(d_m, exponent: float, offset_db: float):
    """Sensitivity-study alternative: PL = 10 * n * log10(d) + offset."""
    return 10.0 * exponent * np.log10(np.maximum(d_m, 1.0)) + offset_db


@dataclass(frozen=True)
class LinkBudget:
    """What one link direction adds to the shared ``channel`` knobs."""

    channel: ChannelParams
    tx_power_dbm: float
    h_ue_m: float
    additional_losses_db: float

    def pathloss(self, d_m):
        c = self.channel
        if c.pathloss_model == "log-distance":
            return log_distance_pathloss_db(d_m, c.pathloss_exponent, c.log_distance_offset_db)
        return pathloss_db(d_m, c.enb_height_m, self.h_ue_m, c.frequency_ghz)


def mean_snr_db(budget: LinkBudget, d_m):
    """A link's mean SNR in dB at distance ``d_m``: its SNR without shadowing and fading."""
    return (
        budget.tx_power_dbm
        - budget.pathloss(d_m)
        - budget.additional_losses_db
        - budget.channel.thermal_noise_dbm
    )


def sample_snr_db(budget: LinkBudget, mean_db, rng: np.random.Generator):
    """One fresh SNR draw per link around its ``mean_snr_db``, in the shape of ``mean_db``.

    Shadowing and fading are independent zero-mean normals, so their sum is
    drawn as one normal with std hypot(shadow std, fading std). It is always
    drawn (a zero std yields exactly 0.0), so stream consumption does not
    depend on the configuration.
    """
    std = math.hypot(budget.channel.shadowing_std_db, budget.channel.fast_fading_std_db)
    # The values of rng.normal(0.0, std), which scales standard normals the same way.
    snr = rng.standard_normal(size=np.shape(mean_db))
    snr *= std
    np.subtract(mean_db, snr, out=snr)
    return snr


@dataclass(frozen=True)
class ChannelParams:
    """The config document's channel section: the knobs both link directions share.

    ``dl_calibration_loss_db`` is an extra downlink-only loss margin, the
    declared calibration parameter of the profiles: 90 dB in
    "figure-calibrated", 0 dB in "table-literal".
    """

    ul_tx_power_dbm: float
    dl_tx_power_dbm: float
    frequency_ghz: float
    enb_height_m: float
    vru_height_m: float
    vehicle_height_m: float
    shadowing_std_db: float
    fast_fading_std_db: float
    thermal_noise_dbm: float
    additional_losses_db: float
    dl_calibration_loss_db: float
    pathloss_model: str
    pathloss_exponent: float
    log_distance_offset_db: float

    def ul_budget(self) -> LinkBudget:
        """VRU to base station."""
        return LinkBudget(self, self.ul_tx_power_dbm, self.vru_height_m, self.additional_losses_db)

    def dl_budget(self) -> LinkBudget:
        """Base station to cluster vehicle."""
        return LinkBudget(
            self,
            self.dl_tx_power_dbm,
            self.vehicle_height_m,
            self.additional_losses_db + self.dl_calibration_loss_db,
        )
