"""Link budget: pathloss, shadowing, fast fading, SNR.

The default pathloss model is the urban macro formula

    PL(dB) = 22.7 log10(d) - 17.3 log10(h_enb - 1) - 17.3 log10(h_ue - 1)
             + 2.7 log10(f_c) - 7.56

with d in meters and f_c in GHz; effective antenna heights are the actual
heights minus 1 m and must stay positive. A plain log-distance model
(10 * n * log10(d) + offset) can be substituted per config for
sensitivity studies; the configured pathloss exponent is only used there.

Shadowing and fast fading are zero-mean Gaussians in the dB domain,
redrawn for every packet transmission. SNR in dB is

    tx_power - PL - X_shadow - X_fade - additional_losses - noise_power.

``ChannelParams`` holds the knobs both directions share and checks them
when built. A ``LinkBudget`` adds only what differs by direction: the
transmit power, the terminal's antenna height (the VRU's in the uplink, the
vehicle's in the downlink) and the additional losses, which in the downlink
include the calibration margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

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
        return pathloss_db(d_m, c.enb_height_m, self.h_ue_m, c.carrier_freq_ghz)


def sample_snr_db(budget: LinkBudget, d_m, rng: np.random.Generator):
    """One fresh SNR draw per link; pure function of geometry when stds are zero.

    Shadowing and fading are always drawn (a zero std yields exactly 0.0),
    so stream consumption does not depend on the configuration.
    """
    shadow = rng.normal(0.0, budget.channel.shadow_std_db, size=np.shape(d_m))
    fade = rng.normal(0.0, budget.channel.fast_fade_std_db, size=np.shape(d_m))
    return (
        budget.tx_power_dbm
        - budget.pathloss(d_m)
        - shadow
        - fade
        - budget.additional_losses_db
        - budget.channel.noise_power_dbm
    )


@dataclass(frozen=True)
class ChannelParams:
    """The channel knobs both link directions share, checked when built.

    ``dl_calibration_loss_db`` is an extra downlink-only loss margin, the
    declared calibration parameter of the "figure-calibrated" profile, whose
    90 dB is the default here (0 dB in the "table-literal" profile).
    """

    ul_tx_power_dbm: float = 23.0
    dl_tx_power_dbm: float = 46.0
    carrier_freq_ghz: float = 5.9
    enb_height_m: float = 10.0
    vru_height_m: float = 1.5
    vehicle_height_m: float = 1.5
    shadow_std_db: float = 3.0
    fast_fade_std_db: float = 4.0
    additional_losses_db: float = 15.0
    dl_calibration_loss_db: float = 90.0
    noise_power_dbm: float = -110.0
    pathloss_model: str = "winner-plus"
    pathloss_exponent: float = 3.0
    log_distance_offset_db: float = 47.86

    def __post_init__(self):
        if self.carrier_freq_ghz <= 0:
            raise ConfigurationError("carrier frequency must be positive")
        if self.pathloss_exponent <= 0:
            raise ConfigurationError("pathloss exponent must be positive")
        if self.shadow_std_db < 0 or self.fast_fade_std_db < 0:
            raise ConfigurationError("fading standard deviations must be non-negative")
        if self.pathloss_model not in PATHLOSS_MODELS:
            raise ConfigurationError(f"unknown pathloss model {self.pathloss_model!r}")
        heights = (self.enb_height_m, self.vru_height_m, self.vehicle_height_m)
        if self.pathloss_model == "winner-plus" and min(heights) <= 1.0:
            raise ConfigurationError("antenna heights must exceed 1 m for the default model")

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
