"""Link-budget unit oracles and SNR sampling properties."""

import math
from dataclasses import replace

import numpy as np
import pytest

from camlat.channel import (
    LinkBudget,
    log_distance_pathloss_db,
    mean_snr_db,
    pathloss_db,
    sample_snr_db,
)
from camlat.config import default_plan

H_ENB = 10.0
H_UE = 1.5
FC = 5.9


def reference_pathloss(d: float) -> float:
    # independent arithmetic for the closed-form check
    return (
        22.7 * math.log10(d)
        - 17.3 * math.log10(H_ENB - 1.0)
        - 17.3 * math.log10(H_UE - 1.0)
        + 2.7 * math.log10(FC)
        - 7.56
    )


@pytest.mark.parametrize(
    "d, rounded",
    [(1000.0, 51.32), (1.0, -16.78), (100.0, 28.62)],
)
def test_pathloss_worked_examples(d, rounded):
    expected = reference_pathloss(d)
    assert round(expected, 2) == rounded
    assert pathloss_db(d, H_ENB, H_UE, FC) == pytest.approx(expected, rel=1e-9)


def test_pathloss_strictly_increasing_in_distance():
    ds = np.linspace(1.0, 3000.0, 400)
    pl = pathloss_db(ds, H_ENB, H_UE, FC)
    assert np.all(np.diff(pl) > 0)


def test_pathloss_clamps_short_distances():
    assert pathloss_db(0.2, H_ENB, H_UE, FC) == pathloss_db(1.0, H_ENB, H_UE, FC)


def test_log_distance_model():
    assert log_distance_pathloss_db(100.0, 3.0, 47.86) == pytest.approx(47.86 + 60.0, rel=1e-12)
    budget = _budget(shadow=0.0, fade=0.0, model="log-distance")
    assert budget.pathloss(100.0) == pytest.approx(107.86, rel=1e-12)


def _budget(tx=23.0, shadow=3.0, fade=4.0, losses=15.0, model="winner-plus"):
    channel = replace(
        default_plan().channel,
        frequency_ghz=FC,
        enb_height_m=H_ENB,
        shadowing_std_db=shadow,
        fast_fading_std_db=fade,
        thermal_noise_dbm=-110.0,
        pathloss_model=model,
        pathloss_exponent=3.0,
        log_distance_offset_db=47.86,
    )
    return LinkBudget(channel, tx_power_dbm=tx, h_ue_m=H_UE, additional_losses_db=losses)


def test_snr_deterministic_when_stds_zero():
    rng = np.random.default_rng(0)
    budget = _budget(shadow=0.0, fade=0.0)
    snr = sample_snr_db(budget, mean_snr_db(budget, 1000.0), rng)
    expected = 23.0 - reference_pathloss(1000.0) - 15.0 + 110.0
    assert round(expected, 2) == 66.68
    assert snr == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("shadow, fade", [(3.0, 4.0), (0.0, 0.0)])
def test_snr_noise_is_one_normal_draw_per_link(shadow, fade):
    # the noise is rng.normal(0, hypot(shadow, fade)), value for value, and
    # consumes the stream as that call would
    budget = _budget(shadow=shadow, fade=fade)
    mean = mean_snr_db(budget, np.linspace(10.0, 2000.0, 24).reshape(4, 6))
    drawn, expected = np.random.default_rng(5), np.random.default_rng(5)
    snr = sample_snr_db(budget, mean, drawn)
    assert np.array_equal(snr, mean - expected.normal(0.0, math.hypot(shadow, fade), mean.shape))
    assert drawn.standard_normal() == expected.standard_normal()


def test_snr_linear_in_tx_power():
    loud, quiet = _budget(tx=23.0, shadow=0.0, fade=0.0), _budget(tx=13.0, shadow=0.0, fade=0.0)
    a = sample_snr_db(loud, mean_snr_db(loud, 500.0), np.random.default_rng(1))
    b = sample_snr_db(quiet, mean_snr_db(quiet, 500.0), np.random.default_rng(1))
    assert a - b == pytest.approx(10.0, abs=1e-12)


def test_snr_noise_terms_have_zero_mean():
    budget = _budget()
    rng = np.random.default_rng(42)
    draws = sample_snr_db(budget, np.full(100_000, mean_snr_db(budget, 1000.0)), rng)
    deterministic = 23.0 - reference_pathloss(1000.0) - 15.0 + 110.0
    assert abs(float(np.mean(draws)) - deterministic) < 0.1


def test_snr_vectorized_matches_scalar_shape():
    budget = _budget(shadow=0.0, fade=0.0)
    ds = np.array([10.0, 100.0, 1000.0])
    out = sample_snr_db(budget, mean_snr_db(budget, ds), np.random.default_rng(2))
    assert out.shape == (3,)
    assert out[2] == pytest.approx(66.68, abs=0.005)


def test_dl_budget_includes_calibration_margin():
    params = replace(default_plan().channel, dl_calibration_loss_db=90.0)
    assert params.dl_budget().additional_losses_db == pytest.approx(105.0)
    assert params.ul_budget().additional_losses_db == pytest.approx(15.0)
    # directional powers and heights
    assert params.ul_budget().tx_power_dbm == 23.0
    assert params.dl_budget().tx_power_dbm == 46.0
    assert params.ul_budget().h_ue_m == 1.5
    assert params.dl_budget().h_ue_m == params.vehicle_height_m
