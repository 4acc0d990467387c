"""Closed-form latency components and E2E composition."""

from dataclasses import replace

import numpy as np
import pytest

from camlat.config import default_plan
from camlat.errors import CamlatError
from camlat.latency import (
    COMPONENT_KEYS,
    backhaul_latency,
    compose_e2e,
    execution_latency,
    sample_tn_cn,
)


def test_backhaul_worked_examples():
    assert backhaul_latency(10_000.0, 2, 10e6) == pytest.approx(2e-3, rel=1e-9)
    assert backhaul_latency(10_000.0, 1, 10e6) == pytest.approx(1e-3, rel=1e-9)


def test_backhaul_linear_in_sharing():
    assert backhaul_latency(10_000.0, 8, 10e6) == pytest.approx(
        2 * backhaul_latency(10_000.0, 4, 10e6), rel=1e-12
    )


def test_backhaul_linear_in_size():
    c = 3.7
    assert backhaul_latency(c * 10_000.0, 5, 10e6) == pytest.approx(
        c * backhaul_latency(10_000.0, 5, 10e6), rel=1e-12
    )


def test_execution_worked_examples():
    assert execution_latency(10_000.0, 200.0, 1, 9e9) == pytest.approx(
        10_000.0 * 200.0 / 9e9, rel=1e-9
    )
    # batch of 20 concurrent senders
    assert execution_latency(10_000.0, 200.0, 20, 9e9) == pytest.approx(4e7 / 9e9, rel=1e-9)
    assert round(execution_latency(10_000.0, 200.0, 20, 9e9) * 1e3, 3) == 4.444


def test_execution_zero_work():
    assert execution_latency(10_000.0, 0.0, 3, 9e9) == 0.0


def test_execution_linear_in_size():
    c = 2.5
    assert execution_latency(c * 10_000.0, 200.0, 4, 9e9) == pytest.approx(
        c * execution_latency(10_000.0, 200.0, 4, 9e9), rel=1e-12
    )


def test_tn_cn_degenerate_is_point_mass():
    network = replace(default_plan().network, tn_cn_one_way_s=(0.025, 0.025))
    rng = np.random.default_rng(0)
    assert sample_tn_cn(network, rng) == 0.025


@pytest.mark.parametrize(
    "low_ms, high_ms, mean_ms",
    [(35.0, 55.0, 45.0), (15.0, 35.0, 25.0)],
)
def test_tn_cn_sample_means(low_ms, high_ms, mean_ms):
    network = replace(default_plan().network, tn_cn_one_way_s=(low_ms / 1e3, high_ms / 1e3))
    rng = np.random.default_rng(7)
    draws = sample_tn_cn(network, rng, size=100_000)
    assert abs(float(np.mean(draws)) * 1e3 - mean_ms) < 0.5
    assert np.all(draws >= low_ms / 1e3) and np.all(draws <= high_ms / 1e3)


def _compose(t_ul, t_bh, t_tn_cn, t_exc, t_dl):
    """One packet's composed row, keyed by component name."""
    samples = np.empty((len(COMPONENT_KEYS), 1))
    samples[:5, 0] = (t_ul, t_bh, t_tn_cn, t_exc, t_dl)
    out = compose_e2e(samples)
    assert out is samples  # the totals are written in place
    return dict(zip(COMPONENT_KEYS, out[:, 0]))


def test_compose_worked_example():
    # component values in ms: UL=1.1, BH=1.6, TN+CN=45, Exc=3.6, DL=18.3
    b = _compose(1.1e-3, 1.6e-3, 45e-3, 3.6e-3, 18.3e-3)
    assert b["e2e_cloud"] * 1e3 == pytest.approx(116.2, rel=1e-9)
    assert b["e2e_mec"] * 1e3 == pytest.approx(23.0, rel=1e-9)


def test_compose_zero_components():
    b = _compose(0.0, 0.0, 0.0, 0.0, 0.0)
    assert b["e2e_cloud"] == 0.0 and b["e2e_mec"] == 0.0


def test_decomposition_identity_is_exact():
    b = _compose(0.4e-3, 11.7e-3, 43.21e-3, 4.9e-3, 37.3e-3)
    assert b["e2e_cloud"] == b["e2e_mec"] + 2.0 * (b["bh"] + b["tn_cn"])
    assert b["e2e_mec"] <= b["e2e_cloud"]


def test_compose_rejects_negative_components():
    with pytest.raises(CamlatError, match="non-negative: ul$"):
        _compose(-1e-3, 0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_compose_rejects_non_finite_components(bad):
    # NaN passes a plain `< 0` test, so finiteness is checked explicitly
    with pytest.raises(CamlatError, match="finite and non-negative: bh$"):
        _compose(1e-3, bad, 0.0, 0.0, 0.0)


def test_compose_leaves_an_overflowing_total_infinite_without_a_warning():
    # finite components whose cloud total overflows: the total is +inf, which
    # engine.aggregate rejects by name, and no numpy warning comes first
    b = _compose(1e-3, 1e308, 45e-3, 1e-3, 1e-3)
    assert b["e2e_cloud"] == np.inf
    assert b["e2e_mec"] == pytest.approx(3e-3, rel=1e-9)
