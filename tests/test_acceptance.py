"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one printed
PASS line per criterion (pytest's own -v status lines report the same).
The sweeps use the default figure-calibrated profile and seed.
"""

import hashlib
import math

import numpy as np
import pytest

from camlat import cli, engine
from camlat.config import default_plan, plan_from_document
from camlat.experiments import SweepSpec, run_sweep
from camlat.radio import nearest_member_indices
from camlat.scenario import HardCoreParams, sample_hardcore_positions
from camlat.traffic import n_hat

VRU_VALUES = (50, 70, 90, 110, 130)
DENSITY_VALUES = (0.01, 0.03, 0.05, 0.07, 0.09)
CLUSTER_VALUES = (1, 3, 5, 7, 9)

# `camlat --replications 10 --seed 1729 reproduce`; a refactor that claims no
# behaviour change must reproduce these bytes exactly. Pinned on the stream
# layout of `rng.py`: a change that moves the sample path re-pins them.
GOLDEN_CSV_SHA256 = {
    "vru_sweep.csv": "aea7bcdfc23ef1b80e6d07e589528f7478b37bde460120fe2e6c49a8f39d95bb",
    "density_sweep.csv": "47f81c0e76b5f816e815a8ab89a087b259db41f41a82b9e859e77879a3b0ad28",
    "cluster_sweep.csv": "f12fbd232727fc91669dd74933e16692874d8da65324ec50fdd7bed9d10222fe",
}


@pytest.fixture(scope="module")
def figure_plan():
    return default_plan()


@pytest.fixture(scope="module")
def vru_sweep(figure_plan):
    return run_sweep(SweepSpec("vru_count", VRU_VALUES, figure_plan))


@pytest.fixture(scope="module")
def density_sweep(figure_plan):
    return run_sweep(SweepSpec("vehicle_intensity", DENSITY_VALUES, figure_plan))


@pytest.fixture(scope="module")
def cluster_sweep(figure_plan):
    return run_sweep(SweepSpec("cluster_size", CLUSTER_VALUES, figure_plan))


def _strictly_increasing(xs):
    return all(b > a for a, b in zip(xs, xs[1:]))


def _strictly_decreasing(xs):
    return all(b < a for a, b in zip(xs, xs[1:]))


def test_criterion_1_closed_form_unit_oracles():
    from camlat.channel import pathloss_db
    from camlat.latency import backhaul_latency, execution_latency

    height_terms = (
        -17.3 * math.log10(9.0) - 17.3 * math.log10(0.5) + 2.7 * math.log10(5.9) - 7.56
    )
    for d in (1000.0, 1.0, 100.0):
        assert pathloss_db(d, 10.0, 1.5, 5.9) == pytest.approx(
            22.7 * math.log10(d) + height_terms, rel=1e-9
        )
    assert backhaul_latency(10_000.0, 2, 10e6) == pytest.approx(2e-3, rel=1e-9)
    assert execution_latency(10_000.0, 200.0, 20, 9e9) == pytest.approx(4e7 / 9e9, rel=1e-9)

    plan = plan_from_document(
        {"scenario": {"vru_count": 25}, "engine": {"replications": 2, "periods": 2}}
    )
    packets = dict(zip(engine.COMPONENT_KEYS, engine.run_plan(plan)))
    assert packets["e2e_cloud"].size == 2 * 2 * 25
    assert packets["e2e_cloud"] - packets["e2e_mec"] == pytest.approx(
        2.0 * (packets["bh"] + packets["tn_cn"]), rel=1e-9
    )
    print("ACCEPTANCE 1 (closed-form unit oracles): PASS")


def test_criterion_2_mec_gain_band(vru_sweep):
    gains = [row.gain_pct for row in vru_sweep.rows]
    assert len(gains) == len(VRU_VALUES)
    for value, gain in zip(VRU_VALUES, gains):
        assert 61.0 <= gain <= 85.0, f"gain at N={value} out of band: {gain:.2f}"
    print(f"ACCEPTANCE 2 (edge gain in [61, 85] %): PASS  gains={[round(g, 1) for g in gains]}")


def test_criterion_3_vru_sweep_trend(vru_sweep):
    cloud = [row.stats["e2e_cloud"].mean_s * 1e3 for row in vru_sweep.rows]
    mec = [row.stats["e2e_mec"].mean_s * 1e3 for row in vru_sweep.rows]
    assert _strictly_increasing(cloud)
    assert _strictly_increasing(mec)
    assert cloud[0] == pytest.approx(116.6, rel=0.20)
    assert mec[0] == pytest.approx(23.3, rel=0.20)
    print(
        "ACCEPTANCE 3 (VRU sweep trend and anchors): PASS  "
        f"cloud@50={cloud[0]:.1f} ms, edge@50={mec[0]:.1f} ms"
    )


def test_criterion_4_density_sweep_trend(density_sweep):
    rows = density_sweep.rows
    assert [row.value for row in rows] == list(DENSITY_VALUES)
    dl = [row.stats["dl"].mean_s for row in rows]
    assert _strictly_decreasing(dl)
    # Common random numbers: only the vehicle draws depend on the density, so
    # the components that never see a vehicle are identical at every point.
    for key in ("ul", "bh", "tn_cn", "exc"):
        means = [row.stats[key].mean_s for row in rows]
        assert means == [means[0]] * len(means), f"{key} differs across densities: {means}"
    print(
        "ACCEPTANCE 4 (density sweep: DL falls, others flat): PASS  "
        f"DL={[round(v * 1e3, 1) for v in dl]} ms"
    )


def test_criterion_5_cluster_sweep_trend(cluster_sweep):
    dl = [row.stats["dl"].mean_s * 1e3 for row in cluster_sweep.rows]
    assert _strictly_increasing(dl)
    assert dl[-1] / dl[0] > 10.0
    assert dl[2] == pytest.approx(40.37, rel=0.25)  # cluster size 5
    print(
        "ACCEPTANCE 5 (cluster sweep: DL rises, ratio > 10): PASS  "
        f"DL={[round(v, 2) for v in dl]} ms, ratio={dl[-1] / dl[0]:.1f}"
    )


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(2025)

    # concurrency count vs brute-force double loop
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        offsets = rng.integers(0, 5, size=n)
        k = int(rng.integers(0, n))
        brute = sum(1 for o in offsets if o == offsets[k])
        assert n_hat(offsets)[k] == brute

    # nearest-cluster selection vs exhaustive sort
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        xs = rng.uniform(0, 3000, n)
        lanes = rng.integers(0, 2, n)
        ys = np.where(lanes == 0, 4.0, -4.0)
        vru_x = float(rng.uniform(1200, 1800))
        m = int(rng.integers(1, 9))

        def key(i):
            d2 = (xs[i] - vru_x) ** 2 + (ys[i] - 0.0) ** 2
            return (d2, xs[i], lanes[i])

        nearest = nearest_member_indices(np.array([vru_x]), xs, lanes, (4.0, -4.0), m)[0]
        assert list(nearest) == sorted(range(n), key=key)[:m]

    # hard-core sampler: min gap and realized intensity on the density grid
    for intensity in DENSITY_VALUES:
        params = HardCoreParams(intensity_per_m=intensity, hard_core_distance_m=10.0)
        sample_rng = np.random.default_rng(int(1000 * intensity))
        total = 0
        for _ in range(10_000):
            xs = sample_hardcore_positions(params, 3000.0, sample_rng)
            total += xs.size
            if xs.size > 1:
                assert float(np.min(np.diff(xs))) >= 10.0
        realized = total / 10_000 / 3000.0
        assert abs(realized - intensity) / intensity < 0.05
    print("ACCEPTANCE 6 (oracle equivalence and hard-core law): PASS")


def test_criterion_7_determinism(tmp_path):
    # byte-identical artifacts across two full reproduction runs, and equal to
    # the pinned golden tables (measured on Python 3.11.7, numpy 2.4.6)
    args = ["--replications", "10", "--seed", "1729"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out-dir", str(out_a), "reproduce"]) == 0
    assert cli.main(args + ["--out-dir", str(out_b), "reproduce"]) == 0
    for name, digest in GOLDEN_CSV_SHA256.items():
        assert hashlib.sha256((out_a / name).read_bytes()).hexdigest() == digest, name
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        assert (out_a / name.replace(".csv", ".svg")).read_bytes() == (
            out_b / name.replace(".csv", ".svg")
        ).read_bytes()

    # identical aggregates on one vs several workers
    doc = {"scenario": {"vru_count": 20}, "engine": {"replications": 4, "periods": 2}}
    serial = engine.aggregate(engine.run_plan(plan_from_document(doc)))
    doc["engine"]["workers"] = 3
    parallel = engine.aggregate(engine.run_plan(plan_from_document(doc)))
    assert serial == parallel
    print("ACCEPTANCE 7 (byte-identical runs, worker-count invariance): PASS")


def test_criterion_8_ci_shrinks_with_replications():
    base = {"engine": {"replications": 40, "periods": 5}}
    quad = {"engine": {"replications": 160, "periods": 5}}
    small = engine.aggregate(engine.run_plan(plan_from_document(base)))
    large = engine.aggregate(engine.run_plan(plan_from_document(quad)))
    ratios = {}
    for key in engine.COMPONENT_KEYS:
        ratio = small[key].ci95_half_width_s / large[key].ci95_half_width_s
        ratios[key] = round(ratio, 2)
        assert 1.6 <= ratio <= 2.4, f"{key} CI ratio {ratio:.2f} outside [1.6, 2.4]"
    print(f"ACCEPTANCE 8 (CI ~ 1/sqrt(n)): PASS  ratios={ratios}")
