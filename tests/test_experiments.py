"""Config handling, sweeps, CSV and SVG artifacts, CLI surface."""

import csv
import importlib
import json
import math
import multiprocessing
import os
import pkgutil
import re
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import camlat
from camlat import cli, engine
from camlat.config import (
    _FIELDS,
    PROFILES,
    SWEEPS,
    default_document,
    load_config,
    override_parameter,
    plan_from_document,
)
from camlat.engine import AggregateStats
from camlat.errors import CamlatError, ConfigurationError
from camlat.experiments import (
    CSV_HEADER,
    SweepResult,
    SweepRow,
    SweepSpec,
    csv_lines,
    emit_csv,
    render_svg,
    run_sweep,
)


def _small_plan(**scenario):
    doc = {
        "scenario": {"vru_count": 10, **scenario},
        "engine": {"replications": 3, "periods": 2, "master_seed": 5},
    }
    return plan_from_document(doc)


# --- config ------------------------------------------------------------------


def test_empty_document_yields_full_default_plan():
    plan = plan_from_document({})
    assert plan.scenario.vru_count == 100
    assert plan.scenario.hardcore.intensity_per_m == 0.01
    assert plan.scenario.hardcore.hard_core_distance_m == 10.0
    assert plan.radio.cluster_size == 5
    assert plan.radio.total_prbs == 50
    assert plan.network.backhaul_bps == 10e6
    assert plan.network.server_cycles_per_s == 9e9
    # figure-calibrated profile is the default
    assert plan.network.tn_cn_one_way_s == pytest.approx((0.035, 0.055))
    assert plan.channel.dl_calibration_loss_db == 90.0
    assert plan.channel.ul_tx_power_dbm == 23.0
    assert plan.channel.dl_tx_power_dbm == 46.0
    assert plan.channel.thermal_noise_dbm == -110.0
    assert plan.channel.pathloss_exponent == 3.0  # parsed and stored, unused by default


def test_table_literal_profile():
    plan = plan_from_document({"profile": "table-literal"})
    assert plan.network.tn_cn_one_way_s == pytest.approx((0.015, 0.035))
    assert plan.channel.dl_calibration_loss_db == 0.0


def test_explicit_fields_override_profile():
    plan = plan_from_document(
        {"profile": "table-literal", "network": {"tn_cn_one_way_ms": [40, 50]}}
    )
    assert plan.network.tn_cn_one_way_s == pytest.approx((0.040, 0.050))


def test_infeasible_density_rejected_with_field_path():
    with pytest.raises(ConfigurationError, match="vehicle_intensity_per_m"):
        plan_from_document({"scenario": {"vehicle_intensity_per_m": 0.2}})


def _violation(path, value, reported=None):
    """A document that sets one field, and the path its violation is reported under."""
    section, key = path.split(".")
    case = f"{path}={json.dumps(value, separators=(',', ':'))}"  # no spaces in the test id
    return pytest.param({section: {key: value}}, reported or path, id=case)


# One case per side of every rule: the field rules, the pair rules (the
# speed and packet minimums among them), the density and PRB products, the
# finite PRB quotient, the winner-plus heights and the eNB and VRU strip on
# the segment.
@pytest.mark.parametrize("document, path", [
    _violation("scenario.lane_length_km", 0),
    _violation("scenario.lane_length_km", 1, "scenario.enb_position_m"),
    _violation("scenario.lane_length_km", 1e306),  # finite in km, infinite in metres
    _violation("scenario.lane_length_km", 2e4),  # 200,000 vehicles per lane at 0.01 /m
    _violation("scenario.enb_position_m", [-1, 10]),
    _violation("scenario.enb_position_m", [3001, 10]),
    _violation("scenario.vehicle_intensity_per_m", 0),
    _violation("scenario.vehicle_intensity_per_m", 0.1),
    _violation("scenario.inter_vehicle_distance_m", -1),
    _violation("scenario.inter_vehicle_distance_m", 100, "scenario.vehicle_intensity_per_m"),
    _violation("scenario.speed_kmh", [0, 140]),
    _violation("scenario.speed_kmh", [140, 70]),
    _violation("scenario.vru_count", 0),
    _violation("scenario.vru_strip_m", [1500, 1500]),
    _violation("scenario.vru_strip_m", [1800, 1200]),
    _violation("scenario.vru_strip_m", [-1, 300]),
    _violation("scenario.vru_strip_m", [2800, 3001]),
    _violation("traffic.period_ms", 0),
    _violation("traffic.offset_bins", 0),
    _violation("traffic.offset_bins", 2**64),  # beyond numpy's int64 draws
    _violation("traffic.offset_bins", 1e300),  # an integer-valued float
    _violation("traffic.packet_kbits", [0, 12]),
    _violation("traffic.packet_kbits", [12, 8]),
    _violation("traffic.compute_cycles_per_bit", [-1, 300]),
    _violation("traffic.compute_cycles_per_bit", [300, 100]),
    _violation("channel.frequency_ghz", 0),
    _violation("channel.enb_height_m", 1),
    _violation("channel.vru_height_m", 1),
    _violation("channel.vehicle_height_m", 1),
    _violation("channel.shadowing_std_db", -1),
    _violation("channel.fast_fading_std_db", -1),
    _violation("channel.pathloss_model", "free-space"),
    _violation("channel.pathloss_exponent", 0),
    _violation("radio.bandwidth_mhz", 0.17),
    _violation("radio.prb_bandwidth_khz", 0),
    _violation("radio.prb_bandwidth_khz", 10_000, "radio.bandwidth_mhz"),
    _violation("radio.prb_bandwidth_khz", 1e-310),
    _violation("radio.bandwidth_mhz", 1e303, "radio.prb_bandwidth_khz"),
    _violation("radio.cluster_size", 0),
    _violation("network.backhaul_mbps", 0),
    _violation("network.server_gcycles_per_s", 0),
    _violation("network.tn_cn_one_way_ms", [-1, 20]),
    _violation("network.tn_cn_one_way_ms", [40, 20]),
    _violation("engine.master_seed", -1),
    _violation("engine.replications", 0),
    _violation("engine.periods", 0),
    _violation("engine.workers", 0),
])
def test_rule_violation_names_its_field_path(document, path):
    with pytest.raises(ConfigurationError, match=re.escape(f"{path}: ")):
        plan_from_document(document)


@pytest.mark.parametrize("parameter, value, path", [
    ("vru_count", 0, "scenario.vru_count"),
    ("vehicle_intensity", 0.0, "scenario.vehicle_intensity_per_m"),
    ("vehicle_intensity", 0.2, "scenario.vehicle_intensity_per_m"),
    ("vehicle_intensity", float("nan"), "scenario.vehicle_intensity_per_m"),
    ("cluster_size", 0, "radio.cluster_size"),
])
def test_bad_sweep_value_fails_its_point_with_field_path(parameter, value, path):
    result = run_sweep(SweepSpec(parameter, (value,), _small_plan()))
    assert result.rows == ()
    ((_, message),) = result.failures
    assert message.startswith(f"{path}: ")
    assert "\n" not in message


def test_sweep_value_past_the_vehicles_per_lane_bound_fails_its_point():
    # with no minimum gap any intensity is feasible, but 40 /m puts 120,000
    # vehicles on each lane of the 3 km road
    plan = _small_plan(inter_vehicle_distance_m=0.0)
    result = run_sweep(SweepSpec("vehicle_intensity", (0.01, 40.0), plan))
    assert [row.value for row in result.rows] == [0.01]
    ((value, message),) = result.failures
    assert value == 40.0
    assert message.startswith("scenario.lane_length_km: expected vehicles per lane")


def test_overflowing_lane_length_is_a_config_error(tmp_path, capsys):
    # 1e306 km is finite, its metres are not: a config error naming the
    # field, not an overflow in the scenario sampler
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"scenario": {"lane_length_km": 1e306}}), encoding="utf-8")
    assert cli.main(["--config", str(conf), "--replications", "2", "run"]) == 1
    err = capsys.readouterr().err
    assert "scenario.lane_length_km: must be finite in metres" in err
    assert "Traceback" not in err


def test_readme_parameter_table_matches_default_document():
    # the README table is a third copy of the defaults: it must not drift
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    document = default_document()
    seen = set()
    for line in readme.splitlines():
        if not re.match(r"\| [a-z]+\.", line):
            continue
        fields, default, _ = (cell.strip() for cell in line.strip("|").split("|"))
        section, keys = fields.split(".", 1)
        keys = [key.strip() for key in keys.split("/")]
        if default == "profile":
            values = [default] * len(keys)
        else:
            values = [json.loads(cell) for cell in default.split("/")]
        assert len(values) == len(keys), line
        for key, value in zip(keys, values):
            path = f"{section}.{key}"
            seen.add(path)
            # a "profile" row is exactly a field that every profile presets
            assert all((path in presets) == (value == "profile") for presets in PROFILES.values())
            if value != "profile":
                expected = document[section][key]
                assert (list(expected) if isinstance(expected, tuple) else expected) == value, path
    assert seen == {f"{section}.{key}" for section, fields in document.items() for key in fields}


def test_readme_pipeline_points_to_code_that_explains_itself():
    # the Pipeline section names the docstrings that own each engine rule:
    # a pointer that no longer resolves, or lands on no docstring, has drifted
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Pipeline\n", 1)[1].split("\n## ", 1)[0]
    modules = {info.name for info in pkgutil.iter_modules(camlat.__path__)}
    documented = []
    for name in re.findall(r"`([\w.]+)`", section):
        module, *attributes = name.removeprefix("camlat.").split(".")
        if module not in modules:
            continue
        target = importlib.import_module(f"camlat.{module}")
        for attribute in attributes:
            target = getattr(target, attribute)
        if callable(target) or not attributes:  # a function or a module, not a constant
            assert (target.__doc__ or "").strip(), name
            documented.append(name)
    assert len(documented) >= 7, documented


def test_all_violations_reported_together():
    doc = {
        "scenario": {"vru_count": 0, "lane_length_km": -3, "vru_strip_m": [1500, 1500]},
        "traffic": {"period_ms": 0},
        "channel": {"vru_height_m": 1.0, "frequency_ghz": 0, "pathloss_exponent": 0},
        "radio": {"cluster_size": 0},
        "network": {"backhaul_mbps": 0, "server_gcycles_per_s": 0},
        "engine": {"master_seed": -1},
    }
    with pytest.raises(ConfigurationError) as err:
        plan_from_document(doc)
    message = str(err.value)
    for section, fields in doc.items():
        for key in fields:
            assert f"{section}.{key}: " in message


@pytest.mark.parametrize(
    "text, path",
    [
        ('{"radio": {"cluster_size": NaN}}', "radio.cluster_size"),
        ('{"radio": {"cluster_size": Infinity}}', "radio.cluster_size"),
        ('{"network": {"backhaul_mbps": NaN}}', "network.backhaul_mbps"),
        ('{"network": {"backhaul_mbps": Infinity}}', "network.backhaul_mbps"),
        ('{"channel": {"thermal_noise_dbm": -Infinity}}', "channel.thermal_noise_dbm"),
        ('{"traffic": {"packet_kbits": [NaN, 12]}}', "traffic.packet_kbits"),
        # JSON integers beyond the float range
        pytest.param('{"network": {"backhaul_mbps": 1%s}}' % ("0" * 400),
                     "network.backhaul_mbps", id="backhaul_mbps-1e400-integer"),
        pytest.param('{"traffic": {"packet_kbits": [8, 1%s]}}' % ("0" * 400),
                     "traffic.packet_kbits", id="packet_kbits-1e400-integer"),
    ],
)
def test_non_finite_numbers_rejected_with_field_path(tmp_path, text, path):
    # json.load accepts NaN and Infinity, so a config file can carry them
    conf = tmp_path / "conf.json"
    conf.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigurationError, match=re.escape(f"{path}: ")):
        load_config(str(conf))
    assert cli.main(["--config", str(conf), "--out-dir", str(tmp_path / "r"), "run"]) == 1


@pytest.mark.parametrize(
    "text, path",
    [
        ('{"traffic": {"packet_kbits": ["8", "12"]}}', "traffic.packet_kbits"),
        ('{"scenario": {"speed_kmh": [true, 140]}}', "scenario.speed_kmh"),
        ('{"network": {"tn_cn_one_way_ms": [15, null]}}', "network.tn_cn_one_way_ms"),
    ],
)
def test_non_numeric_bounds_rejected_with_field_path(tmp_path, text, path):
    # strings and booleans convert with float(), but are no JSON numbers
    conf = tmp_path / "conf.json"
    conf.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigurationError, match=re.escape(f"{path}: expected numeric bounds")):
        load_config(str(conf))
    assert cli.main(["--config", str(conf), "--out-dir", str(tmp_path / "r"), "run"]) == 1


@pytest.mark.parametrize(
    "text",
    [
        # json.load raises a bare ValueError for an integer of more than 4300 digits
        pytest.param('{"network": {"backhaul_mbps": 1%s}}' % ("0" * 5000), id="5001-digits"),
        # and a RecursionError for nesting deeper than the interpreter's stack
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested-100000-deep"),
    ],
)
def test_unreadable_json_is_a_config_error(tmp_path, capsys, text):
    conf = tmp_path / "conf.json"
    conf.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigurationError, match=re.escape(f"{conf}: ")):
        load_config(str(conf))
    assert cli.main(["--config", str(conf), "--out-dir", str(tmp_path / "r"), "run"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {conf}: ")
    assert "Traceback" not in err


def test_unknown_fields_and_sections_rejected():
    with pytest.raises(ConfigurationError, match="scenario.bogus"):
        plan_from_document({"scenario": {"bogus": 1}})
    with pytest.raises(ConfigurationError, match="unknown section"):
        plan_from_document({"radios": {}})
    with pytest.raises(ConfigurationError, match="profile"):
        plan_from_document({"profile": "fastest"})


@pytest.mark.parametrize("profile", [[], {"a": 1}], ids=["list", "object"])
def test_unhashable_profile_is_a_config_error(tmp_path, capsys, profile):
    # the profile is checked by the field table's choice rule, which needs no hash
    with pytest.raises(ConfigurationError, match="profile: expected one of"):
        plan_from_document({"profile": profile})
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"profile": profile}), encoding="utf-8")
    assert cli.main(["--config", str(conf), "run"]) == 1
    err = capsys.readouterr().err
    assert err.count("config error:") == 1 and err.startswith("config error: ")
    assert "Traceback" not in err


def test_unknown_cli_profile_is_a_config_error(capsys):
    # the profile rule lives in the config module, so the flag and a file fail alike
    assert cli.main(["--profile", "nope", "run"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "profile: expected one of" in err
    assert "usage:" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("channel, direction", [
    ({"dl_tx_power_dbm": 4000}, "downlink"),
    ({"thermal_noise_dbm": -4000}, "uplink"),
])
def test_overflowing_link_budget_fails_with_one_typed_line(tmp_path, capsys, channel, direction):
    # an SNR above about 3,083 dB overflows the rate to +inf: a runtime error
    # that names the direction, with no numpy warning
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"channel": channel}), encoding="utf-8")
    assert cli.main(["--config", str(conf), "--replications", "2", "run"]) == 2
    err = capsys.readouterr().err
    assert err == f"runtime error: replication 0: {direction} rate is not finite: its SNR overflows\n"


def test_load_config_parse_error_carries_line_info(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"scenario": {,}}', encoding="utf-8")
    with pytest.raises(ConfigurationError, match=r":1:"):
        load_config(str(path))


def test_load_config_cli_overrides(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"scenario": {"vru_count": 12}}), encoding="utf-8")
    plan = load_config(str(path), seed=9, replications=4, workers=2, profile="table-literal")
    assert plan.scenario.vru_count == 12
    assert plan.master_seed == 9
    assert plan.replications == 4
    assert plan.workers == 2
    assert plan.channel.dl_calibration_loss_db == 0.0


def test_unit_conversions():
    plan = plan_from_document({"scenario": {"speed_kmh": [72, 108]}})
    assert plan.scenario.speed_range_ms == pytest.approx((20.0, 30.0))
    assert plan.scenario.lane_length_m == 3000.0
    assert plan.traffic.size_bits_range == (8000.0, 12000.0)
    assert plan.traffic.period_s == pytest.approx(0.1)


# Every document sets 1-3 fields over this run size: 2 replications of 2
# periods of 5 VRUs, serial.
_GATE_RUN = {"scenario": {"vru_count": 5}, "engine": {"replications": 2, "periods": 2, "workers": 1}}
_GATE_NUMBERS = st.one_of(
    st.sampled_from([0, 1e-310, 1e300, 2**64, -1, -1e-310, -1e300, -(2**64)]),
    st.floats(-1e6, 1e6),
)


@st.composite
def _gate_documents(draw):
    document = {section: dict(fields) for section, fields in _GATE_RUN.items()}
    paths = [(section, key) for section, fields in _FIELDS.items() for key in fields]
    for section, key in draw(st.lists(st.sampled_from(paths), min_size=1, max_size=3, unique=True)):
        default, rule = _FIELDS[section][key]
        if isinstance(default, tuple):
            value = draw(st.lists(_GATE_NUMBERS, min_size=2, max_size=2))
        elif isinstance(default, (bool, str)):
            value = draw(st.one_of(st.sampled_from(rule.get("options", (True, False))), _GATE_NUMBERS))
        else:
            value = draw(_GATE_NUMBERS)
        document.setdefault(section, {})[key] = value
    return document


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_gate_documents())
@example({**_GATE_RUN, "traffic": {"offset_bins": 2**64}})
@example({**_GATE_RUN, "traffic": {"offset_bins": 1e300}})
def test_every_document_is_a_config_error_or_a_finite_run(document):
    # a ConfigurationError naming field paths, finite stats with no warning,
    # or a typed run-time error: any other exception fails
    try:
        plan = plan_from_document(document)
    except ConfigurationError as exc:
        header, *lines = str(exc).split("\n")
        assert header == "invalid configuration:" and lines, str(exc)
        for line in lines:
            path = re.match(r"  - (\w+)\.(\w+): ", line)
            assert path and path[2] in _FIELDS.get(path[1], {}), line
        return
    scn = plan.scenario
    if (
        plan.workers > 1
        or plan.replications * plan.periods * scn.vru_count > 20
        or scn.vehicle_intensity_per_m * scn.lane_length_m > 5_000
    ):
        return  # a valid plan too large to run here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            stats = engine.aggregate(engine.run_plan(plan), plan.periods * scn.vru_count)
        except CamlatError:
            return
    for s in stats.values():
        assert math.isfinite(s.mean_s) and math.isfinite(s.ci95_half_width_s)


# --- sweeps ------------------------------------------------------------------


def test_sweep_spec_validation():
    plan = _small_plan()
    with pytest.raises(ConfigurationError):
        SweepSpec("bandwidth", (1, 2), plan)
    with pytest.raises(ConfigurationError):
        SweepSpec("vru_count", (), plan)
    with pytest.raises(ConfigurationError):
        SweepSpec("vru_count", (50, 50), plan)
    # a NaN compares false both ways: the values around it must still increase
    with pytest.raises(ConfigurationError, match="strictly increasing"):
        SweepSpec("vehicle_intensity", (0.05, float("nan"), 0.01), plan)
    assert SweepSpec("vehicle_intensity", (0.01, float("nan")), plan).values[0] == 0.01


def test_sweep_rows_match_individual_runs():
    plan = _small_plan()
    full = run_sweep(SweepSpec("vru_count", (5, 8), plan))
    single = run_sweep(SweepSpec("vru_count", (5,), plan))
    assert full.rows[0] == single.rows[0]


def test_sweep_continues_past_infeasible_points():
    plan = _small_plan()
    result = run_sweep(SweepSpec("vehicle_intensity", (0.05, 0.2), plan))
    assert [row.value for row in result.rows] == [0.05]
    assert len(result.failures) == 1
    assert result.failures[0][0] == 0.2
    assert "infeasible" in result.failures[0][1]


def test_sweep_records_a_non_finite_latency_as_failures():
    # a hand-built plan is not validated, so it can carry a NaN capacity: every
    # point fails at run time, naming its replication, and none becomes a row
    plan = _small_plan()
    plan = replace(plan, network=replace(plan.network, backhaul_bps=float("nan")))
    result = run_sweep(SweepSpec("vru_count", (5, 8), plan))
    assert result.rows == ()
    assert [value for value, _ in result.failures] == [5, 8]
    for _, message in result.failures:
        assert message == "replication 0: latency components must be finite and non-negative: bh"


@pytest.mark.filterwarnings("error")  # no numpy warning before the typed error
def test_sweep_fails_a_point_whose_statistics_overflow(tmp_path, capsys):
    # 1e-300 Mbit/s is a valid capacity: the backhaul latencies, about 1e299 s,
    # are finite, but their spread overflows. The point fails, naming the
    # components it reaches, instead of writing inf CIs and a 100 % gain
    conf = tmp_path / "overflow.json"
    conf.write_text(json.dumps({"network": {"backhaul_mbps": 1e-300}}), encoding="utf-8")
    message = "means and CI half-widths must be finite: bh, e2e_cloud"
    result = run_sweep(SweepSpec("vru_count", (50,), load_config(str(conf), replications=2)))
    assert result.rows == ()
    assert result.failures == ((50, message),)
    argv = ["--replications", "2", "--config", str(conf), "--out-dir", str(tmp_path)]
    assert cli.main(argv + ["sweep-vru", "--values", "50"]) == 2
    lines = (tmp_path / "vru_sweep.csv").read_text(encoding="utf-8").splitlines()
    assert lines == [CSV_HEADER]
    captured = capsys.readouterr()
    assert f"vru_count=50: FAILED ({message})" in captured.err
    assert "gain" not in captured.out


def test_numpy_sweep_value_sets_a_plain_number():
    # np.arange yields np.int64, which is a real number but no Python int
    plan = _small_plan()
    for parameter, value in (("vru_count", 20), ("vehicle_intensity", 0.05), ("cluster_size", 3)):
        assert override_parameter(plan, parameter, np.array(value)[()]) == override_parameter(
            plan, parameter, value
        )
    # a sweep point is the plan of the base document with the swept field set
    document = {
        "scenario": {"vru_count": 10},
        "engine": {"replications": 3, "periods": 2, "master_seed": 5},
    }
    base = plan_from_document(document)
    for parameter, sweep in SWEEPS.items():
        section, key = sweep.field.split(".")
        for value in sweep.values:
            swept = {**document, section: {**document.get(section, {}), key: value}}
            assert override_parameter(base, parameter, value) == plan_from_document(swept)


def test_gain_is_well_defined_and_positive():
    result = run_sweep(SweepSpec("cluster_size", (1, 3), _small_plan()))
    for row in result.rows:
        assert 0.0 < row.gain_pct < 100.0


# --- CSV ---------------------------------------------------------------------


def _stats(ms: float) -> AggregateStats:
    return AggregateStats(mean_s=ms / 1e3, ci95_half_width_s=5e-5, sample_count=10)


def _fake_result(n_rows=1) -> SweepResult:
    rows = []
    for i in range(n_rows):
        stats = {
            "ul": _stats(1.1), "bh": _stats(1.6), "tn_cn": _stats(45.0),
            "exc": _stats(3.6), "dl": _stats(18.3),
            "e2e_cloud": _stats(116.2), "e2e_mec": _stats(23.0),
        }
        rows.append(SweepRow(value=50 + 20 * i, stats=stats, gain_pct=80.2))
    return SweepResult(parameter="vru_count", rows=tuple(rows))


def test_csv_header_only_for_empty_result(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv(SweepResult(parameter="vru_count", rows=()), str(path))
    assert path.read_text(encoding="utf-8") == CSV_HEADER + "\n"


def test_csv_single_row_has_two_lines(tmp_path):
    path = tmp_path / "one.csv"
    emit_csv(_fake_result(1), str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER


def test_csv_round_trip_recovers_means():
    result = run_sweep(SweepSpec("vru_count", (5, 8), _small_plan()))
    lines = csv_lines(result)
    reader = csv.DictReader(lines)
    for parsed, row in zip(reader, result.rows):
        assert float(parsed["parameter"]) == row.value
        for key in ("ul", "bh", "tn_cn", "exc", "dl", "e2e_cloud", "e2e_mec"):
            assert float(parsed[f"{key}_ms"]) == pytest.approx(
                row.stats[key].mean_s * 1e3, abs=5.01e-5
            )
        assert float(parsed["gain_pct"]) == pytest.approx(row.gain_pct, abs=5.01e-5)


def test_csv_bytes_deterministic(tmp_path):
    plan = _small_plan()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_sweep(SweepSpec("vru_count", (5, 8), plan)), str(a))
    emit_csv(run_sweep(SweepSpec("vru_count", (5, 8), plan)), str(b))
    assert a.read_bytes() == b.read_bytes()


# --- SVG ---------------------------------------------------------------------


def _panel(svg: str, panel_id: str) -> str:
    start = svg.index(f'<g id="{panel_id}"')
    end = svg.index("</g>", start)
    return svg[start:end]


def test_svg_bar_cardinality_single_point():
    svg = render_svg(_fake_result(1))
    assert _panel(svg, "panel-a").count('<rect class="bar') == 2
    assert _panel(svg, "panel-b").count('<rect class="bar') == 5


def test_svg_log_axis_when_values_span_decades():
    svg = render_svg(_fake_result(2))
    assert 'id="panel-b" data-scale="log"' in svg  # 1.1 ms .. 45 ms spans > one decade
    assert 'id="panel-a" data-scale="linear"' in svg


def test_svg_linear_axis_for_narrow_ranges():
    result = _fake_result(1)
    flat = {k: _stats(5.0) for k in result.rows[0].stats}
    narrow = SweepResult("vru_count", (SweepRow(50, flat, 50.0),))
    assert 'id="panel-b" data-scale="linear"' in render_svg(narrow)


def test_svg_deterministic():
    assert render_svg(_fake_result(3)) == render_svg(_fake_result(3))


# --- CLI ---------------------------------------------------------------------


def test_cli_run_and_sweep(tmp_path, capsys):
    out = tmp_path / "results"
    rc = cli.main(
        ["--replications", "2", "--seed", "4", "--out-dir", str(out),
         "sweep-vru", "--values", "5,8"]
    )
    assert rc == 0
    assert (out / "vru_sweep.csv").exists()
    assert (out / "vru_sweep.svg").exists()
    captured = capsys.readouterr()
    assert "gain" in captured.out


def test_cli_run_single_point(tmp_path, capsys):
    rc = cli.main(["--replications", "2", "--out-dir", str(tmp_path), "run"])
    assert rc == 0
    assert "edge-processing gain" in capsys.readouterr().out


def test_module_entry_point_exits_with_the_code_of_main(tmp_path):
    # in-process calls skip ``raise SystemExit(main())``; a real process runs it
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "camlat.cli", "--replications", "2", "run"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert sum("edge-processing gain" in line for line in proc.stdout.splitlines()) == 1


def test_cli_run_creates_no_output_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["--replications", "2", "--out-dir", "missing", "run"]) == 0
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out_dir", ["afile", "afile/sub"])
def test_cli_out_dir_that_cannot_be_made_is_a_runtime_error(tmp_path, capsys, out_dir):
    (tmp_path / "afile").write_text("", encoding="utf-8")
    path = str(tmp_path / out_dir)
    assert cli.main(["--replications", "2", "--out-dir", path, "sweep-vru", "--values", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"runtime error: cannot create output directory {path!r}: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": {"vru_count": 0}}), encoding="utf-8")
    assert cli.main(["--config", str(bad), "run"]) == 1


def test_cli_runtime_error_exit_code(tmp_path):
    # an empty road, and a DL margin so large that no cluster member is reachable
    for name, document in (
        ("empty_road", {"scenario": {"vehicle_intensity_per_m": 1e-12}}),
        ("unreachable_dl", {"channel": {"dl_calibration_loss_db": 1e4}}),
    ):
        conf = tmp_path / f"{name}.json"
        conf.write_text(
            json.dumps({**document, "engine": {"replications": 1, "periods": 1}}),
            encoding="utf-8",
        )
        assert cli.main(["--config", str(conf), "--out-dir", str(tmp_path / "r"), "run"]) == 2, name


def test_cli_partial_sweep_writes_good_rows_and_exits_2(tmp_path, capsys):
    # 0.2 /m is infeasible with the 10 m hard-core gap; 0.05 /m is fine
    argv = ["--replications", "4", "--out-dir", str(tmp_path)]
    rc = cli.main(argv + ["sweep-density", "--values", "0.05,0.2"])
    assert rc == 2
    lines = (tmp_path / "density_sweep.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2 and lines[1].startswith("0.05,")
    assert (tmp_path / "density_sweep.svg").read_text(encoding="utf-8").startswith("<svg")
    assert "vehicle_intensity=0.2: FAILED" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_cli_non_finite_sweep_value_fails_its_point(tmp_path, capsys, bad):
    # a non-finite density fails as its own point, with its field path
    argv = ["--replications", "2", "--out-dir", str(tmp_path)]
    assert cli.main(argv + ["sweep-density", "--values", f"0.01,{bad}"]) == 2
    lines = (tmp_path / "density_sweep.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2 and lines[1].startswith("0.01,")
    message = f"scenario.vehicle_intensity_per_m: must be finite, got {bad}"
    assert f"vehicle_intensity={bad}: FAILED ({message})" in capsys.readouterr().err


def test_cli_unordered_sweep_around_a_nan_is_a_config_error(tmp_path, capsys):
    argv = ["--replications", "2", "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv + ["sweep-density", "--values", "0.05,nan,0.01"]) == 1
    assert "strictly increasing" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("values", ["", "50,"], ids=["empty", "trailing-comma"])
def test_cli_unparsable_values_are_a_config_error_before_any_point(
    tmp_path, capsys, monkeypatch, values
):
    # an empty --values is parsed like any other, not read as "the default sweep"
    def no_sweep(spec):
        raise AssertionError(f"ran a sweep of {spec.values}")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    argv = ["--replications", "2", "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv + ["sweep-vru", "--values", values]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: invalid --values {values!r}: " \
        "invalid literal for int() with base 10: ''\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("zero, component", [
    ({"network": {"tn_cn_one_way_ms": [0, 0]}}, "tn_cn"),
    ({"traffic": {"compute_cycles_per_bit": [0, 0]}}, "exc"),
], ids=["tn_cn", "exc"])
def test_cli_sweep_plots_a_zero_component(tmp_path, zero, component):
    # a component whose mean is 0 has no decade: the log scale is chosen from
    # the positive means and the zero bar is drawn at height 0
    conf = tmp_path / "zero.json"
    conf.write_text(json.dumps(zero), encoding="utf-8")
    argv = ["--config", str(conf), "--replications", "2", "--out-dir", str(tmp_path)]
    assert cli.main(argv + ["sweep-vru", "--values", "10,20"]) == 0
    svg = ElementTree.parse(tmp_path / "vru_sweep.svg").getroot()
    panel = svg.find('{http://www.w3.org/2000/svg}g[@id="panel-b"]')
    assert panel.get("data-scale") == "log"
    bars = [
        (bar.get("class").split()[1], float(bar.get("height")))
        for bar in panel.iter("{http://www.w3.org/2000/svg}rect") if bar.get("class")
    ]
    assert len(bars) == 2 * 5
    assert all((height == 0.0) == (key == component) for key, height in bars)


def test_pool_is_reentrant_per_worker_count():
    # a nested pool of any size is the open one; one worker stays serial
    with engine.pool(1) as serial:
        assert serial is None
    with engine.pool(2) as outer:
        with engine.pool(2) as inner:
            assert inner is outer
        with engine.pool(3) as other:
            assert other is outer
        with engine.pool(1) as serial:
            assert serial is None


@pytest.fixture
def submitted(monkeypatch):
    """Every task submitted to an ``engine.pool``, on at most 2 workers."""
    tasks = []

    class CountingPool(engine.ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            tasks.append(args)
            return super().submit(*args, **kwargs)

    monkeypatch.setattr("os.cpu_count", lambda: 2)  # the block cap counts the pool's workers
    monkeypatch.setattr(engine, "ProcessPoolExecutor", CountingPool)
    return tasks


def test_an_error_leaving_the_pool_cancels_the_queued_blocks(tmp_path, monkeypatch, submitted):
    # the whole sweep is queued at once; a bug in the parent at its first
    # point must not wait for every other point's blocks to run. The density
    # points share no road, so each block is one point's own
    group_moments = engine._group_moments

    def counted(plans, block):  # runs in the forked workers
        (plan,) = plans
        intensity = plan.scenario.vehicle_intensity_per_m
        (tmp_path / f"{intensity}-{block.start}").touch()
        if intensity > 0.01:
            time.sleep(0.2)  # the later points' blocks outlast the first point's
        return group_moments(plans, block)

    def broken(moments, packets_per_replication):
        raise RuntimeError("aggregate failed")

    monkeypatch.setattr(engine, "_group_moments", counted)
    monkeypatch.setattr(engine, "aggregate", broken)
    base = plan_from_document({"engine": {"replications": 20, "workers": 2}})
    spec = SweepSpec("vehicle_intensity", (0.01, 0.03, 0.05, 0.07, 0.09), base)
    with pytest.raises(RuntimeError, match="aggregate failed"):
        run_sweep(spec)
    assert multiprocessing.active_children() == []
    # on 2 workers the sweep's 100 replications cap a block at 25, so only
    # BLOCK_PAIRS cuts the points: 2 blocks each
    total = len(submitted)
    assert total == 10
    assert 1 <= len(list(tmp_path.iterdir())) < total


def test_reproduce_submits_one_task_per_sweep_block(tmp_path, submitted):
    # each sweep's 5 points x 20 replications share one task list, so on 2
    # workers a block may hold 25 replications and only BLOCK_PAIRS cuts
    # them: 7 + 10 tasks, and 2 for the cluster sweep, whose points share
    # their blocks; blocks capped per point and unshared would be 60
    def reproduce(workers):
        out = tmp_path / f"w{workers}"
        argv = ["--replications", "20", "--workers", str(workers), "--out-dir", str(out)]
        assert cli.main(argv + ["reproduce"]) == 0
        return {path.name: path.read_bytes() for path in out.iterdir()}

    serial = reproduce(1)
    assert submitted == []
    assert reproduce(2) == serial
    assert len(submitted) == 19


# The documents of the 1-vs-2-worker cases below.
# sparse: at seed 1729 the 12 roads hold 6 to 17 vehicles against a cluster
# size of 9, so every block, of 10 and 2 serially or of 3 on 2 workers, mixes
# short and full roads
SPARSE = {"scenario": {"vehicle_intensity_per_m": 0.002}, "radio": {"cluster_size": 9}}
# long: a 30 km road at 0.09 /m whose VRU strip spans it, so the reach cut
# keeps all 5,400 vehicles and each block holds one replication
LONG = {
    "scenario": {
        "lane_length_km": 30, "vehicle_intensity_per_m": 0.09,
        "vru_strip_m": [0, 30000], "enb_position_m": [15000, 10],
    },
    "radio": {"cluster_size": 9},
}
# a 243 dB DL loss leaves clusters of 5, 7 and 9 with an unreachable member at
# replications 2, 6 and 5, while sizes 1 and 3 pass
LOSS = {"channel": {"dl_calibration_loss_db": 243}, "engine": {"replications": 8, "periods": 2}}
UNREACHABLE = "a downlink cluster has an unreachable member"
HUGE = {"scenario": {"vru_count": 10**15}}
UNALLOCATABLE = ("Unable to allocate 7.11 PiB for an array with shape (1, 1000000000000000) "
                 "and data type float64")


@pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
@pytest.mark.parametrize("document, argv, code, err, rows", [
    pytest.param(None, "--replications 12 --out-dir out reproduce", 0, "", [5, 5, 5], id="reproduce"),
    # the sweep's 5 points share their blocks: T = 25 on 2 workers caps a
    # block at 6 replications, and one block of 5 serves all five sizes
    pytest.param(None, "--replications 5 --out-dir out sweep-cluster", 0, "", [5], id="cluster"),
    pytest.param(None, "--replications 12 run", 0, "", [], id="run"),
    # blocks of 3, 3, 3, 3 and 1 on 2 workers: more tasks than workers, the last one short
    pytest.param(None, "--replications 13 run", 0, "", [], id="run-13"),
    # dense: about 540 vehicles per road, of which the engine steps and ranks
    # only those within reach of the VRUs
    pytest.param({"scenario": {"vehicle_intensity_per_m": 0.09}, "radio": {"cluster_size": 9}},
                 "--replications 12 run", 0, "", [], id="dense"),
    pytest.param(SPARSE, "--replications 12 run", 0, "", [], id="sparse"),
    # wide: lanes 17 m from the VRUs: the clusters are still ranked by x alone
    pytest.param({"scenario": {"lane_width_m": 30.0, "vehicle_intensity_per_m": 0.05}},
                 "--replications 12 run", 0, "", [], id="wide"),
    pytest.param(LONG, "--replications 4 run", 0, "", [], id="long"),
    # 100,000 offset bins per period, whose bin-count table makes each block
    # hold one replication
    pytest.param({"traffic": {"offset_bins": 100000}}, "--replications 4 run", 0, "", [], id="bins"),
    # blocks of 10 and 2, each shared by the five sizes, hold roads shorter
    # than the larger cluster sizes
    pytest.param(SPARSE, "--replications 12 --out-dir out sweep-cluster", 0, "", [5],
                 id="sparse-cluster"),
    # every point's blocks are queued at once: 1e-05 /m fails inside a worker
    # (an empty road), nan when its plan is built, and 0.01 /m between them is
    # still written
    pytest.param(
        None, "--replications 4 --out-dir out sweep-density --values 0.00001,0.01,nan", 2,
        re.escape("  vehicle_intensity=1e-05: FAILED (replication 0: no vehicles on the road; "
                  "cannot form clusters)\n"
                  "  vehicle_intensity=nan: FAILED (scenario.vehicle_intensity_per_m: ") + r".*\)\n",
        [1], id="failing-density"),
    # the five sizes share their blocks, and each failing size names the
    # replication it fails at alone
    pytest.param(
        LOSS, "--replications 8 --out-dir out sweep-cluster", 2,
        re.escape(f"  cluster_size=5: FAILED (replication 2: {UNREACHABLE})\n"
                  f"  cluster_size=7: FAILED (replication 6: {UNREACHABLE})\n"
                  f"  cluster_size=9: FAILED (replication 5: {UNREACHABLE})\n"),
        [2], id="failing-cluster-size"),
    # a valid capacity whose latency overflows: the typed error alone
    pytest.param({"network": {"backhaul_mbps": 1e-310}}, "--replications 2 run", 2,
                 r"runtime error: replication 0: .*\n", [], id="overflowing-backhaul"),
    # a run shape numpy cannot allocate: numpy refuses the 7 PiB of VRU
    # positions before it allocates anything, and the run fails like any
    # runtime error, with numpy's message
    pytest.param(HUGE, "--replications 1 run", 2,
                 re.escape(f"runtime error: replication 0: {UNALLOCATABLE}\n"), [],
                 id="unallocatable"),
    # ... and a sweep keeps the rows of the points that run
    pytest.param(
        None, "--replications 2 --out-dir out sweep-vru --values 50,1000000000000000", 2,
        re.escape(f"  vru_count=1e+15: FAILED (replication 0: {UNALLOCATABLE})\n"), [1],
        id="unallocatable-vru-count"),
])
def test_cli_gives_the_same_bytes_on_1_and_2_workers(
    tmp_path, monkeypatch, capsys, submitted, document, argv, code, err, rows
):
    # each worker count runs in its own directory, where it leaves its --out-dir
    config = []
    if document is not None:
        (tmp_path / "conf.json").write_text(json.dumps(document), encoding="utf-8")
        config = ["--config", str(tmp_path / "conf.json")]

    def camlat(workers):
        cwd = tmp_path / f"w{workers}"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        rc = cli.main(config + ["--workers", str(workers)] + argv.split())
        out, error = capsys.readouterr()
        files = {str(path.relative_to(cwd)): path.read_bytes()
                 for path in cwd.rglob("*") if path.is_file()}
        return rc, out, error, files

    serial = camlat(1)
    assert submitted == []
    assert camlat(2) == serial
    assert submitted  # a real 2-worker pool ran the blocks
    rc, _, error, files = serial
    assert rc == code
    assert re.fullmatch(err, error)
    assert [len(data.splitlines()) - 1 for name, data in sorted(files.items())
            if name.endswith(".csv")] == rows


def test_reproduce_uses_one_pool_and_reaps_it(tmp_path, monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 2)  # the pool is capped at the CPU count
    started = []

    class CountingPool(engine.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs)
            super().__init__(*args, **kwargs)

    def reproduce(workers):
        out = str(tmp_path / f"w{workers}")
        argv = ["--replications", "4", "--seed", "3", "--workers", str(workers), "--out-dir", out]
        return cli.main(argv + ["reproduce"])

    assert reproduce(1) == 0
    monkeypatch.setattr(engine, "ProcessPoolExecutor", CountingPool)
    assert reproduce(2) == 0
    assert started == [{"max_workers": 2}]
    assert multiprocessing.active_children() == []
    names = sorted(path.name for path in (tmp_path / "w1").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "w2").iterdir())
    assert len(names) == 6
    for name in names:
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes(), name

    # the density sweep's 0.01 /m point and the cluster sweep's size-5 point
    # are the same default plan: their rows agree after the value cell
    def rows(name):
        lines = (tmp_path / "w1" / name).read_text(encoding="utf-8").splitlines()
        return dict(line.split(",", 1) for line in lines[1:])

    assert rows("density_sweep.csv")["0.01"] == rows("cluster_sweep.csv")["5"]
