import json
import os
import re
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swapval.optimizers
from swapval.cli import _parse_grid, run_cli
from swapval.config import (
    ConfigError,
    config_to_dict,
    emit_config,
    load_config,
    paper_defaults,
    parse_config,
)
from swapval.lifecycle import simulate_lifecycle
from swapval.market_data import PriceDataError, synth_price_series, write_series
from swapval.report import emit_lifecycle

FAST = ["--synth", "two-level:10:90", "--days", "2", "--no-reserve"]
TINY_GRID = ["--mdc-grid", "0:20:10"]


def read(path):
    return path.read_bytes()


@pytest.fixture
def fast_config(tmp_path_factory):
    """paper-defaults with a 30-cycle battery, so lifecycles end quickly."""
    config = paper_defaults()
    data = config_to_dict(config)
    data["battery"]["cycle_life"] = 30.0
    path = tmp_path_factory.mktemp("cfg") / "fast.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestConfig:
    def test_paper_defaults_values(self):
        config = paper_defaults()
        assert config.battery.energy_capacity_0 == 2.7
        assert config.battery.power_limit == 2.7
        assert config.battery.efficiency == 0.95
        assert config.battery.cycle_life == 2000.0
        assert config.battery.eol_capacity_fraction == 0.8
        assert config.battery.calendar_fade_per_year == 0.01
        assert config.economics.discount_rate == 0.07
        assert config.swap.labor_cost == 10.0

    def test_round_trip(self, tmp_path):
        config = paper_defaults()
        path = tmp_path / "c.json"
        emit_config(config, str(path))
        again = load_config(str(path))
        assert again == config
        assert config_to_dict(again) == config_to_dict(config)

    def test_parse_rejects_bad_battery(self):
        data = config_to_dict(paper_defaults())
        data["battery"]["efficiency"] = 1.5
        with pytest.raises(ConfigError):
            parse_config(data)

    def test_missing_config_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nope/missing.json")


class TestRunCli:
    def test_simulate_happy_path(self, tmp_path, fast_config):
        out = tmp_path / "run"
        rc = run_cli(["simulate", "--mu", "35", "--config", fast_config,
                      "--out", str(out)] + FAST)
        assert rc == 0
        for name in ["lifecycle.json", "daily_log.csv", "soh.csv",
                     "cashflow.csv", "config.json"]:
            assert (out / name).exists(), name
        payload = json.loads((out / "lifecycle.json").read_text())
        assert payload["days_lived"] > 0
        assert payload["mu"] == 35.0

    def test_simulate_requires_mu(self, tmp_path):
        rc = run_cli(["simulate", "--config", "paper-defaults",
                      "--out", str(tmp_path / "x")] + FAST)
        assert rc == 2

    def test_optimize_mdc_flat_zero(self, tmp_path):
        out = tmp_path / "opt"
        rc = run_cli(["optimize-mdc", "--config", "paper-defaults", "--out", str(out),
                      "--synth", "flat:0", "--days", "1", "--no-reserve",
                      "--swap-cap", "0"] + TINY_GRID)
        assert rc == 0
        sweep = json.loads((out / "mdc_sweep.json").read_text())
        assert sweep["mu_star"] == 0.0
        assert sweep["lb_at_star"] == 0.0

    def test_missing_price_file_exits_3_and_names_path(self, tmp_path, capsys):
        out = tmp_path / "miss"
        rc = run_cli(["sweep-price", "--config", "paper-defaults", "--out", str(out),
                      "--price-file", "/nope/prices.csv", "--swap-cap", "2.7"])
        assert rc == 3
        err = capsys.readouterr().err
        record = json.loads(err.strip().splitlines()[-1])
        assert "/nope/prices.csv" in record["message"]
        assert record["exit_code"] == 3
        assert json.loads((out / "error.json").read_text()) == record

    def test_bad_config_exits_2(self, tmp_path):
        rc = run_cli(["simulate", "--mu", "1", "--config", "/nope/c.json",
                      "--out", str(tmp_path / "y")])
        assert rc == 2

    def test_malformed_config_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = run_cli(["simulate", "--mu", "1", "--config", str(bad),
                      "--out", str(tmp_path / "z")])
        assert rc == 2

    def test_determinism_byte_identical(self, tmp_path, fast_config):
        args = ["optimize-mdc", "--config", fast_config,
                "--seed", "3"] + FAST + TINY_GRID
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        for name in ["mdc_sweep.csv", "mdc_sweep.json", "config.json"]:
            assert read(out1 / name) == read(out2 / name), name

    def test_sweep_price_and_refine(self, tmp_path, fast_config):
        out = tmp_path / "sw"
        rc = run_cli(["sweep-price", "--config", fast_config, "--out", str(out),
                      "--price-grid", "0:100:50", "--swap-cap", "2.0"]
                     + FAST + TINY_GRID)
        assert rc == 0
        lines = (out / "price_sweep.csv").read_text().splitlines()
        assert lines[0] == "swap_price,mu_star,lb_star,abu,days_lived"
        assert len(lines) == 4

    def test_optimize_curve_price(self, tmp_path, fast_config):
        out = tmp_path / "curve"
        rc = run_cli(["optimize-curve-price", "--config", fast_config,
                      "--out", str(out), "--curve=-10,180", "--curve=-40,180",
                      "--price-grid", "50:150:50"] + FAST + TINY_GRID)
        assert rc == 0
        optima = json.loads((out / "curve_optima.json").read_text())["optima"]
        assert len(optima) == 2
        assert (out / "curve_optima.csv").exists()

    def test_eol_sensitivity(self, tmp_path, fast_config):
        out = tmp_path / "eol"
        rc = run_cli(["eol", "--config", fast_config, "--out", str(out),
                      "--mu", "20", "--om-grid", "0:16:8"] + FAST)
        assert rc == 0
        lines = (out / "eol_sensitivity.csv").read_text().splitlines()
        assert lines[0] == "om_per_kw_year,mode,mu,economic_eol_year,physical_eol_year"
        # two modes x three O&M points
        assert len(lines) == 7

    def test_refine_step_flag(self, tmp_path, fast_config):
        out = tmp_path / "ref"
        rc = run_cli(["optimize-mdc", "--config", fast_config, "--out", str(out),
                      "--refine-step", "5"] + FAST + TINY_GRID)
        assert rc == 0
        assert (out / "mdc_sweep_refined.csv").exists()

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "swapval.cli", "simulate", "--mu", "0",
             "--config", "paper-defaults", "--out", str(tmp_path / "m"),
             "--synth", "flat:0", "--days", "1", "--no-reserve", "--swap-cap", "0"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        payload = json.loads((tmp_path / "m" / "lifecycle.json").read_text())
        assert payload["lb_star"] == 0.0
        assert abs(payload["days_lived"] - 7300) <= 1


class TestEmitReport:
    def test_lifecycle_emission(self, tmp_path, tiny_battery, econ):
        series = synth_price_series("two-level", days=1, low=10.0, high=90.0)
        result = simulate_lifecycle(tiny_battery, econ, series, 10.0,
                                    swap_policy=None, reserve_enabled=False)
        paths = emit_lifecycle(result, str(tmp_path))
        names = sorted(p.split("/")[-1] for p in paths)
        assert names == ["cashflow.csv", "daily_log.csv", "lifecycle.json", "soh.csv"]

    def test_soh_csv_matches_series(self, tmp_path, tiny_battery, econ):
        series = synth_price_series("flat", days=1, level=0.0)
        result = simulate_lifecycle(tiny_battery, econ, series, 0.0,
                                    swap_policy=None, reserve_enabled=False)
        emit_lifecycle(result, str(tmp_path))
        lines = (tmp_path / "soh.csv").read_text().splitlines()
        assert lines[0] == "day,soh"
        assert len(lines) == 1 + result.days_lived
        first = lines[1].split(",")
        assert float(first[1]) == 1.0


class TestBadInputExits2:
    """Bad input ends in exit 2 and error.json before any lifecycle runs."""

    CASES = {
        "negative-mu": ["simulate", "--mu", "-1"],
        "nan-mu": ["simulate", "--mu", "nan"],
        "negative-mdc-grid": ["optimize-mdc", "--mdc-grid=-10:10:10"],
        "negative-price-grid": ["sweep-price", "--price-grid=-10:10:10", "--swap-cap", "2"],
        "refine-step-not-finer": ["optimize-mdc", "--mdc-grid", "0:100:50",
                                  "--refine-step", "50"],
        "refine-step-zero": ["optimize-mdc", "--mdc-grid", "0:100:50", "--refine-step", "0"],
        "negative-swap-cap": ["sweep-price", "--swap-cap=-1"],
        "negative-om": ["simulate", "--mu", "1", "--om=-5"],
        "negative-om-grid": ["eol", "--mu", "1", "--om-grid=-8:8:8"],
    }

    @staticmethod
    def _forbid_lifecycles(monkeypatch):
        import swapval.cli
        import swapval.optimizers

        def no_lifecycle(*args, **kwargs):
            raise AssertionError("a lifecycle ran")

        monkeypatch.setattr(swapval.cli, "simulate_lifecycle", no_lifecycle)
        monkeypatch.setattr(swapval.optimizers, "simulate_lifecycle", no_lifecycle)
        monkeypatch.setenv("SWAPVAL_THREADS", "1")

    def _assert_exit_2(self, argv, out):
        assert run_cli(argv + ["--out", str(out)]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["exit_code"] == 2
        assert record["error"] == "ConfigError"
        assert {p.name for p in out.iterdir()} <= {"config.json", "error.json"}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_flag(self, case, tmp_path, monkeypatch):
        self._forbid_lifecycles(monkeypatch)
        self._assert_exit_2(self.CASES[case] + FAST, tmp_path / "out")

    @pytest.mark.parametrize("grid", ["mdc_grid", "price_grid"])
    def test_config_file_grid(self, grid, tmp_path, monkeypatch):
        self._forbid_lifecycles(monkeypatch)
        data = config_to_dict(paper_defaults())
        data[grid] = [10.0, -5.0]
        path = tmp_path / "bad_grid.json"
        path.write_text(json.dumps(data))
        self._assert_exit_2(["sweep-price", "--config", str(path)] + FAST, tmp_path / "out")

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_malformed_swapval_threads(self, value, tmp_path, monkeypatch):
        self._forbid_lifecycles(monkeypatch)
        monkeypatch.setenv("SWAPVAL_THREADS", value)
        self._assert_exit_2(["optimize-mdc"] + FAST + TINY_GRID, tmp_path / "out")


SINE = ["--synth", "daily-sine:40:30", "--days", "2"]


@pytest.mark.parametrize("argv", [
    ["--seed", "-1"] + SINE,
    ["--seed", "-1", "--synth", "flat:0", "--days", "2"],
    ["--synth", "flat:0", "--days", "0"],
    ["--days", "-3"],
    ["--synth", "flat:10", "--days", "10000000000000"],
    ["--synth", "flat:10", "--days", "365001"],
], ids=["negative-seed-sine", "negative-seed-flat", "zero-days", "negative-days",
        "huge-days", "days-past-horizon"])
def test_bad_price_source_flags_exit_2(argv, tmp_path, monkeypatch):
    TestBadInputExits2._forbid_lifecycles(monkeypatch)
    TestBadInputExits2()._assert_exit_2(["simulate", "--mu", "1"] + argv, tmp_path / "out")


@pytest.mark.parametrize("field,value", [("seed", -1), ("days", 0), ("seed", 1.5),
                                         ("days", 2.5), ("days", 365001)])
def test_bad_price_source_in_config_exits_2(field, value, tmp_path, monkeypatch):
    TestBadInputExits2._forbid_lifecycles(monkeypatch)
    data = config_to_dict(paper_defaults())
    data["prices"][field] = value
    path = tmp_path / "bad_prices.json"
    path.write_text(json.dumps(data))
    assert run_cli(["simulate", "--mu", "1", "--config", str(path),
                    "--out", str(tmp_path / "out")]) == 2
    record = json.loads((tmp_path / "out" / "error.json").read_text())
    assert record["error"] == "ConfigError" and field in record["message"]


def test_solver_failure_names_its_day(tmp_path, monkeypatch):
    import swapval.lifecycle
    from swapval.lp import LPError

    real_solve = swapval.lifecycle.solve_day
    calls = []

    def fail_on_day_3(model, day, *args):
        calls.append(day)
        if len(calls) == 4:  # every day of this sine is solved, none skipped
            raise LPError("injected solver failure")
        return real_solve(model, day, *args)

    monkeypatch.setattr(swapval.lifecycle, "solve_day", fail_on_day_3)
    out = tmp_path / "out"
    assert run_cli(["simulate", "--mu", "1", "--out", str(out)] + SINE) == 4
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "LPError"
    message = record["message"]
    assert "injected solver failure" in message
    assert "[day 3, pattern day 1, soc_start " in message
    assert "capacity_now " in message and "adjusted MDC 1.0]" in message


def test_negative_day_throughput_exits_4(tmp_path, monkeypatch):
    import swapval.lifecycle

    real_solve = swapval.lifecycle.solve_day

    def negative_on_day_3(model, day, *args):
        # Hour 0 charges -(0.5 + calendar share) MWh, and nothing else moves.
        x, pivots = real_solve(model, day, *args)
        if day == 3:
            x = np.zeros_like(x)
            x[0] = -0.5 - model.calendar_throughput
        return x, pivots

    monkeypatch.setattr(swapval.lifecycle, "solve_day", negative_on_day_3)
    out = tmp_path / "out"
    assert run_cli(["simulate", "--mu", "1", "--out", str(out)] + SINE) == 4
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ScheduleError"
    assert record["message"].startswith("negative throughput -0.5 [day 3, pattern day 1, ")


def test_eol_reuses_the_sweep_argmax(tmp_path, fast_config, monkeypatch):
    """eol without --mu runs modes x grid lifecycles, none again at mu*."""
    import swapval.cli
    import swapval.optimizers

    calls = []
    real = simulate_lifecycle

    def counting(*args, **kwargs):
        calls.append(args[3])
        return real(*args, **kwargs)

    monkeypatch.setattr(swapval.cli, "simulate_lifecycle", counting)
    monkeypatch.setattr(swapval.optimizers, "simulate_lifecycle", counting)
    monkeypatch.setenv("SWAPVAL_THREADS", "1")
    rc = run_cli(["eol", "--config", fast_config, "--out", str(tmp_path / "eol"),
                  "--om-grid", "0:16:8"] + FAST + TINY_GRID)
    assert rc == 0
    # Both modes on one grid, lowest mu first: with_swap, then no_swap at each mu.
    assert calls == [0.0, 0.0, 10.0, 10.0, 20.0, 20.0]


# More bad flags than TestBadInputExits2.CASES: non-finite values, grids
# without a finite number of points and a negative swap price.
OUT_OF_RANGE = {
    "negative-swap-price": ["simulate", "--mu", "1", "--swap-price=-5", "--swap-cap", "1"],
    "nan-swap-price": ["simulate", "--mu", "1", "--swap-price", "nan", "--swap-cap", "1"],
    "inf-swap-cap": ["simulate", "--mu", "1", "--swap-cap", "inf"],
    "nan-swap-cap": ["simulate", "--mu", "1", "--swap-cap", "nan"],
    "nan-labor": ["simulate", "--mu", "1", "--swap-cap", "1", "--labor", "nan"],
    "nan-om": ["simulate", "--mu", "1", "--om", "nan"],
    "inf-om": ["simulate", "--mu", "1", "--om", "inf"],
    "nan-refine-step": ["optimize-mdc", "--mdc-grid", "0:100:50", "--refine-step", "nan"],
    "nan-curve": ["optimize-curve-price", "--curve=nan,180"],
    "inf-curve-slope": ["optimize-curve-price", "--curve=-inf,180"],
    "inf-mdc-grid": ["optimize-mdc", "--mdc-grid", "0:inf:1"],
    "inf-price-grid": ["sweep-price", "--swap-cap", "1", "--price-grid", "0:inf:1"],
    "inf-om-grid": ["eol", "--mu", "1", "--om-grid", "0:inf:8"],
    "nan-grid-step": ["optimize-mdc", "--mdc-grid", "0:10:nan"],
    "huge-mdc-grid": ["optimize-mdc", "--mdc-grid", "0:1e300:1"],
    "stuck-mdc-grid": ["optimize-mdc", "--mdc-grid=-1e300:0:1"],
    "tiny-refine-step": ["optimize-mdc", "--mdc-grid", "0:100:50", "--refine-step", "1e-300"],
    "empty-price-grid": ["sweep-price", "--swap-cap", "1", "--price-grid="],
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_flag_exits_2(case, tmp_path, monkeypatch):
    TestBadInputExits2._forbid_lifecycles(monkeypatch)
    TestBadInputExits2()._assert_exit_2(OUT_OF_RANGE[case] + FAST, tmp_path / "out")


@pytest.mark.parametrize("section,field,value", [
    ("mdc_grid", None, [0.0, float("inf")]),
    ("price_grid", None, [0.0, float("nan")]),
    ("economics", "discount_rate", float("nan")),
    ("economics", "fixed_om_per_kw_year", float("inf")),
    ("economics", "horizon_cap_years", float("nan")),
    ("swap", "labor_cost", float("inf")),
    ("swap", "swap_price", float("nan")),
    ("battery", "cycle_life", float("nan")),
    ("battery", "cycle_life", float("inf")),
    ("battery", "energy_capacity_0", float("nan")),
    ("battery", "energy_capacity_0", float("inf")),
    ("battery", "power_limit", float("nan")),
    ("battery", "power_limit", float("inf")),
    ("battery", "calendar_fade_per_year", float("nan")),
    ("battery", "calendar_fade_per_year", float("inf")),
    # A JSON boolean is no number, though Python's bool is an int.
    ("battery", "cycle_life", True),
    ("battery", "efficiency", True),
    ("swap", "swap_price", True),
    ("economics", "discount_rate", False),
    ("demand_curve", "intercept", True),
    ("mdc_grid", None, [0, True]),
    ("price_grid", None, [False, 10]),
])
def test_non_finite_config_value_exits_2(section, field, value, tmp_path, monkeypatch):
    TestBadInputExits2._forbid_lifecycles(monkeypatch)
    data = config_to_dict(paper_defaults())
    if field is None:
        data[section] = value
    else:  # the preset has no demand curve
        data[section] = {**(data[section] or {"slope": -10.0, "intercept": 180.0}), field: value}
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(data))  # writes NaN and Infinity
    out = tmp_path / "out"
    TestBadInputExits2()._assert_exit_2(["sweep-price", "--config", str(path)] + FAST, out)
    boolean = any(isinstance(v, bool) for v in (value if isinstance(value, list) else [value]))
    if section == "battery" or boolean:  # named, not blamed on the MDC or taken as 1 or 0
        assert (field or section) in json.loads((out / "error.json").read_text())["message"]


@pytest.mark.parametrize("field", ["reserve_enabled", "include_mdc_in_cashflow"])
@pytest.mark.parametrize("value", ["false", 0, 1, None])
def test_non_boolean_flag_exits_2(field, value, tmp_path, monkeypatch):
    """A flag that is not a JSON boolean; the string "false" would be truthy."""
    TestBadInputExits2._forbid_lifecycles(monkeypatch)
    data = config_to_dict(paper_defaults())
    data["flags"][field] = value
    path = tmp_path / "flags.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    TestBadInputExits2()._assert_exit_2(["simulate", "--mu", "1", "--config", str(path)]
                                        + FAST, out)
    assert field in json.loads((out / "error.json").read_text())["message"]


UNDYING = {"cycle_life": 1e9, "calendar_fade_per_year": 0.0}


@pytest.mark.parametrize("economics,battery", [
    ({"horizon_cap_years": 2.5}, {}),
    ({"horizon_cap_years": 1e300}, UNDYING),
    ({"horizon_cap_years": 1001}, {}),
    ({"horizon_cap_years": True}, {}),
    ({"discount_rate": 1e12}, UNDYING),
], ids=["fractional-horizon", "huge-horizon", "horizon-past-max", "bool-horizon",
        "overflowing-discount"])
def test_bad_horizon_config_exits_2(economics, battery, tmp_path, monkeypatch):
    """A horizon not a whole number of years in [1, 1000], or one whose last
    year's MDC factor (1 + r) ** (years - 1) overflows."""
    TestBadInputExits2._forbid_lifecycles(monkeypatch)
    data = config_to_dict(paper_defaults())
    data["economics"].update(economics)
    data["battery"].update(battery)
    path = tmp_path / "bad_horizon.json"
    path.write_text(json.dumps(data))
    TestBadInputExits2()._assert_exit_2(["simulate", "--mu", "1", "--config", str(path)]
                                        + FAST, tmp_path / "out")


@pytest.mark.parametrize("argv,economics,battery", [
    (["simulate", "--mu", "1e306"], {}, {}),
    (["simulate", "--mu", "1e300"], {"discount_rate": 1e10}, UNDYING),
    (["optimize-mdc", "--mdc-grid", "0:1e306:1e306"], {}, {}),
], ids=["mu", "mu-fast-discount", "mdc-grid-point"])
def test_overflowing_mdc_exits_2(argv, economics, battery, tmp_path, monkeypatch):
    """A finite MDC whose last-year adjusted value times a life's throughput
    overflows would write NaN or -Infinity into the reports."""
    TestBadInputExits2._forbid_lifecycles(monkeypatch)
    data = config_to_dict(paper_defaults())
    data["economics"].update(economics)
    data["battery"].update(battery)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    TestBadInputExits2()._assert_exit_2(
        argv + ["--config", str(path), "--synth", "flat:10", "--days", "2"], tmp_path / "out")


def test_write_json_refuses_nan(tmp_path):
    from swapval.report import write_json

    path = tmp_path / "bad.json"
    for value in (float("nan"), float("-inf")):
        with pytest.raises(ValueError):
            write_json(str(path), {"lb_star": value})
        assert not path.exists()


@pytest.mark.parametrize("text,match", [
    ("0:inf:1", "finite"), ("-inf:0:1", "finite"), ("0:10:inf", "finite"),
    ("nan:1:1", "finite"), ("0:1e300:1", "more than"), ("-1e300:0:1", "more than"),
])
def test_parse_grid_rejects_unbounded(text, match):
    with pytest.raises(ConfigError, match=match):
        _parse_grid(text)


BAD_NUMBERS = ["nan", "inf", "-inf", "-1", "-0.5", "-1e300"]
# One numeric flag per entry, with the subcommand that reads it and the
# values of it that are out of range besides BAD_NUMBERS.
NUMERIC_FLAGS = {
    "--mu": (["simulate"], []),
    "--om": (["simulate", "--mu", "1"], []),
    "--swap-price": (["simulate", "--mu", "1", "--swap-cap", "1"], ["-"]),
    "--swap-cap": (["simulate", "--mu", "1"], []),
    "--labor": (["simulate", "--mu", "1", "--swap-cap", "1"], []),
    "--seed": (["simulate", "--mu", "1"], ["1.5"]),
    "--days": (["simulate", "--mu", "1"], ["0", "1.5"]),
    "--refine-step": (["optimize-mdc", "--mdc-grid", "0:10:10"],
                      ["0", "10", "11", "1e300", "1e-300"]),
}
GRID_FLAGS = {
    "--mdc-grid": ["optimize-mdc"],
    "--price-grid": ["sweep-price", "--swap-cap", "1", "--mdc-grid", "0:10:10"],
    "--om-grid": ["eol", "--mu", "1"],
}
GRID_PART = st.sampled_from(["0", "1", "5", "10"])


@st.composite
def bad_grids(draw):
    """'a:b:step' strings that no grid parser may accept."""
    a, b, step = draw(GRID_PART), draw(GRID_PART), draw(GRID_PART)
    kind = draw(st.sampled_from(["bad-part", "arity", "descending", "step", "huge", "text"]))
    if kind == "bad-part":
        parts = [a, b, step]
        parts[draw(st.integers(0, 2))] = draw(st.sampled_from(BAD_NUMBERS + ["x", ""]))
        return ":".join(parts)
    if kind == "arity":
        return ":".join(draw(st.lists(GRID_PART, min_size=1, max_size=5).filter(
            lambda parts: len(parts) != 3)))
    if kind == "descending":
        return f"10:{a}:1" if a != "10" else "10:5:1"
    if kind == "step":
        return f"{a}:10:{draw(st.sampled_from(['0', '-1', '-0.5']))}"
    if kind == "huge":  # too many points, or a step too small to move past a
        return draw(st.sampled_from(["0:1e300:1", "-1e300:0:1", "0:1e6:1e-6", "1e20:1e20:1"]))
    return draw(st.text(alphabet="abc,;: ", max_size=8))


@st.composite
def malformed_argv(draw):
    """One subcommand with one of its numeric flags set to a bad value."""
    if draw(st.booleans()):
        flag = draw(st.sampled_from(sorted(GRID_FLAGS)))
        return GRID_FLAGS[flag] + [f"{flag}={draw(bad_grids())}"]
    flag = draw(st.sampled_from(sorted(NUMERIC_FLAGS)))
    base, extra = NUMERIC_FLAGS[flag]
    return base + [f"{flag}={draw(st.sampled_from(BAD_NUMBERS + extra))}"]


@settings(max_examples=60, deadline=None)
@given(argv=malformed_argv())
def test_malformed_numeric_flags_exit_2_or_3(argv):
    """Any bad numeric flag ends in exit 2 or 3 with error.json, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"SWAPVAL_THREADS": "1"}):
        out = os.path.join(tmp, "out")
        days = [] if any(arg.startswith("--days") for arg in argv) else ["--days", "1"]
        try:
            code = run_cli(argv + ["--synth", "flat:10"] + days + ["--out", out])
        except SystemExit as exc:  # argparse rejects the value before any run
            assert exc.code == 2, argv
            return
        assert code in (2, 3), argv
        with open(os.path.join(out, "error.json"), encoding="utf-8") as fh:
            assert json.load(fh)["exit_code"] == code


@pytest.mark.parametrize("argv", [
    ["optimize-curve-price", "--curve=-10,180", "--curve=-40,180",
     "--price-grid", "100:200:50"],
    ["eol", "--om-grid", "0:16:8"],
], ids=["two-curves", "eol"])
def test_one_study_starts_one_pool(argv, tmp_path, fast_config, monkeypatch):
    started = []

    class CountingPool(swapval.optimizers.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(swapval.optimizers, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setenv("SWAPVAL_THREADS", "2")
    assert run_cli(argv + ["--config", fast_config, "--out", str(tmp_path / "out")]
                   + FAST + TINY_GRID) == 0
    assert started == [2]


@pytest.mark.parametrize("synth", ["flat:nan", "flat:inf", "flat:1e400", "daily-sine:40:nan",
                                   "daily-sine:40:-5", "two-level:10:20:30", "flat:10:99",
                                   "daily-sine:40:30:7", "two-level:10:90:12:5"])
def test_bad_synthetic_parameter_exits_2(synth, tmp_path, monkeypatch):
    TestBadInputExits2._forbid_lifecycles(monkeypatch)
    TestBadInputExits2()._assert_exit_2(
        ["simulate", "--mu", "1", "--days", "2", "--synth", synth], tmp_path / "out")


@pytest.mark.parametrize("params", [
    {},
    {"mean": "abc", "amplitude": 30.0},
    {"mean": 40.0, "amplitude": None},
    {"mean": 40.0, "amplitude": 30.0, "reserve_level": -1.0},
    {"mean": 40.0, "amplitude": 30.0, "reserve": 5.0},
], ids=["empty", "text-mean", "null-amplitude", "negative-reserve-level", "unknown-parameter"])
def test_bad_synthetic_params_in_config_exit_2(params, tmp_path, monkeypatch):
    TestBadInputExits2._forbid_lifecycles(monkeypatch)
    data = config_to_dict(paper_defaults())
    data["prices"]["params"] = params
    path = tmp_path / "bad_params.json"
    path.write_text(json.dumps(data))
    TestBadInputExits2()._assert_exit_2(["simulate", "--mu", "1", "--config", str(path)],
                                        tmp_path / "out")
    with pytest.raises(PriceDataError):  # the library entry point keeps the same rules
        synth_price_series("daily-sine", days=2, **params)


@pytest.mark.parametrize("pattern,params", [
    ("sine", {"mean": 40.0, "amplitude": 30.0}),
    ("two-level", {"low": 10.0, "high": 90.0, "split_hour": 12.5}),
], ids=["unknown-pattern", "fractional-split-hour"])
def test_bad_synthetic_source_in_config_exits_2(pattern, params, tmp_path, monkeypatch):
    TestBadInputExits2._forbid_lifecycles(monkeypatch)
    data = config_to_dict(paper_defaults())
    data["prices"].update(pattern=pattern, params=params)
    path = tmp_path / "bad_source.json"
    path.write_text(json.dumps(data))
    TestBadInputExits2()._assert_exit_2(["simulate", "--mu", "1", "--config", str(path)],
                                        tmp_path / "out")
    with pytest.raises(PriceDataError):  # the library entry point keeps the same rules
        synth_price_series(pattern, days=2, **params)


@pytest.mark.parametrize("case,code", [
    ("out-is-a-file", 2), ("out-under-a-file", 2), ("price-file-is-a-directory", 3),
    ("price-file-not-utf8", 3), ("price-cell-over-csv-limit", 3),
    ("config-is-a-directory", 2), ("config-not-utf8", 2),
])
def test_unreadable_input_exits_with_a_record(case, code, tmp_path, capsys):
    """An input file that cannot be read, or an --out that cannot be made, ends
    in its exit code and a JSON record (also in error.json where --out can be
    made), never in a traceback."""
    afile = tmp_path / "afile"
    afile.write_text("")
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("hour,lmp_usd_per_mwh\n0,caf\xe9\n".encode("latin-1"))
    huge = tmp_path / "huge.csv"
    huge.write_text("hour,lmp_usd_per_mwh,reserve_usd_per_mw\n0," + "1" * 200_000 + ",0\n")
    out = tmp_path / "out"
    synth = ["--synth", "flat:10", "--days", "1"]
    argv = ["simulate", "--mu", "1"] + {
        "out-is-a-file": synth + ["--out", str(afile)],
        "out-under-a-file": synth + ["--out", str(afile / "sub")],
        "price-file-is-a-directory": ["--price-file", str(tmp_path), "--out", str(out)],
        "price-file-not-utf8": ["--price-file", str(latin1), "--out", str(out)],
        "price-cell-over-csv-limit": ["--price-file", str(huge), "--out", str(out)],
        "config-is-a-directory": ["--config", str(tmp_path), "--out", str(out)],
        "config-not-utf8": ["--config", str(latin1), "--out", str(out)],
    }[case]
    assert run_cli(argv) == code
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["exit_code"] == code
    if case.startswith("out-"):
        assert afile.read_text() == ""  # no error.json can be written there
    else:
        assert json.loads((out / "error.json").read_text()) == record


MISSPELT_SCHEMA = {"hour": "hour", "lmp": "lmp_usd_per_mwh", "reserv": "reserve_usd_per_mw"}


@pytest.mark.parametrize("case", ["path-7", "path-list", "schema-string",
                                  "schema-misspelt-key", "nested-config", "file-params",
                                  "file-pattern", "synthetic-pattern-list"])
def test_malformed_price_source_or_config_exits_2(case, tmp_path, monkeypatch):
    """A file price source's path must be a string, its schema a column map
    (a misspelt 'reserve' would zero every reserve price) and its params empty
    (900 nested lists there overflowed the recursion limit when echoed), it
    takes no pattern (the same 900 lists there did too), a synthetic source's
    pattern is a string, and a config nested deeper than the JSON decoder can
    recurse is not valid JSON: each exits 2."""
    TestBadInputExits2._forbid_lifecycles(monkeypatch)
    nested = []
    for _ in range(900):
        nested = [nested]
    prices = tmp_path / "prices.csv"
    write_series(synth_price_series("flat", days=1, level=10.0, reserve_level=5.0), prices)
    data = config_to_dict(paper_defaults())
    # A well-formed file source, so that each case fails on its own field.
    data["prices"].update(kind="file", path=str(prices), pattern=None, params={})
    data["prices"].update({
        "path-7": {"path": 7},
        "path-list": {"path": [str(prices)]},
        "schema-string": {"schema": "abc"},
        "schema-misspelt-key": {"schema": MISSPELT_SCHEMA},
        "nested-config": {},
        "file-params": {"params": {"x": nested}},
        "file-pattern": {"pattern": nested},
        "synthetic-pattern-list": {"kind": "synthetic", "path": None,
                                   "pattern": ["daily-sine"]},
    }[case])
    path = tmp_path / "scenario.json"
    path.write_text("[" * 100_000 if case == "nested-config" else json.dumps(data))
    TestBadInputExits2()._assert_exit_2(["simulate", "--mu", "1", "--config", str(path)],
                                        tmp_path / "out")
    message = json.loads((tmp_path / "out" / "error.json").read_text())["message"]
    if case == "file-params":
        assert "params" in message
    if case in ("file-pattern", "synthetic-pattern-list"):
        assert "pattern" in message


def _readme_columns() -> dict[str, list[str]]:
    """Each CSV's columns as README's "Output schemas" table lists them."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        table = fh.read().split("## Output schemas", 1)[1].split("\n## ", 1)[0]
    return {name: columns.split(", ")
            for name, columns in re.findall(r"^\| `(\w+\.csv)` \| `([^`]+)` \|", table, re.M)}


def test_csv_headers_are_readmes_schemas(tmp_path, fast_config):
    """Each table's header comes from its rows' keys; README states them."""
    columns = _readme_columns()
    studies = [
        ["simulate", "--mu", "35"],
        ["optimize-mdc"],
        ["sweep-price", "--price-grid", "0:100:50"],
        ["optimize-curve-price", "--curve=-10,180", "--price-grid", "50:150:50"],
        ["eol", "--om-grid", "0:16:8"],
    ]
    written = set()
    for study in studies:
        out = tmp_path / study[0]
        assert run_cli(study + ["--config", fast_config, "--out", str(out)]
                       + FAST + TINY_GRID) == 0
        for table in out.glob("*.csv"):
            header = table.read_text(encoding="utf-8").splitlines()[0]
            assert header.split(",") == columns.get(table.name), table.name
            written.add(table.name)
    assert written == set(columns)
