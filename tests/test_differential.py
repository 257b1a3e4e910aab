"""Whole CLI studies against their reference: every fast path off.

The reference run replaces each fast path by the slow one it stands for:
HiGHS by a cold ``linprog`` solve of each day (``solve_lp_linprog``), the
basis certificate, its continuation and its blocks by declining every day,
the idle proof by proving nothing (every day is solved), and the process
pool by a serial run.  Every number of every report file must agree: grid
decisions and day counts exactly, every other float within a relative 1e-9
(absolute below 1).

The instances are recorded here; a mismatch must be explained, not re-drawn
away.  Except in ``simulate-carry-over``, a 60-cycle battery with a fast
calendar fade (0.5 a year) lives 14 to 147 days, so each study stays small.  On a 9-day seeded sine with
reserve prices, swap and reserve are each on and off: ``sweep-price`` (both
on), ``optimize-curve-price`` (swap on, reserve off), ``eol`` (its
``with_swap`` and ``no_swap`` modes, reserve on) and ``optimize-mdc
--refine-step`` (both off).  Three ``simulate`` runs on price files catch
what those four do not:

- ``simulate-reserve-toggle``: a daily sine whose reserve price is 0 on
  even days and 5 on odd ones, so the held basis certifies days by moving
  reserve columns to their other bound.  A certificate without its bound
  flip fails it (operating cash 15366 against 19152 in year 1).
- ``simulate-break-even``: a lossless battery (efficiency 1), no swap and
  no reserve, LMP 10 except 50 in hours 17-20, at the MDC where cycling
  exactly breaks even in year 1: 50 - A = 10 + A for A = mu + 1e-7 (the
  tie-break penalty).  HiGHS cycles; an idle proof without its margin
  idles from day 0 and fails it (147 days lived against 46), and so does a
  block that ignores ties.
- ``simulate-carry-over``: the paper battery (2000 cycles, calendar fade
  0.01) for one year (``horizon_cap_years`` 1), no swap, reserve on, at mu
  30, on a 7-day daily sine (seed 3, mean 40, amplitude 30) whose hour-23
  reserve price of 80 keeps energy in the battery overnight.  Blocks
  certify 355 of its 365 days, and those days start charged.  A block that drops
  the carried SOC's coefficient from ``DayBlock.soc_end`` and
  ``DayBlock.moved`` fails it (``lb_star`` 27,695.17 against 58,199.72).
  Dropping the carried SOC from ``check_stretch``'s checked point does not:
  the block's own primal test then declines every block day, the one-day
  path solves it, and only the speed changes.

A continuation that accepts its basis without the primal test fails all
four grid studies: its infeasible points fail the re-check (exit 4).  Each
mutation was tried on a copy of the code.
"""

import csv
import json
import math

import numpy as np
import pytest

import swapval.lifecycle as lifecycle
import swapval.scheduler as scheduler
from swapval.cli import run_cli
from swapval.config import config_to_dict, paper_defaults
from swapval.lp import HighsModel
from swapval.market_data import HourlyPriceSeries, synth_price_series, write_series

from _reference import solve_lp_linprog

STUDIES = {
    "sweep-price": ["sweep-price", "--price-grid", "120:200:80", "--mdc-grid", "0:40:20"],
    "optimize-curve-price": ["optimize-curve-price", "--curve=-10,180", "--curve=-40,180",
                             "--price-grid", "100:180:80", "--mdc-grid", "0:40:20",
                             "--no-reserve"],
    "eol": ["eol", "--mdc-grid", "0:40:20", "--om-grid", "0:16:8"],
    "optimize-mdc": ["optimize-mdc", "--mdc-grid", "0:40:20", "--refine-step", "10",
                     "--no-reserve"],
    "simulate-reserve-toggle": ["simulate", "--mu", "20"],
    "simulate-break-even": ["simulate", "--mu", "19.999999900000002", "--no-reserve"],
    "simulate-carry-over": ["simulate", "--mu", "30"],
}

# Grid decisions, grid coordinates and day or year counts: equal exactly.
EXACT = {"mu", "mu_star", "swap_price", "price_star", "demand", "demand_star", "slope",
         "intercept", "om_per_kw_year", "mode", "days_lived", "days", "year",
         "economic_eol_year", "physical_eol_year", "horizon_capped"}


def _inputs(tmp_path, study):
    """The study's config file, and its price file for a ``simulate`` study,
    as arguments."""
    data = config_to_dict(paper_defaults())
    data["battery"].update(cycle_life=60.0, calendar_fade_per_year=0.5)
    data["prices"].update(days=9, seed=4,
                          params={"mean": 40.0, "amplitude": 30.0, "reserve_level": 2.0})
    argv = []
    if study in ("optimize-mdc", "simulate-break-even", "simulate-carry-over"):
        data["swap"] = None
    if study.startswith("simulate"):
        if study == "simulate-break-even":
            data["battery"]["efficiency"] = 1.0
            lmp, reserve = np.full((1, 24), 10.0), np.zeros((1, 24))
            lmp[:, 17:21] = 50.0
        elif study == "simulate-carry-over":
            data["battery"].update(cycle_life=2000.0, calendar_fade_per_year=0.01)
            data["economics"]["horizon_cap_years"] = 1
            lmp = synth_price_series("daily-sine", days=7, seed=3, mean=40.0,
                                     amplitude=30.0).lmp.reshape(7, 24)
            reserve = np.zeros((7, 24))
            reserve[:, 23] = 80.0
        else:
            lmp = np.tile(40.0 + 30.0 * np.sin(np.arange(24) * np.pi / 12.0), (2, 1))
            reserve = np.zeros((2, 24))
            reserve[1] = 5.0
        prices = tmp_path / f"{study}.csv"
        write_series(HourlyPriceSeries(lmp=lmp.ravel(), reserve_price=reserve.ravel()), prices)
        argv = ["--price-file", str(prices)]
    path = tmp_path / f"{study}.json"
    path.write_text(json.dumps(data))
    return argv + ["--config", str(path)]


def _reference(monkeypatch):
    """Every fast path replaced by its reference, for the rest of the test."""
    monkeypatch.setenv("SWAPVAL_THREADS", "1")
    monkeypatch.setattr(scheduler, "solve_lp", lambda held: solve_lp_linprog(held.lp))
    monkeypatch.setattr(HighsModel, "certify", lambda *args: None)
    # Blocks decline (no block exists before they landed).
    monkeypatch.setattr(lifecycle, "certify_days", lambda *args: None, raising=False)
    monkeypatch.setattr(lifecycle, "_idle_proof",
                        lambda model, amdc: np.zeros(len(model.lmp), dtype=bool))


def _read(path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _assert_same(got, want, where, key=None):
    """Every number of ``want`` in ``got``: exact for ``EXACT`` keys and
    integers, within a relative 1e-9 (absolute below 1) otherwise."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for k in want:
            _assert_same(got[k], want[k], f"{where}.{k}", k)
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            _assert_same(a, b, f"{where}[{i}]", key)
    elif isinstance(want, str) and not isinstance(got, str):
        raise AssertionError(f"{where}: {got!r} != {want!r}")
    elif isinstance(want, str):  # a CSV cell
        try:
            a, b = float(got), float(want)
        except ValueError:
            assert got == want, where
        else:
            _assert_same(a, b, where, key if "." in want or "e" in want else "int")
    elif key in EXACT or key == "int" or not isinstance(want, float):
        assert got == want, f"{where}: {got!r} != {want!r}"
    else:
        assert math.isfinite(got) and abs(got - want) <= 1e-9 * max(abs(got), abs(want), 1.0), \
            f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("study", sorted(STUDIES))
def test_study_equals_its_reference(study, tmp_path, monkeypatch):
    argv = STUDIES[study] + _inputs(tmp_path, study)
    assert run_cli(argv + ["--out", str(tmp_path / "fast")]) == 0
    _reference(monkeypatch)
    assert run_cli(argv + ["--out", str(tmp_path / "reference")]) == 0
    files = sorted(p.name for p in (tmp_path / "reference").iterdir())
    assert sorted(p.name for p in (tmp_path / "fast").iterdir()) == files
    for name in files:
        _assert_same(_read(tmp_path / "fast" / name), _read(tmp_path / "reference" / name),
                     f"{study}/{name}")
