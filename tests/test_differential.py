"""Whole CLI studies against their reference: every fast path off.

The reference run replaces each fast path by the slow one it stands for:
HiGHS by a cold ``linprog`` solve of each day (``solve_lp_linprog``), the
basis certificate and its blocks by declining every day, the idle proof by
proving nothing (every day is solved), and the process pool by a serial run.
Every number of every report file must agree: grid decisions and day counts
exactly, every other float within a relative 1e-9 (absolute below 1).

The instances are recorded here and pass with and without the blocks of
days certified at once; a mismatch must be explained, not re-drawn away.
A 60-cycle battery with a fast calendar fade (0.5 a year) on a 9-day
seeded sine with reserve prices lives 14 to 147 days, so each study stays
small: 1426 days lived over the four studies, 138 of them certified in
blocks and 588 in the idle tail.  Swap and reserve are each on and off:
``sweep-price`` (both on), ``optimize-curve-price`` (swap on, reserve
off), ``eol`` (its ``with_swap`` and ``no_swap`` modes, reserve on) and
``optimize-mdc --refine-step`` (both off).
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

from _reference import solve_lp_linprog

STUDIES = {
    "sweep-price": ["sweep-price", "--price-grid", "120:200:80", "--mdc-grid", "0:40:20"],
    "optimize-curve-price": ["optimize-curve-price", "--curve=-10,180", "--curve=-40,180",
                             "--price-grid", "100:180:80", "--mdc-grid", "0:40:20",
                             "--no-reserve"],
    "eol": ["eol", "--mdc-grid", "0:40:20", "--om-grid", "0:16:8"],
    "optimize-mdc": ["optimize-mdc", "--mdc-grid", "0:40:20", "--refine-step", "10",
                     "--no-reserve"],
}

# Grid decisions, grid coordinates and day or year counts: equal exactly.
EXACT = {"mu", "mu_star", "swap_price", "price_star", "demand", "demand_star", "slope",
         "intercept", "om_per_kw_year", "mode", "days_lived", "days", "year",
         "economic_eol_year", "physical_eol_year", "horizon_capped"}


def _config(tmp_path, study):
    data = config_to_dict(paper_defaults())
    data["battery"].update(cycle_life=60.0, calendar_fade_per_year=0.5)
    data["prices"].update(days=9, seed=4,
                          params={"mean": 40.0, "amplitude": 30.0, "reserve_level": 2.0})
    if study == "optimize-mdc":
        data["swap"] = None
    path = tmp_path / f"{study}.json"
    path.write_text(json.dumps(data))
    return str(path)


def _reference(monkeypatch):
    """Every fast path replaced by its reference, for the rest of the test."""
    monkeypatch.setenv("SWAPVAL_THREADS", "1")
    monkeypatch.setattr(scheduler, "solve_lp", lambda held: solve_lp_linprog(held.lp))
    monkeypatch.setattr(HighsModel, "certify", lambda self: None)
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
    argv = STUDIES[study] + ["--config", _config(tmp_path, study)]
    assert run_cli(argv + ["--out", str(tmp_path / "fast")]) == 0
    _reference(monkeypatch)
    assert run_cli(argv + ["--out", str(tmp_path / "reference")]) == 0
    files = sorted(p.name for p in (tmp_path / "reference").iterdir())
    assert sorted(p.name for p in (tmp_path / "fast").iterdir()) == files
    for name in files:
        _assert_same(_read(tmp_path / "fast" / name), _read(tmp_path / "reference" / name),
                     f"{study}/{name}")
