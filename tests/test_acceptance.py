"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Criterion 9 needs the historical CAISO 2018 hourly price CSV, which is not
distributed here; point SWAPVAL_CAISO_CSV at it to enable that test.
"""

import dataclasses
import json
import os
import time

import numpy as np
import pytest

from swapval.cli import run_cli
from swapval.config import config_to_dict, paper_defaults
from swapval.lifecycle import (
    EconomicParams,
    abu,
    adjusted_mdc,
    eol_analysis,
    simulate_lifecycle,
    total_budget,
)
from swapval.market_data import load_price_series, synth_price_series
from swapval.optimizers import DemandPriceCurve, demand_at_price, optimize_mdc, sweep_swap_price
from swapval.scheduler import NO_SWAP, BatterySpec, SwapTerms

from _generators import DAY_FAMILIES, ORACLE_BUDGET, random_day, reference_battery
from _reference import (DayInput, build_compact_lp, build_daily_lp_rows, enumerate_oracle,
                        oracle_cost, solve_fresh, solve_one_day)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def battery():
    return reference_battery()


@pytest.fixture(scope="module")
def econ():
    return EconomicParams(discount_rate=0.07, fixed_om_per_kw_year=16.0,
                          horizon_cap_years=30)


def test_criterion_1_lp_oracle_equivalence():
    """200 random daily instances truncated to 4-6 hours match the
    exhaustive enumeration oracle within 1e-6 relative, in under 60 s."""
    rng = np.random.default_rng(1803)
    families = [f for f in DAY_FAMILIES if not f[2] and f[0] >= 4]  # reserve off
    weights = np.array([0.30, 0.15, 0.25, 0.10, 0.10, 0.10])
    start = time.perf_counter()
    worst = 0.0
    for i in range(200):
        hours, with_swap, _, roomy = families[rng.choice(len(families), p=weights)]
        day = None
        for attempt in range(6):
            candidate = random_day(rng, hours, with_swap, False,
                                   roomy_capacity=roomy or attempt > 1)
            if oracle_cost(build_compact_lp(candidate, hours)) <= ORACLE_BUDGET:
                day = candidate
                break
        assert day is not None, f"instance {i}: could not fit the oracle budget"
        sol = solve_fresh(build_daily_lp_rows(day, hours))
        oracle = enumerate_oracle(build_compact_lp(day, hours))
        scale = max(1.0, abs(oracle.objective_value))
        err = abs(sol.objective_value - oracle.objective_value) / scale
        worst = max(worst, err)
        assert err <= 1e-6, f"instance {i}: relative error {err:.2e}"
    elapsed = time.perf_counter() - start
    _verdict(1, elapsed < 60.0,
             f"200 instances agree (worst rel err {worst:.1e}) in {elapsed:.1f}s")


def test_criterion_2_closed_form_arbitrage_margin(battery):
    """Two-level(10, 90) prices at mu=35: per-MWh-charged profit equals
    90*0.9025 - 10 - 35*1.9025 (the closed-form margin)."""
    series = synth_price_series("two-level", days=1, low=10.0, high=90.0, split_hour=12)
    day = DayInput(battery=battery, lmp=series.lmp, reserve_price=series.reserve_price,
                   amdc=35.0, swap=NO_SWAP, soc_start=0.0, capacity_now=2.7,
                   calendar_throughput_today=0.0, reserve_enabled=False)
    schedule = solve_one_day(day)
    margin = schedule.sb_star / schedule.charge.sum()
    expected = 90.0 * 0.9025 - 10.0 - 35.0 * 1.9025
    ok = abs(margin - expected) <= 1e-6
    _verdict(2, ok, f"margin {margin:.7f} vs closed form {expected:.7f}")


def test_criterion_3_calendar_only_life(battery, econ):
    """flat(0), no swap, mu=0: the budget drains by calendar fade alone in
    7300 +/- 1 days with zero life-cycle value."""
    series = synth_price_series("flat", days=1, level=0.0)
    result = simulate_lifecycle(battery, econ, series, 0.0, swap_policy=None,
                                reserve_enabled=False)
    ok = abs(result.days_lived - 7300) <= 1 and result.lb_star == 0.0
    _verdict(3, ok, f"days_lived {result.days_lived} (target 7300±1), "
             f"lb_star {result.lb_star}")


def test_criterion_4_monotone_life_vs_mdc(battery, econ):
    """Daily-sine year: battery life is non-decreasing in the MDC and the
    cumulative throughput trajectory is non-increasing, over the 21-point
    grid, in under 5 minutes."""
    series = synth_price_series("daily-sine", days=365, seed=0, mean=40.0,
                                amplitude=30.0)
    start = time.perf_counter()
    results = []
    for mu in range(0, 101, 5):
        results.append(simulate_lifecycle(battery, econ, series, float(mu),
                                          swap_policy=None, reserve_enabled=False))
    elapsed = time.perf_counter() - start
    days = [r.days_lived for r in results]
    assert days == sorted(days), f"days_lived not monotone: {days}"
    for lo, hi in zip(results, results[1:]):
        n = min(lo.days_lived, hi.days_lived)
        cum_lo = np.cumsum(lo.daily_log.throughput[:n])
        cum_hi = np.cumsum(hi.daily_log.throughput[:n])
        assert np.all(cum_hi <= cum_lo + 1e-6), "cumulative throughput not ordered"
    _verdict(4, elapsed < 300.0,
             f"days_lived {days[0]}->{days[-1]} monotone over 21 points in {elapsed:.0f}s")


def test_criterion_5_swap_shortens_life_and_dominates(battery, econ):
    """Profitable swapping at mu=0 ends life no later than without, and an
    available swap channel never lowers the life-cycle optimum at any mu."""
    series = synth_price_series("two-level", days=7, low=10.0, high=90.0, split_hour=12)
    swap = SwapTerms(swap_price=140.0, daily_swap_cap=2.7, labor_cost=10.0)
    with_swap, without = [], []
    for mu in range(0, 101, 5):
        with_swap.append(simulate_lifecycle(battery, econ, series, float(mu),
                                            swap_policy=swap, reserve_enabled=False,
                                            keep_daily_log=False))
        without.append(simulate_lifecycle(battery, econ, series, float(mu),
                                          swap_policy=None, reserve_enabled=False,
                                          keep_daily_log=False))
    assert with_swap[0].days_lived <= without[0].days_lived, (
        f"swap did not shorten life at mu=0: {with_swap[0].days_lived} vs "
        f"{without[0].days_lived}")
    for s, n in zip(with_swap, without):
        assert s.lb_star >= n.lb_star - 1e-9, (
            f"dominance violated at mu={s.mu}: {s.lb_star} < {n.lb_star}")
    _verdict(5, True,
             f"life {with_swap[0].days_lived} <= {without[0].days_lived} at mu=0; "
             f"lb dominance holds at all 21 grid points")


def test_criterion_6_eol_ordering(battery, econ):
    """economic EOL <= physical EOL for O&M in {0, 8, 16, 24, 30} $/kW-yr,
    with equality at zero O&M.  Yearly profits decline as the adjusted MDC
    rises, so high O&M pulls the economic EOL strictly earlier."""
    series = synth_price_series("daily-sine", days=365, seed=0, mean=40.0,
                                amplitude=30.0)
    result = simulate_lifecycle(battery, econ, series, 20.0, swap_policy=None,
                                reserve_enabled=False, keep_daily_log=False)
    pairs = []
    for om in [0.0, 8.0, 16.0, 24.0, 30.0]:
        eol = eol_analysis(result, battery, dataclasses.replace(
            econ, fixed_om_per_kw_year=om))
        assert eol["economic_eol_year"] <= eol["physical_eol_year"], f"om={om}"
        pairs.append((om, eol["economic_eol_year"], eol["physical_eol_year"]))
    assert pairs[0][1] == pairs[0][2], "equality at O&M = 0 failed"
    assert pairs[-1][1] < pairs[-1][2], "high O&M should end economic life early"
    _verdict(6, True, f"(om, econ, phys) = {pairs}")


def test_criterion_7_demand_extinction_tail(econ):
    """Candidate swap prices at or above the curve intercept leave demand at
    zero, so lb equals the no-swap baseline within 1e-6 relative."""
    battery = BatterySpec(2.7, 2.7, 0.95, cycle_life=30.0)
    series = synth_price_series("two-level", days=2, low=10.0, high=90.0)
    curve = DemandPriceCurve(slope=-10.0, intercept=180.0)
    mdc_grid = [0.0, 20.0, 40.0]
    baseline = optimize_mdc(battery, econ, series, None, mdc_grid,
                            reserve_enabled=False)
    worst = 0.0
    for price in [180.0, 190.0, 200.0]:
        cap = demand_at_price(curve, price)
        assert cap == 0.0
        swept = optimize_mdc(battery, econ, series,
                             SwapTerms(price, cap, 10.0), mdc_grid,
                             reserve_enabled=False)
        scale = max(1.0, abs(baseline.lb_at_star))
        worst = max(worst, abs(swept.lb_at_star - baseline.lb_at_star) / scale)
    _verdict(7, worst <= 1e-6, f"worst relative deviation from baseline {worst:.1e}")


def test_criterion_8_amdc_and_abu_arithmetic():
    """mu_t = mu*(1+r)^kappa exact to 1e-12 across 30 years; ABU = LB*/D
    exact to 1e-12."""
    worst = 0.0
    for rate in [0.0, 0.03, 0.07, 0.12]:
        econ = EconomicParams(discount_rate=rate)
        for year in range(30):
            for mu in [0.0, 1.0, 35.0, 250.0]:
                got = adjusted_mdc(mu, 365 * year + 137, econ)
                expected = mu * (1.0 + rate) ** year
                worst = max(worst, abs(got - expected) / max(1.0, abs(expected)))
    assert worst <= 1e-12
    for lb, d in [(0.0, 10800.0), (10800.0, 10800.0), (123456.789, 10800.0)]:
        assert abs(abu(lb, d) - lb / d) <= 1e-12 * max(1.0, abs(lb / d))
    _verdict(8, True, f"AMDC worst relative error {worst:.1e}; ABU exact")


CAISO_ENV = "SWAPVAL_CAISO_CSV"


@pytest.mark.skipif(CAISO_ENV not in os.environ,
                    reason="historical CAISO 2018 price data not distributed; "
                           f"set {CAISO_ENV} to the hourly CSV to enable")
def test_criterion_9_published_headline_numbers(battery, econ):
    """Dataset-conditional reproduction of the published headline numbers.

    Uses a 2.7 MWh/day swap cap for the with-swapping scenario (the
    published demand-price pairs are not printed, so the station's energy
    capacity is used as the demand normalization).
    """
    series = load_price_series(os.environ[CAISO_ENV])
    grid = [float(v) for v in range(0, 101, 5)]
    swap = SwapTerms(swap_price=0.0, daily_swap_cap=2.7, labor_cost=10.0)

    with_swap = optimize_mdc(battery, econ, series, SwapTerms(160.0, 2.7, 10.0),
                             grid, reserve_enabled=True)
    without = optimize_mdc(battery, econ, series, None, grid, reserve_enabled=True)
    assert abs(with_swap.mu_star - 35.0) <= 5.0, f"mu* with swap {with_swap.mu_star}"
    assert abs(without.mu_star - 30.0) <= 5.0, f"mu* without swap {without.mu_star}"

    base = simulate_lifecycle(battery, econ, series, without.mu_star,
                              swap_policy=None, reserve_enabled=True)
    eol = eol_analysis(base, battery, econ)
    assert eol["physical_eol_year"] == 7
    assert eol["economic_eol_year"] == 6

    free_swap = optimize_mdc(battery, econ, series, swap, grid, reserve_enabled=True)
    abu_with = free_swap.lb_at_star / total_budget(battery)
    abu_without = without.lb_at_star / total_budget(battery)
    assert abs(abu_with - 37.0) <= 1.0
    assert abs(abu_without - 36.0) <= 1.0

    rows = sweep_swap_price(battery, econ, series, [80.0, 160.0], 2.7, grid,
                            reserve_enabled=True)
    assert rows[0]["mu_star"] <= rows[1]["mu_star"]
    _verdict(9, True, "published headline numbers reproduced on supplied data")


def test_criterion_10_deterministic_reports(tmp_path):
    """Two optimize-mdc runs with identical config and seed produce
    byte-identical report files."""
    config = config_to_dict(paper_defaults())
    config["battery"]["cycle_life"] = 40.0
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    args = ["optimize-mdc", "--config", str(config_path),
            "--synth", "daily-sine:40:30", "--days", "10", "--seed", "11",
            "--mdc-grid", "0:30:15", "--no-reserve"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ["mdc_sweep.csv", "mdc_sweep.json", "config.json"])
    _verdict(10, identical, "repeat run reproduced byte-identical reports")
