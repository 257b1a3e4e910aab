"""Outer searches: optimal MDC, swap-price sweeps, and curve-based pricing.

Each search is a grid of (swap policy, mu) points, one lifecycle each.  One
runner executes an optimizer call's whole grid on a single process pool
(SWAPVAL_THREADS workers, clamped to the number of distinct points): each
distinct point runs once, lowest mu first, and the results are collected
back in grid order for deterministic output, keeping each policy's argmax
lifecycle.  Plain exhaustive search: the life-cycle objective is not known
to be unimodal in the degradation cost, so no bracketing descent is used.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from swapval.lifecycle import EconomicParams, LifecycleResult, simulate_lifecycle
from swapval.market_data import HourlyPriceSeries
from swapval.scheduler import BatterySpec, SwapTerms, check_numbers


# Most points one grid may hold: each is a whole lifecycle.
MAX_GRID_POINTS = 10_000


class SweepError(RuntimeError):
    """A grid point's simulation failed; the message names the point."""


@dataclass(frozen=True)
class DemandPriceCurve:
    """Linear daily demand-price relation: price = slope * demand + intercept."""

    slope: float  # $/MWh per MWh/day, < 0
    intercept: float  # $/MWh at zero demand, > 0

    def __post_init__(self):
        check_numbers(self)
        if self.slope >= 0:
            raise ValueError(f"slope must be negative, got {self.slope}")
        if self.intercept <= 0:
            raise ValueError(f"intercept must be positive, got {self.intercept}")


@dataclass
class MdcSweepResult:
    """Grid of lifecycle outcomes over candidate MDC values."""

    grid: list[dict]  # mu, lb_star, abu, days_lived, arbitrage_revenue, reserve_revenue
    mu_star: float
    lb_at_star: float
    best: LifecycleResult  # the mu_star lifecycle


@dataclass
class CurvePriceResult:
    """Best swap price under one demand-price curve."""

    price_star: float
    demand_star: float
    mu_star: float
    lb_star: float
    rows: list[dict]  # one per candidate price


def _worker_count(n_tasks: int) -> int:
    """SWAPVAL_THREADS (default: the CPUs this process may run on) clamped to n_tasks."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    env = os.environ.get("SWAPVAL_THREADS", "").strip() or str(cpus or 1)
    if not env.isdecimal() or int(env) < 1:
        raise ValueError(f"SWAPVAL_THREADS must be an integer >= 1, got {env!r}")
    return min(int(env), n_tasks)


def _simulate_point(args) -> LifecycleResult:
    spec, econ, prices, mu, swap, reserve_enabled = args
    return simulate_lifecycle(spec, econ, prices, mu, swap_policy=swap,
                              reserve_enabled=reserve_enabled, keep_daily_log=False)


def _validate_grid(grid, name: str) -> list[float]:
    values = [float(g) for g in grid]
    if not values:
        raise ValueError(f"{name} grid must be non-empty")
    if len(values) > MAX_GRID_POINTS:
        raise ValueError(f"{name} grid has more than {MAX_GRID_POINTS} points")
    if not all(math.isfinite(v) and v >= 0 for v in values):
        raise ValueError(f"{name} grid values must be finite and >= 0")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{name} grid must be strictly increasing")
    return values


def _run_grid(spec, econ, prices, policies, mu_values,
              reserve_enabled) -> list[MdcSweepResult]:
    """Simulate every (policy, mu) point and return one sweep per policy.

    Each distinct point (equal swap terms and mu) runs once, in ascending mu:
    a low MDC works the battery hardest, so the longest lifecycles start
    first.  They run on one pool, or serially with one worker; the first
    failure in that order cancels the pending points and raises a SweepError.
    """
    points = [(swap, mu) for swap in policies for mu in mu_values]
    distinct = sorted(dict.fromkeys(points), key=lambda point: point[1])
    args = [(spec, econ, prices, mu, swap, reserve_enabled) for swap, mu in distinct]
    workers = _worker_count(len(args))
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        pending = [pool.submit(_simulate_point, a) for a in args] if pool else args
        done = {}
        for (swap, mu), item in zip(distinct, pending):
            try:
                done[swap, mu] = item.result() if pool else _simulate_point(item)
            except Exception as exc:
                where = "no swap" if swap is None else (
                    f"swap price={swap.swap_price}, cap={swap.daily_swap_cap}")
                raise SweepError(f"simulation failed at {where}, mu={mu}: {exc}") from exc
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    results = [done[point] for point in points]
    n = len(mu_values)
    return [_sweep_from_results(mu_values, results[i:i + n])
            for i in range(0, len(results), n)]


def _sweep_from_results(mu_values, results) -> MdcSweepResult:
    rows = [{
        "mu": mu,
        "lb_star": res.lb_star,
        "abu": res.abu,
        "days_lived": res.days_lived,
        "arbitrage_revenue": res.lb_star - res.discounted_reserve_revenue,
        "reserve_revenue": res.discounted_reserve_revenue,
    } for mu, res in zip(mu_values, results)]
    best = max(range(len(rows)), key=lambda i: (rows[i]["lb_star"], -rows[i]["mu"]))
    return MdcSweepResult(grid=rows, mu_star=rows[best]["mu"],
                          lb_at_star=rows[best]["lb_star"], best=results[best])


def optimize_mdc(spec: BatterySpec, econ: EconomicParams, prices: HourlyPriceSeries,
                 swap_policy: SwapTerms | None, grid,
                 reserve_enabled: bool = True) -> MdcSweepResult:
    """Sweep candidate MDC values and return the grid argmax.

    One full lifecycle per grid point; ties break toward the smaller mu.
    """
    return optimize_mdc_each(spec, econ, prices, [swap_policy], grid, reserve_enabled)[0]


def optimize_mdc_each(spec: BatterySpec, econ: EconomicParams, prices: HourlyPriceSeries,
                      swap_policies: list[SwapTerms | None], grid,
                      reserve_enabled: bool = True) -> list[MdcSweepResult]:
    """``optimize_mdc`` for each swap policy, all of them on one grid run."""
    return _run_grid(spec, econ, prices, swap_policies, _validate_grid(grid, "mdc"),
                     reserve_enabled)


def _refine_spacing(mu_values: list[float], step: float) -> float:
    """The coarse grid's largest spacing, after checking that step refines it."""
    if len(mu_values) < 2:
        raise ValueError("coarse sweep needs at least two grid points to refine")
    spacing = max(b - a for a, b in zip(mu_values, mu_values[1:]))
    if not 0 < step < spacing:
        raise ValueError(f"step must be in (0, coarse spacing {spacing}), got {step}")
    if 2.0 * spacing / step >= MAX_GRID_POINTS:
        raise ValueError(f"step {step} refines to more than {MAX_GRID_POINTS} points")
    return spacing


def refine_mdc(coarse: MdcSweepResult, spec: BatterySpec, econ: EconomicParams,
               prices: HourlyPriceSeries, swap_policy: SwapTerms | None,
               step: float, reserve_enabled: bool = True) -> MdcSweepResult:
    """Re-sweep a one-spacing bracket around the coarse argmax at finer step.

    The bracket is clamped at zero and at the coarse grid maximum; nothing
    outside it is assumed about the objective's shape.
    """
    mu_values = [row["mu"] for row in coarse.grid]
    spacing = _refine_spacing(mu_values, step)
    lo = max(0.0, coarse.mu_star - spacing)
    hi = min(mu_values[-1], coarse.mu_star + spacing)
    fine = np.arange(lo, hi + step / 2, step)
    fine = np.unique(np.concatenate([fine, [coarse.mu_star, hi]]))
    return _run_grid(spec, econ, prices, [swap_policy], fine.tolist(), reserve_enabled)[0]


def _sweep_prices(spec, econ, prices, caps, price_grid, mdc_grid, labor_cost,
                  reserve_enabled):
    """(policy, MDC sweep) per swap price for each cap rule, on one grid run.

    Each rule maps a swap price to its daily cap; returns one list of pairs
    per rule, in price order.
    """
    price_grid = _validate_grid(price_grid, "price")
    policies = [SwapTerms(swap_price=p, daily_swap_cap=cap_at(p), labor_cost=labor_cost)
                for cap_at in caps for p in price_grid]
    sweeps = _run_grid(spec, econ, prices, policies, _validate_grid(mdc_grid, "mdc"),
                       reserve_enabled)
    n = len(price_grid)
    return [list(zip(policies[i:i + n], sweeps[i:i + n])) for i in range(0, len(policies), n)]


def sweep_swap_price(spec: BatterySpec, econ: EconomicParams, prices: HourlyPriceSeries,
                     price_grid, fixed_daily_cap: float, mdc_grid,
                     labor_cost: float = 10.0,
                     reserve_enabled: bool = True) -> list[dict]:
    """Re-optimize the MDC at each candidate swap price.

    Returns one row per price: {swap_price, mu_star, lb_star, abu, days_lived},
    where abu and days_lived are those of the mu_star run.
    """
    return [{
        "swap_price": swap.swap_price,
        "mu_star": sweep.mu_star,
        "lb_star": sweep.lb_at_star,
        "abu": sweep.best.abu,
        "days_lived": sweep.best.days_lived,
    } for swap, sweep in _sweep_prices(spec, econ, prices, [lambda price: fixed_daily_cap],
                                       price_grid, mdc_grid, labor_cost, reserve_enabled)[0]]


def demand_at_price(curve: DemandPriceCurve, price: float) -> float:
    """Daily swap demand the market absorbs at a price; zero at/above the
    extinction price (the curve's intercept)."""
    if price < 0:
        raise ValueError(f"price must be >= 0, got {price}")
    return max(0.0, (price - curve.intercept) / curve.slope)


def optimize_price_for_curve(spec: BatterySpec, econ: EconomicParams,
                             prices: HourlyPriceSeries, curve: DemandPriceCurve,
                             price_grid, mdc_grid, labor_cost: float = 10.0,
                             reserve_enabled: bool = True) -> CurvePriceResult:
    """Pick the swap price maximizing life-cycle value under a demand curve.

    Each candidate price fixes the daily swap cap at the curve's demand and
    re-optimizes the MDC.  Ties break toward the lower price.
    """
    return optimize_price_for_curves(spec, econ, prices, [curve], price_grid, mdc_grid,
                                     labor_cost, reserve_enabled)[0]


def optimize_price_for_curves(spec: BatterySpec, econ: EconomicParams,
                              prices: HourlyPriceSeries, curves: list[DemandPriceCurve],
                              price_grid, mdc_grid, labor_cost: float = 10.0,
                              reserve_enabled: bool = True) -> list[CurvePriceResult]:
    """``optimize_price_for_curve`` for each curve, all of them on one grid run."""
    results = []
    for pairs in _sweep_prices(spec, econ, prices,
                               [functools.partial(demand_at_price, curve) for curve in curves],
                               price_grid, mdc_grid, labor_cost, reserve_enabled):
        rows = [{
            "swap_price": swap.swap_price,
            "demand": swap.daily_swap_cap,
            "mu_star": sweep.mu_star,
            "lb_star": sweep.lb_at_star,
        } for swap, sweep in pairs]
        top = max(rows, key=lambda row: (row["lb_star"], -row["swap_price"]))
        results.append(CurvePriceResult(price_star=top["swap_price"],
                                        demand_star=top["demand"], mu_star=top["mu_star"],
                                        lb_star=top["lb_star"], rows=rows))
    return results
