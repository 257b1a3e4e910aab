"""Shared random-instance generators for the property and acceptance tests.

Instances are drawn from families sized so the enumeration oracle stays
inside a candidate-count budget: longer horizons drop the swap channel, and
capacity is widened where needed so provably-slack SOC-ceiling rows fall
away in the state-eliminated form.
"""

from __future__ import annotations

import numpy as np

from swapval.lp import LinearProgram
from swapval.market_data import synth_price_series
from swapval.scheduler import NO_SWAP, BatterySpec, SwapTerms

from _reference import DayInput, build_compact_lp, oracle_cost

ORACLE_BUDGET = 8_000_000


def random_lp(rng: np.random.Generator, max_vars: int = 8,
              max_rows: int = 10) -> LinearProgram:
    """Feasible, bounded random LP: row bounds are anchored to an interior point."""
    n = int(rng.integers(1, max_vars + 1))
    m = int(rng.integers(0, max_rows + 1))
    c = rng.normal(size=n) * 10.0
    lo = rng.uniform(-5.0, 0.0, size=n)
    hi = lo + rng.uniform(0.1, 10.0, size=n)
    A = rng.normal(size=(m, n))
    x0 = rng.uniform(lo, hi)
    row_lower, row_upper = [], []
    n_eq = 0
    for i in range(m):
        rel = str(rng.choice(["<=", "==", ">="]))
        if rel == "==" and n_eq >= n - 1:
            rel = "<="
        if rel == "==":
            n_eq += 1
        value = float(A[i] @ x0)
        slack = float(rng.uniform(0.0, 3.0))
        if rel == "<=":
            row_lower.append(-np.inf)
            row_upper.append(value + slack)
        elif rel == ">=":
            row_lower.append(value - slack)
            row_upper.append(np.inf)
        else:
            row_lower.append(value)
            row_upper.append(value)
    return LinearProgram(c, lo, hi, A, row_lower, row_upper)


def random_day(rng: np.random.Generator, hours: int, with_swap: bool,
               with_reserve: bool = False, roomy_capacity: bool = False,
               mu_max: float = 100.0) -> DayInput:
    """Random DayInput per the acceptance ranges: lmp in [-20, 100], mu in [0, mu_max]."""
    eta = float(rng.uniform(0.8, 1.0))
    rho = float(rng.choice([0.0, rng.uniform(0.0, 0.05)], p=[0.7, 0.3]))
    power = float(rng.uniform(0.5, 3.0))
    if roomy_capacity:
        capacity = hours * eta * power * float(rng.uniform(1.05, 1.5))
    else:
        capacity = float(rng.uniform(0.8, 2.5)) * power
    soc_start = float(rng.uniform(0.0, 0.8)) * capacity
    if roomy_capacity:
        capacity = max(capacity, soc_start + hours * eta * power * 1.01)
    battery = BatterySpec(
        energy_capacity_0=max(capacity, 1e-6), power_limit=power, efficiency=eta,
        self_discharge=rho)
    if with_swap:
        swap = SwapTerms(
            swap_price=float(rng.uniform(0.0, 200.0)),
            daily_swap_cap=float(rng.uniform(0.1, 1.5)) * capacity,
            labor_cost=float(rng.uniform(0.0, 20.0)))
    else:
        swap = NO_SWAP
    lmp = rng.uniform(-20.0, 100.0, size=24)
    reserve = rng.uniform(0.0, 15.0, size=24) if with_reserve else np.zeros(24)
    return DayInput(
        battery=battery, lmp=lmp, reserve_price=reserve,
        amdc=float(rng.uniform(0.0, mu_max)), swap=swap,
        soc_start=soc_start, capacity_now=capacity,
        calendar_throughput_today=float(rng.uniform(0.0, 2.0)),
        reserve_enabled=with_reserve)


# (hours, with_swap, with_reserve, roomy_capacity) per family; weights chosen
# so a 200-instance draw stays well under a minute of oracle time.
DAY_FAMILIES = [
    (4, False, False, False),
    (4, False, False, True),
    (4, True, False, True),
    (5, False, False, False),
    (5, False, False, True),
    (6, False, False, True),
    (2, True, True, False),
]
DAY_FAMILY_WEIGHTS = [0.26, 0.14, 0.22, 0.10, 0.08, 0.10, 0.10]


def random_oracle_day(rng: np.random.Generator, index: int) -> tuple[DayInput, int]:
    """Draw (day, hours) from the family mix, re-rolling capacity until the
    compact form fits the oracle budget."""
    fam = rng.choice(len(DAY_FAMILIES), p=DAY_FAMILY_WEIGHTS)
    hours, with_swap, with_reserve, roomy = DAY_FAMILIES[fam]
    for attempt in range(6):
        day = random_day(rng, hours, with_swap, with_reserve,
                         roomy_capacity=roomy or attempt > 1)
        lp = build_compact_lp(day, hours)
        if oracle_cost(lp) <= ORACLE_BUDGET:
            return day, hours
    # Final fallback: a small always-cheap configuration.
    return random_day(rng, 4, False, False, roomy_capacity=True), 4


def reference_battery() -> BatterySpec:
    return BatterySpec(energy_capacity_0=2.7, power_limit=2.7, efficiency=0.95,
                       self_discharge=0.0, cycle_life=2000.0,
                       eol_capacity_fraction=0.8, calendar_fade_per_year=0.01)


def small_battery(cycles: float = 30.0) -> BatterySpec:
    """Short-lived battery so lifecycle sweeps stay fast in unit tests."""
    return BatterySpec(energy_capacity_0=2.7, power_limit=2.7, efficiency=0.95,
                       self_discharge=0.0, cycle_life=cycles,
                       eol_capacity_fraction=0.8, calendar_fade_per_year=0.01)


def two_level_year(days: int = 7) -> "HourlyPriceSeries":
    return synth_price_series("two-level", days=days, low=10.0, high=90.0, split_hour=12)
