"""Daily dispatch: build and solve the 24-hour scheduling LP.

One day couples four channels on a shared state of charge: grid charging,
grid discharging, battery swapping (energy handed to EV customers), and a
non-spinning reserve offer.  The objective prices energy at the hourly LMP,
swapped energy at the swap price net of labor, reserve capacity at the
reserve price, and every MWh moved through the battery at the adjusted
marginal degradation cost ``amdc``.  A daily calendar-throughput charge
``amdc * calendar_throughput_today`` applies regardless of activity; it is
a constant, so it is added when profits are reported rather than carried in
the LP.

A tiny penalty on throughput breaks ties among optimal schedules in favor
of the least-degrading one (e.g. no simultaneous charge+discharge unless
negative prices genuinely pay for it); the penalty is removed from all
reported profit figures.

A day is solved by ``solve_day`` in a ``DailyModel``, the lifecycle's day
kernel: its first day builds the 24-hour LP (``build_daily_lp``), solves
it in HiGHS and holds its optimal basis, and each next day is written into
it and proven optimal from the held basis, continued from it by a few dual
simplex pivots, or solved by HiGHS from cold; stretches of days are
certified in blocks (``certify_days``).  A solved day is its point, which
``money_rows`` costs together with the year's other days.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from swapval.lp import DimensionError, HighsModel, LinearProgram, solve_lp
from swapval.market_data import HourlyPriceSeries

TIE_BREAK_EPS = 1e-7

# The daily LP spans 24 hours; its swap and SOC columns are bounded by the
# derated capacity.
_H = 24
_SWAP_AND_SOC = slice(2 * _H, 4 * _H)
_SOC_END = 4 * _H - 1


def check_numbers(obj) -> None:
    """Raise ValueError naming the first field of ``obj`` that is not a
    finite number.  A bool (JSON's true or false) is not one."""
    for name, value in vars(obj).items():
        if isinstance(value, bool) or not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


class ScheduleError(RuntimeError):
    """Internal scheduling failure: an infeasible daily LP or a corrupted
    schedule.  The all-zero schedule is always feasible, so these indicate
    modeling bugs rather than bad market data."""


@dataclass(frozen=True)
class BatterySpec:
    """Physical battery parameters."""

    energy_capacity_0: float  # MWh at start of life
    power_limit: float  # MWh per hour, charge and discharge each
    efficiency: float  # one-way charge/discharge efficiency in (0, 1]
    self_discharge: float = 0.0  # hourly fraction in [0, 1)
    cycle_life: float = 2000.0  # full cycles at 100% DOD until EOL capacity
    eol_capacity_fraction: float = 0.8
    calendar_fade_per_year: float = 0.01  # fraction of initial capacity

    def __post_init__(self):
        check_numbers(self)
        if not 0 < self.efficiency <= 1:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if not 0 <= self.self_discharge < 1:
            raise ValueError(f"self_discharge must be in [0, 1), got {self.self_discharge}")
        if not 0 < self.eol_capacity_fraction < 1:
            raise ValueError(
                f"eol_capacity_fraction must be in (0, 1), got {self.eol_capacity_fraction}")
        if self.cycle_life <= 0:
            raise ValueError(f"cycle_life must be positive, got {self.cycle_life}")
        if self.energy_capacity_0 <= 0 or self.power_limit <= 0:
            raise ValueError("energy_capacity_0 and power_limit must be positive")
        if self.calendar_fade_per_year < 0:
            raise ValueError(f"calendar fade must be >= 0, got {self.calendar_fade_per_year}")


@dataclass(frozen=True)
class SwapTerms:
    """Swap pricing: $/MWh paid by EV customers, daily demand cap, labor."""

    swap_price: float  # $/MWh delivered
    daily_swap_cap: float  # MWh/day the market will absorb
    labor_cost: float = 10.0  # $/MWh delivered

    def __post_init__(self):
        check_numbers(self)
        if self.swap_price < 0:
            raise ValueError(f"swap_price must be >= 0, got {self.swap_price}")
        if self.daily_swap_cap < 0:
            raise ValueError(f"daily_swap_cap must be >= 0, got {self.daily_swap_cap}")
        if self.labor_cost < 0:
            raise ValueError(f"labor_cost must be >= 0, got {self.labor_cost}")


NO_SWAP = SwapTerms(swap_price=0.0, daily_swap_cap=0.0, labor_cost=0.0)


def _costs(lmp: np.ndarray, reserve_price: np.ndarray, amdc: float, swap: SwapTerms,
           reserve_enabled: bool) -> np.ndarray:
    """Daily LP column costs (charge, discharge, swap, SOC, reserve) per day."""
    days, H = lmp.shape
    cost = np.zeros((days, (5 if reserve_enabled else 4) * H))
    np.negative(lmp, out=cost[:, :H])
    cost[:, H:2 * H] = lmp
    cost[:, :2 * H] -= amdc
    cost[:, :2 * H] -= TIE_BREAK_EPS
    cost[:, 2 * H:3 * H] = swap.swap_price - swap.labor_cost - amdc - TIE_BREAK_EPS
    if reserve_enabled:
        cost[:, 4 * H:] = reserve_price
    return cost


def build_daily_lp(model: DailyModel, pattern: int, soc_start: float,
                   capacity_now: float) -> LinearProgram:
    """Assemble the model's scheduling LP for pattern day ``pattern``, from
    ``soc_start`` MWh at usable capacity ``capacity_now``.

    Variable order: charge[0..H), discharge[0..H), swap[0..H), soc[0..H),
    and reserve[0..H) when reserve is enabled, over the day's H = 24 hours.
    Row order: the SOC recursion as H equality rows, the swap demand as one
    cap row, then, with reserve, H headroom and H stored-energy coupling
    rows.  The costs are the pattern day's row of ``model.costs``; the daily
    calendar charge is a constant and is excluded here (see module
    docstring).
    """
    b = model.battery
    eta, keep, H = b.efficiency, model.keep, _H
    res = model.reserve_enabled
    n, m = model.width, (3 if res else 1) * H + 1
    i_cha, i_dis, i_swp, i_soc, i_res = 0, H, 2 * H, 3 * H, 4 * H

    upper = np.empty(n)
    upper[i_cha:i_swp] = b.power_limit
    upper[i_swp:i_res] = capacity_now
    upper[i_res:] = b.power_limit

    h = np.arange(H)
    A = np.zeros((m, n))
    # The SOC rows are equalities; every other row's lower bound is the
    # least its activity can reach in the column boxes: 0 for the cap and
    # headroom rows, and for a coupling row -eta times the full size, which
    # no capacity fade moves.
    row_lower = np.zeros(m)
    row_upper = np.zeros(m)
    # soc[h] - keep soc[h-1] - eta charge[h] + (discharge[h] + swap[h]) / eta
    # equals keep * soc_start in hour 0 and 0 after.
    A[h, i_soc + h] = 1.0
    A[h[1:], i_soc + h[:-1]] = -keep
    A[h, i_cha + h] = -eta
    A[h, i_dis + h] = A[h, i_swp + h] = 1.0 / eta
    row_lower[0] = row_upper[0] = keep * soc_start
    A[H, i_swp:i_soc] = 1.0
    row_upper[H] = model.swap.daily_swap_cap
    if res:
        headroom, coupling = H + 1 + h, 2 * H + 1 + h
        A[headroom, i_res + h] = A[headroom, i_dis + h] = 1.0
        row_upper[headroom] = b.power_limit
        A[coupling, i_res + h] = 1.0
        A[coupling, i_soc + h] = -eta
        row_lower[coupling] = -eta * b.energy_capacity_0

    return LinearProgram(objective=model.costs[pattern], lower=np.zeros(n), upper=upper,
                         A=A, row_lower=row_lower, row_upper=row_upper)


class DailyModel:
    """A lifecycle's day kernel, built from what stays fixed through the life.

    ``price`` costs each pattern day at a year's adjusted MDC, one row of
    ``costs`` each.  ``solve_day`` holds the daily LP and its basis
    (``held``).
    """

    def __init__(self, battery: BatterySpec, prices: HourlyPriceSeries, swap: SwapTerms,
                 reserve_enabled: bool, calendar_throughput: float):
        self.battery, self.swap, self.reserve_enabled = battery, swap, reserve_enabled
        self.calendar_throughput = calendar_throughput
        self.lmp = prices.lmp.reshape(-1, _H)
        self.reserve_price = prices.reserve_price.reshape(-1, _H)
        self.keep = 1.0 - battery.self_discharge
        self.width = (5 if reserve_enabled else 4) * _H  # the daily LP's columns
        self.amdc = self.costs = self.held = None  # set by price and solve_day

    def price(self, amdc: float) -> None:
        """Cost every pattern day at adjusted MDC ``amdc``."""
        costs = _costs(self.lmp, self.reserve_price, amdc, self.swap, self.reserve_enabled)
        if not np.isfinite(costs).all():
            raise DimensionError("non-finite coefficient in program")
        self.amdc, self.costs = amdc, costs


# Most dual simplex pivots a declined day may take from the held basis
# before HiGHS solves it (README, "Continuation").
_PIVOTS = 16


def solve_day(model: DailyModel, day: int, soc_start: float,
              capacity_now: float) -> tuple[np.ndarray, int | None]:
    """Solve ``day`` of the model's life from ``soc_start`` MWh at usable
    capacity ``capacity_now``: its point (``build_daily_lp``'s columns) and
    the dual simplex pivots that settled it from the held basis (0 when
    certified), or None if HiGHS solved it.

    The first day builds the program; a later one writes its pattern day's
    costs, ``capacity_now`` (the swap and SOC columns' bound) and the carried
    SOC (SOC row 0) into it.  ``HighsModel.certify`` proves the day from the
    held basis or continues from it by up to ``_PIVOTS`` dual simplex
    pivots; every row of the program is boxed, so it can start from any
    held basis.  HiGHS runs (``solve_lp``, from cold) on the first day, which
    has no basis yet, and on a day ``certify`` declines.  The point is
    re-checked at the program's largest bound.  Raises ScheduleError if the
    LP is anything but optimal: a bug, as zero is always feasible.
    """
    if not capacity_now > 0:
        raise ValueError(f"capacity_now must be positive, got {capacity_now}")
    if not 0 <= soc_start <= capacity_now + 1e-9:
        raise ValueError(f"soc_start {soc_start} outside [0, capacity {capacity_now}]")
    pattern = day % len(model.lmp)
    held = model.held
    if held is None:
        held = model.held = HighsModel(
            build_daily_lp(model, pattern, soc_start, capacity_now), _SWAP_AND_SOC, 0)
    else:
        held.set_day(model.costs[pattern], capacity_now, model.keep * soc_start)
    found = held.certify(_PIVOTS)
    sol, pivots = (solve_lp(held), None) if found is None else found
    if sol.status != "optimal":
        raise ScheduleError(
            f"daily LP reported {sol.status!r}; the all-zero schedule is always "
            f"feasible, so this is a modeling bug")
    return sol.x, pivots


def money_rows(model: DailyModel, first_day: int, points: np.ndarray,
               throughput: np.ndarray) -> np.ndarray:
    """The sb_star, energy, swap and reserve revenue, labor and degradation
    cost rows of the days from ``first_day`` on, at their ``points`` and
    ``throughput`` (a row and a value per day) and the model's adjusted MDC.
    Products and sums per day: no BLAS kernel moves their last digits."""
    patterns = (first_day + np.arange(len(points))) % len(model.lmp)
    swapped = points[:, 2 * _H:3 * _H].sum(axis=1)
    rows = np.empty((6, len(points)))
    rows[1] = (model.lmp[patterns] * (points[:, _H:2 * _H] - points[:, :_H])).sum(axis=1)
    rows[2] = model.swap.swap_price * swapped
    rows[3] = (model.reserve_price[patterns] * points[:, 4 * _H:]).sum(axis=1) \
        if model.reserve_enabled else 0.0
    rows[4] = model.swap.labor_cost * swapped
    rows[5] = model.amdc * throughput
    rows[0] = rows[1] + rows[2] + rows[3] - rows[4] - rows[5]
    return rows


def certify_days(model: DailyModel, day: int, count: int) -> tuple | None:
    """The lead days of ``day`` to ``day + count - 1``, at the year's costs,
    that pass the held basis's dual test: their nonbasic bounds, and their
    end SOC and MWh charged, discharged and swapped, each affine in the
    day's capacity and carried SOC (``keep * soc_start``) as
    ``HighsModel.certify_stretch`` gives them; None if the first day fails."""
    patterns = (day + np.arange(count)) % len(model.lmp)
    carried = np.zeros((2, model.width))
    carried[0, _SOC_END] = carried[1, :3 * _H] = 1.0
    return model.held.certify_stretch(model.costs[patterns], carried)
