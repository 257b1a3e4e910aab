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

A day is solved in a ``DailyModel``, the day's LP held in HiGHS: a
lifecycle keeps one and re-solves each next day from the previous basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from swapval.lp import HighsModel, LinearProgram, solve_lp

TIE_BREAK_EPS = 1e-7

# The daily LP spans 24 hours; its swap and SOC columns are bounded by the
# derated capacity.
_H = 24
_SWAP_AND_SOC = slice(2 * _H, 4 * _H)
# Feasibility tolerance of every daily solve, certified or not.
_TOL = 1e-9


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
        for name in ("energy_capacity_0", "power_limit", "cycle_life", "calendar_fade_per_year"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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
        for name in ("swap_price", "daily_swap_cap", "labor_cost"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.swap_price < 0:
            raise ValueError(f"swap_price must be >= 0, got {self.swap_price}")
        if self.daily_swap_cap < 0:
            raise ValueError(f"daily_swap_cap must be >= 0, got {self.daily_swap_cap}")
        if self.labor_cost < 0:
            raise ValueError(f"labor_cost must be >= 0, got {self.labor_cost}")


NO_SWAP = SwapTerms(swap_price=0.0, daily_swap_cap=0.0, labor_cost=0.0)


@dataclass
class DayInput:
    """Everything the daily LP needs for one day."""

    battery: BatterySpec
    lmp: np.ndarray  # 24 hourly energy prices, $/MWh (may be negative)
    reserve_price: np.ndarray  # 24 hourly reserve prices, $/MW-h, >= 0
    amdc: float  # adjusted marginal degradation cost, $/MWh-throughput
    swap: SwapTerms
    soc_start: float  # MWh stored at hour 0
    capacity_now: float  # SOH-derated usable capacity, MWh
    calendar_throughput_today: float = 0.0  # MWh-throughput charged daily
    reserve_enabled: bool = True

    def __post_init__(self):
        self.lmp = np.asarray(self.lmp, dtype=float)
        self.reserve_price = np.asarray(self.reserve_price, dtype=float)
        if self.lmp.shape != (24,) or self.reserve_price.shape != (24,):
            raise ValueError("lmp and reserve_price must each hold 24 hourly values")
        if (self.reserve_price < 0).any():
            raise ValueError("reserve prices must be >= 0")
        if self.amdc < 0:
            raise ValueError(f"amdc must be >= 0, got {self.amdc}")
        if self.calendar_throughput_today < 0:
            raise ValueError("calendar_throughput_today must be >= 0")
        if self.capacity_now <= 0:
            raise ValueError(f"capacity_now must be positive, got {self.capacity_now}")
        if not 0 <= self.soc_start <= self.capacity_now + 1e-9:
            raise ValueError(
                f"soc_start {self.soc_start} outside [0, capacity {self.capacity_now}]")


@dataclass
class DailySchedule:
    """Solved day: hourly quantities, SOC path, and profit decomposition."""

    charge: np.ndarray
    discharge: np.ndarray
    swap_out: np.ndarray
    reserve_offer: np.ndarray
    soc: np.ndarray  # end-of-hour stored energy
    market_revenue: float  # energy + swap + reserve income
    swap_labor_cost: float
    degradation_cost: float  # amdc * (throughput incl. calendar)
    sb_star: float  # market_revenue - swap_labor_cost - degradation_cost
    throughput_today: float  # charge + discharge + swap + calendar, MWh
    energy_revenue: float = 0.0
    swap_revenue: float = 0.0
    reserve_revenue: float = 0.0
    lp_objective: float = 0.0  # raw LP optimum (tie-break included, no calendar)


def _objective(day: DayInput, hours: int, out: np.ndarray | None = None) -> np.ndarray:
    """The day's column costs: charge, discharge, swap, SOC (0) and reserve.

    Written into ``out`` when given, whose SOC block must already hold zeros.
    """
    H, mu = hours, day.amdc
    cost = np.zeros((5 if day.reserve_enabled else 4) * H) if out is None else out
    np.negative(day.lmp[:H], out=cost[:H])
    cost[H:2 * H] = day.lmp[:H]
    cost[:2 * H] -= mu
    cost[:2 * H] -= TIE_BREAK_EPS
    cost[2 * H:3 * H] = day.swap.swap_price - day.swap.labor_cost - mu - TIE_BREAK_EPS
    if day.reserve_enabled:
        cost[4 * H:] = day.reserve_price[:H]
    return cost


def build_daily_lp(day: DayInput, hours: int = 24) -> LinearProgram:
    """Assemble the scheduling LP for the first ``hours`` hours of a day.

    Variable order: charge[0..H), discharge[0..H), swap[0..H), soc[0..H),
    and reserve[0..H) when reserve is enabled.  Row order: the SOC recursion
    as H equality rows, the swap demand as one cap row, then, with reserve,
    H headroom and H stored-energy coupling rows.  The daily calendar charge
    is a constant and is excluded here (see module docstring).
    """
    if not 1 <= hours <= 24:
        raise ValueError(f"hours must be in [1, 24], got {hours}")
    b = day.battery
    eta, keep = b.efficiency, 1.0 - b.self_discharge
    H = hours
    res = day.reserve_enabled
    n, m = (5 if res else 4) * H, (3 if res else 1) * H + 1
    i_cha, i_dis, i_swp, i_soc, i_res = 0, H, 2 * H, 3 * H, 4 * H

    upper = np.empty(n)
    upper[i_cha:i_swp] = b.power_limit
    upper[i_swp:i_res] = day.capacity_now
    upper[i_res:] = b.power_limit

    h = np.arange(H)
    A = np.zeros((m, n))
    row_lower = np.full(m, -np.inf)
    row_upper = np.zeros(m)
    # soc[h] - keep soc[h-1] - eta charge[h] + (discharge[h] + swap[h]) / eta
    # equals keep * soc_start in hour 0 and 0 after.
    A[h, i_soc + h] = 1.0
    A[h[1:], i_soc + h[:-1]] = -keep
    A[h, i_cha + h] = -eta
    A[h, i_dis + h] = A[h, i_swp + h] = 1.0 / eta
    row_lower[:H] = 0.0
    row_lower[0] = row_upper[0] = keep * day.soc_start
    A[H, i_swp:i_soc] = 1.0
    row_upper[H] = day.swap.daily_swap_cap
    if res:
        headroom, coupling = H + 1 + h, 2 * H + 1 + h
        A[headroom, i_res + h] = A[headroom, i_dis + h] = 1.0
        row_upper[headroom] = b.power_limit
        A[coupling, i_res + h] = 1.0
        A[coupling, i_soc + h] = -eta

    return LinearProgram(objective=_objective(day, H), lower=np.zeros(n), upper=upper,
                         A=A, row_lower=row_lower, row_upper=row_upper)


class DailyModel:
    """One lifecycle's daily LP, held in HiGHS and re-solved day by day.

    The first day builds the program with ``build_daily_lp``.  Later days
    change only what varies within a lifecycle: the column costs (LMP,
    adjusted MDC, reserve price), the derated capacity bounding the swap
    and SOC columns, and the carried SOC in SOC row 0.  ``solve_day`` then
    offers the day to the held model's basis certificate; HiGHS sees the
    changes, and starts from the previous basis, only on the days the
    certificate declines.  The battery, swap terms and reserve switch must
    stay those of the first day.
    """

    def __init__(self) -> None:
        self.model: HighsModel | None = None
        self._fixed: tuple | None = None

    def load(self, day: DayInput) -> HighsModel:
        """Make the held program equal ``build_daily_lp(day)``."""
        fixed = (day.battery, day.swap, day.reserve_enabled)
        if self.model is None:
            self.model = HighsModel(build_daily_lp(day))
            self._fixed = fixed
            self._cost = self.model.lp.objective.copy()
        elif fixed != self._fixed:
            raise ValueError("a DailyModel serves one battery, swap policy and reserve setting")
        else:
            self.model.set_objective(_objective(day, _H, out=self._cost))
            self.model.set_upper(_SWAP_AND_SOC, day.capacity_now)
            soc0 = (1.0 - day.battery.self_discharge) * day.soc_start
            self.model.set_row_bounds(0, soc0, soc0)
        return self.model


def solve_day(day: DayInput, *, model: DailyModel | None = None) -> DailySchedule:
    """Solve one day and return the schedule with its profit decomposition.

    With ``model`` the day is solved in that persistent program, warm from
    its previous solve; without, in a fresh ``DailyModel``.  When the basis
    of the held program's last HiGHS run still proves the day optimal
    (``HighsModel.certify``), the day takes that optimum and HiGHS does not
    run; every other day is solved by ``solve_lp``.  Either way the point
    passes the same feasibility re-check.  Raises ScheduleError if the LP is
    anything but optimal: the all-zero schedule is always feasible, so a
    non-optimal verdict means an internal bug.
    """
    daily = DailyModel() if model is None else model
    held = daily.load(day)
    sol = held.certify(_TOL)
    if sol is None:
        sol = solve_lp(held.lp, _TOL, model=held)
    if sol.status != "optimal":
        raise ScheduleError(
            f"daily LP reported {sol.status!r}; the all-zero schedule is always "
            f"feasible, so this is a modeling bug")
    x = sol.x
    charge = x[0:_H]
    discharge = x[_H : 2 * _H]
    swap_out = x[2 * _H : 3 * _H]
    soc = x[3 * _H : 4 * _H]
    reserve = x[4 * _H : 5 * _H] if day.reserve_enabled else np.zeros(_H)

    swapped = swap_out.sum()
    energy_rev = float(day.lmp @ (discharge - charge))
    swap_rev = float(day.swap.swap_price * swapped)
    reserve_rev = float(day.reserve_price @ reserve)
    labor = float(day.swap.labor_cost * swapped)
    moved = float(charge.sum() + discharge.sum() + swapped)
    throughput = moved + day.calendar_throughput_today
    degradation = day.amdc * throughput
    revenue = energy_rev + swap_rev + reserve_rev

    return DailySchedule(
        charge=charge, discharge=discharge, swap_out=swap_out,
        reserve_offer=reserve, soc=soc,
        market_revenue=revenue,
        swap_labor_cost=labor,
        degradation_cost=degradation,
        sb_star=revenue - labor - degradation,
        throughput_today=throughput,
        energy_revenue=energy_rev, swap_revenue=swap_rev, reserve_revenue=reserve_rev,
        lp_objective=float(sol.objective_value),
    )
