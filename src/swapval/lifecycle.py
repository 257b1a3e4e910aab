"""Life-cycle simulation: chain daily schedules until the battery dies.

Degradation is budgeted in MWh of throughput: every MWh charged, discharged
or swapped out, plus a fixed daily calendar-equivalent, draws down a total
budget fixed by cycle life.  State of health falls linearly with the budget
consumed, derating the usable energy capacity day by day.  Daily profits
are discounted year-by-year into the life-cycle objective, and yearly cash
flows (excluding the degradation opportunity cost, which is not cash)
support the economic end-of-life analysis.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from swapval import lp
from swapval.market_data import HourlyPriceSeries
from swapval.scheduler import (
    NO_SWAP,
    TIE_BREAK_EPS,
    BatterySpec,
    DailyModel,
    DayInput,
    ScheduleError,
    SwapTerms,
    check_numbers,
    solve_day,
)

DAYS_PER_YEAR = 365

# Longest horizon cap a lifecycle may run to, in years.
MAX_HORIZON_YEARS = 1000

# Relative clearance each hour's charge bound must keep in ``_idle_proof``,
# far above the round-off of its arithmetic and HiGHS's 1e-10 tolerances.
_IDLE_PROOF_MARGIN = 1e-9

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass
class DegradationLedger:
    """Cumulative throughput against the total budget, with derived SOH."""

    total_budget: float  # MWh-throughput available over the whole life
    eol_capacity_fraction: float
    cumulative_throughput: float = 0.0

    @property
    def soh(self) -> float:
        """Remaining capacity fraction, linear in consumed budget."""
        frac = 1.0 - (1.0 - self.eol_capacity_fraction) * (
            self.cumulative_throughput / self.total_budget)
        return min(1.0, max(self.eol_capacity_fraction, frac))

    def soh_at(self, cumulative: np.ndarray) -> np.ndarray:
        """``soh`` at each of several cumulative throughputs (same formula)."""
        frac = 1.0 - (1.0 - self.eol_capacity_fraction) * (cumulative / self.total_budget)
        return np.minimum(1.0, np.maximum(self.eol_capacity_fraction, frac))

    def add(self, throughput: float) -> None:
        if throughput < 0:
            raise ValueError(f"negative throughput {throughput}")
        self.cumulative_throughput += throughput

    @property
    def exhausted(self) -> bool:
        return self.cumulative_throughput >= self.total_budget


@dataclass(frozen=True)
class EconomicParams:
    discount_rate: float = 0.07  # per year
    fixed_om_per_kw_year: float = 0.0  # $/kW-year
    horizon_cap_years: int = 30  # safety stop for immortal configurations

    def __post_init__(self):
        check_numbers(self)
        if self.discount_rate < 0:
            raise ValueError(f"discount_rate must be >= 0, got {self.discount_rate}")
        if self.fixed_om_per_kw_year < 0:
            raise ValueError(f"fixed O&M must be >= 0, got {self.fixed_om_per_kw_year}")
        years = self.horizon_cap_years
        if not isinstance(years, int) or not 1 <= years <= MAX_HORIZON_YEARS:
            raise ValueError(f"horizon_cap_years must be an integer in "
                             f"[1, {MAX_HORIZON_YEARS}], got {years!r}")
        # The last year's MDC factor (1 + r) ** (years - 1) must be a float.
        if (years - 1) * math.log1p(self.discount_rate) >= _LOG_FLOAT_MAX:
            raise ValueError(
                f"(1 + discount_rate) ** (horizon_cap_years - 1) overflows: discount_rate "
                f"{self.discount_rate!r} is too large for a {years}-year horizon")


@dataclass
class DailyLog:
    """Per-day trajectory arrays (one entry per simulated day)."""

    day: np.ndarray
    soh: np.ndarray  # at the start of the day
    throughput: np.ndarray
    sb_star: np.ndarray
    soc_end: np.ndarray
    energy_revenue: np.ndarray
    swap_revenue: np.ndarray
    reserve_revenue: np.ndarray
    labor_cost: np.ndarray
    degradation_cost: np.ndarray


@dataclass
class LifecycleResult:
    """Outcome of one full simulation at a fixed marginal degradation cost."""

    mu: float
    lb_star: float  # discounted life-cycle objective
    abu: float  # lb_star / total budget
    days_lived: int
    physical_eol_year: int | None  # 1-based year containing the stop day
    economic_eol_year: int | None  # last year with non-negative net profit
    horizon_capped: bool
    cumulative_throughput: float
    total_budget: float
    final_soh: float
    discounted_reserve_revenue: float
    discounted_energy_revenue: float
    discounted_swap_revenue: float
    yearly: list[dict]
    soh_series: np.ndarray  # SOH at the start of each simulated day
    daily_log: DailyLog | None = None


def total_budget(spec: BatterySpec) -> float:
    """Lifetime MWh-throughput budget.

    Both charge and discharge legs count against the budget, matching the
    objective's symmetric per-MWh degradation charge, so one full cycle at
    100% DOD consumes twice the energy capacity.
    """
    return spec.cycle_life * 2.0 * spec.energy_capacity_0


def calendar_throughput_per_day(spec: BatterySpec) -> float:
    """Daily budget draw equivalent to calendar fade.

    Calendar fade eats capacity at ``calendar_fade_per_year`` of initial
    capacity; mapped onto the linear SOH-vs-throughput line, a year of
    sitting idle consumes fade/(1 - eol_fraction) of the budget.
    """
    d = total_budget(spec)
    loss_fraction_per_year = spec.calendar_fade_per_year / (1.0 - spec.eol_capacity_fraction)
    return d * loss_fraction_per_year / DAYS_PER_YEAR


def adjusted_mdc(mu: float, day_index: int, econ: EconomicParams) -> float:
    """Inflate the life-cycle MDC into day-t terms: mu * (1+r)**year(t)."""
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    if day_index < 0:
        raise ValueError(f"day_index must be >= 0, got {day_index}")
    kappa = day_index // DAYS_PER_YEAR
    return mu * (1.0 + econ.discount_rate) ** kappa


def check_mdc(mu: float, spec: BatterySpec, econ: EconomicParams) -> None:
    """Raise ValueError unless every degradation charge a lifecycle at ``mu``
    can make is a float: the last year's adjusted MDC, ``mu * (1 + r) **
    (horizon_cap_years - 1)``, times the most throughput a life can draw.

    A day draws at most ``24 * (2 * power_limit + energy_capacity_0)`` MWh
    (each hour's charge, discharge and swap at their bounds) plus the
    calendar share, and a life stops at the horizon cap or on the day that
    exhausts the budget.
    """
    if mu <= 0:
        return
    day = 24.0 * (2.0 * spec.power_limit + spec.energy_capacity_0) \
        + calendar_throughput_per_day(spec)
    life = min(total_budget(spec) + day, DAYS_PER_YEAR * econ.horizon_cap_years * day)
    years = econ.horizon_cap_years - 1
    if math.log(mu) + years * math.log1p(econ.discount_rate) + math.log(life) \
            >= _LOG_FLOAT_MAX:
        raise ValueError(
            f"mu {mu!r} is too large: its last-year adjusted MDC times the "
            f"{life:.6g} MWh a lifecycle can draw overflows")


def abu(lb_star: float, budget: float) -> float:
    """Average benefit of usage: life-cycle profit per MWh of budget."""
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    return lb_star / budget


def _running_sums(values: np.ndarray) -> np.ndarray:
    """Each row's running sum: column 0 holds the row's start, and column j
    becomes its value after ``x += step`` for the steps in columns 1 to j.

    ``np.add.accumulate`` folds strictly left to right, so every value is
    rounded exactly as the same Python loop rounds it (``np.sum`` adds
    pairwise and would not be).
    """
    return np.add.accumulate(values, axis=-1)


def _idle_days(ledger: DegradationLedger, q_day: float, n: int) -> tuple[int, np.ndarray]:
    """The next ``n`` days of the idle tail, fewer if the budget runs out.

    Each idle day draws ``q_day`` from the budget and leaves the battery
    empty.  Returns the day count and the ledger's cumulative throughput at
    the start of each day and after the last.  The days end with the first
    one that exhausts the budget.
    """
    cumulative = np.full(n + 1, q_day)
    cumulative[0] = ledger.cumulative_throughput
    cumulative = _running_sums(cumulative)
    spent = np.flatnonzero(cumulative[1:] >= ledger.total_budget)
    if spent.size:
        n = int(spent[0]) + 1
    return n, cumulative[:n + 1]


def _idle_proof(spec: BatterySpec, prices: HourlyPriceSeries, amdc: float,
                swap: SwapTerms, reserve_enabled: bool) -> np.ndarray:
    """Per pattern day: is the all-zero schedule provably the unique optimum
    of the day's LP from an empty battery at adjusted MDC ``amdc``?

    LP duality decides it without a solver.  With ``A = amdc +
    TIE_BREAK_EPS``, ``keep = 1 - self_discharge``, reserve price ``rho``
    (0 with reserve off) and swap margin ``sigma = swap_price - labor_cost``
    (counted only when ``daily_swap_cap > 0``; a zero cap pins swap to 0),
    take the SOC-row duals ``lam[24] = 0`` and, for h = 23..0,

        lam[h] = max(keep*lam[h+1] + eta*rho[h], eta*(lmp[h] - A), eta*(sigma - A)).

    With the cap, headroom rows' duals at 0 and each coupling row's at
    ``rho[h]``, every discharge, swap, SOC and reserve column then has a
    reduced cost <= 0, so no feasible schedule beats 0 (the SOC rows'
    right-hand sides are 0 from an empty battery).  The day is proven when
    also ``lam[h] < (lmp[h] + A)/eta - margin`` for every h: each charge
    column's reduced cost is strictly negative, so no optimum charges, and
    from an empty battery nothing can be discharged, swapped or offered
    without charging first (complementary slackness; Bertsimas &
    Tsitsiklis, *Introduction to Linear Optimization*, 1997, ch. 4).

    Capacity never enters the proof, and a larger ``amdc`` only lowers
    ``lam`` and raises the bound, so a day proven at one point of a life
    stays proven for every later day of it.  An idle day from an empty
    battery ends empty, so once every pattern day is proven, the rest of
    the life is idle.  Works a pattern hour at a time, on arrays of one
    value per pattern day.
    """
    eta, keep = spec.efficiency, 1.0 - spec.self_discharge
    A = amdc + TIE_BREAK_EPS
    lmp = prices.lmp.reshape(-1, 24)
    reserve = prices.reserve_price.reshape(-1, 24)
    swap_floor = eta * (swap.swap_price - swap.labor_cost - A) \
        if swap.daily_swap_cap > 0 else -math.inf
    lam = np.zeros(len(lmp))
    proven = np.ones(len(lmp), dtype=bool)
    for h in range(23, -1, -1):
        price = lmp[:, h]
        rho = reserve[:, h] if reserve_enabled else 0.0
        lam = np.maximum(np.maximum(keep * lam + eta * rho, eta * (price - A)), swap_floor)
        bound = (price + A) / eta
        proven &= lam < bound - _IDLE_PROOF_MARGIN * (1.0 + np.abs(bound))
    return proven


def simulate_lifecycle(
    spec: BatterySpec,
    econ: EconomicParams,
    prices: HourlyPriceSeries,
    mu: float,
    swap_policy: SwapTerms | None = None,
    reserve_enabled: bool = True,
    keep_daily_log: bool = True,
) -> LifecycleResult:
    """Run a year at a time from fresh battery to physical EOL (or the horizon cap).

    Each year prices throughput at its adjusted MDC and discounts its
    profits by ``(1 + r) ** -year``.  A solved day solves the scheduling LP
    at that MDC and the SOH-derated capacity, carries end-of-day SOC into
    the next morning, and draws the day's throughput (plus the calendar
    equivalent) from the budget.  The life stops the first day cumulative
    throughput reaches the budget; the final day may overshoot by at most
    one day's maximum throughput.

    Idle days: at most once a year, on the first day that starts with the
    battery exactly empty, ``_idle_proof`` tries to show without a solver
    that every pattern day is idle at that year's adjusted MDC.  The
    adjusted MDC never decreases and the capacity never increases as the
    simulation advances, so when the proof holds, every later day is idle
    too: the rest of the life is calendar fade, which ``_idle_days`` fills
    in a year at a time, bit-identical to solving each day.  Every other
    day is solved.

    Every day of a year, solved or idle, is one column of the year's table,
    its rows in ``DailyLog`` order.  One close-out per year folds the table
    into the discounted objective, the three discounted revenues and the
    year's row of ``yearly``, rounding exactly as adding day by day does.
    ``DailyLog`` and ``soh_series`` are rows of the years' tables.

    The days are solved in one ``DailyModel``, each warm from the previous
    solved day; the model lives and dies with this call, so the result
    depends only on its arguments.  A solver failure is re-raised with the
    day, pattern day, SOC, capacity and adjusted MDC added to its message.
    """
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    swap = NO_SWAP if swap_policy is None else swap_policy

    budget = total_budget(spec)
    q_day = calendar_throughput_per_day(spec)
    ledger = DegradationLedger(total_budget=budget,
                               eol_capacity_fraction=spec.eol_capacity_fraction)

    soc = 0.0
    idle = False  # from the day _idle_proof holds to the end of the life
    model = DailyModel()

    tables: list[np.ndarray] = []
    yearly: list[dict] = []
    lb = disc_energy = disc_swap = disc_reserve = 0.0
    days = 0  # lived before this year

    for year in range(econ.horizon_cap_years):
        mu_t = adjusted_mdc(mu, year * DAYS_PER_YEAR, econ)
        solved: list[tuple] = []
        tried = idle  # the proof is not tried again once it holds
        while len(solved) < DAYS_PER_YEAR and not ledger.exhausted:
            if not tried and soc == 0.0:
                # The MDC is constant within a year, so one try per year does.
                tried = True
                idle = bool(_idle_proof(spec, prices, mu_t, swap, reserve_enabled).all())
            if idle:
                break
            day = days + len(solved)
            soh = ledger.soh
            capacity_now = soh * spec.energy_capacity_0
            # Capacity fade can strand stored energy, and solver round-off can
            # leave SOC a hair outside [0, capacity]; clamp the carried value.
            soc = min(max(soc, 0.0), capacity_now)

            lmp, reserve_price = prices.day(day)
            day_input = DayInput(
                battery=spec, lmp=lmp, reserve_price=reserve_price,
                amdc=mu_t, swap=swap, soc_start=soc, capacity_now=capacity_now,
                calendar_throughput_today=q_day, reserve_enabled=reserve_enabled,
            )
            try:
                schedule = solve_day(day_input, model=model)
            except (ScheduleError, lp.LPError) as exc:
                raise type(exc)(
                    f"{exc} [day {day}, pattern day {day % prices.n_days}, "
                    f"soc_start {soc!r}, capacity_now {capacity_now!r}, "
                    f"adjusted MDC {mu_t!r}]") from exc
            # + 0.0 turns a -0.0 from HiGHS into the 0.0 of an idle day.
            soc = float(schedule.soc[-1]) + 0.0
            ledger.add(schedule.throughput_today)
            solved.append((soh, schedule.throughput_today, schedule.sb_star, soc,
                           schedule.energy_revenue, schedule.swap_revenue,
                           schedule.reserve_revenue, schedule.swap_labor_cost,
                           schedule.degradation_cost))

        # Idle days fill the rest of the year once the proof holds.
        n = len(solved)
        n_idle, cumulative = _idle_days(ledger, q_day, DAYS_PER_YEAR - n if idle else 0)
        ledger.cumulative_throughput = float(cumulative[-1])
        table = np.empty((9, n + n_idle))
        if solved:
            table[:, :n] = np.array(solved).T
        # Idle days earn nothing.  The profit is 0.0 - charge, as on a solved
        # idle day: 0.0, not -0.0, when the degradation charge is 0.
        charge = mu_t * q_day
        table[0, n:] = ledger.soh_at(cumulative[:n_idle])
        table[1:, n:] = np.array([q_day, 0.0 - charge, 0.0, 0.0, 0.0, 0.0, 0.0, charge])[:, None]

        # The year's close-out folds the days onto the running values: the
        # discounted profit and revenues (sb_star, energy, swap, reserve),
        # and the year's operating cash and degradation charge.
        delta = (1.0 + econ.discount_rate) ** (-year)
        energy, swap_rev, reserve, labor, degradation = table[4:]
        values = np.empty((6, n + n_idle + 1))
        values[:, 0] = lb, disc_energy, disc_swap, disc_reserve, 0.0, 0.0
        np.multiply(delta, table[[2, 4, 5, 6]], out=values[:4, 1:])
        values[4, 1:] = energy + swap_rev + reserve - labor
        values[5, 1:] = degradation
        lb, disc_energy, disc_swap, disc_reserve, cash, mdc_cost = \
            _running_sums(values)[:, -1].tolist()
        yearly.append({"year": year + 1, "days": n + n_idle,
                       "operating_cash": cash, "mdc_cost": mdc_cost})
        tables.append(table)
        days += n + n_idle
        if ledger.exhausted:
            break

    horizon_capped = not ledger.exhausted
    log = DailyLog(np.arange(days), *np.concatenate(tables, axis=1)) if keep_daily_log else None
    result = LifecycleResult(
        mu=mu,
        lb_star=lb,
        abu=abu(lb, budget),
        days_lived=days,
        physical_eol_year=None if horizon_capped else len(yearly),
        economic_eol_year=None,
        horizon_capped=horizon_capped,
        cumulative_throughput=ledger.cumulative_throughput,
        total_budget=budget,
        final_soh=ledger.soh,
        discounted_reserve_revenue=disc_reserve,
        discounted_energy_revenue=disc_energy,
        discounted_swap_revenue=disc_swap,
        yearly=yearly,
        soh_series=np.concatenate([table[0] for table in tables]),
        daily_log=log,
    )
    eol = eol_analysis(result, spec, econ)
    result.economic_eol_year = eol["economic_eol_year"]
    return result


def eol_analysis(result: LifecycleResult, spec: BatterySpec, econ: EconomicParams,
                 include_mdc_in_cashflow: bool = False) -> dict:
    """Fill yearly cash-flow columns and locate the economic end of life.

    Yearly net profit is operating cash (market + swap + reserve income
    minus swap labor) less fixed O&M; the degradation charge is an
    opportunity cost, not cash, and is excluded unless
    ``include_mdc_in_cashflow`` is set.  O&M is prorated in a partial final
    year.  The economic EOL is the last year before the first
    negative-profit year: 0 if the first year is already unprofitable, and
    the physical EOL when no year is unprofitable.  Refreshes the
    O&M-dependent columns of ``result.yearly`` in place.
    """
    om_full_year = econ.fixed_om_per_kw_year * spec.power_limit * 1000.0
    rate = econ.discount_rate
    first_negative = None
    for row in result.yearly:
        om = om_full_year * row["days"] / DAYS_PER_YEAR
        cash = row["operating_cash"]
        if include_mdc_in_cashflow:
            cash -= row["mdc_cost"]
        net = cash - om
        row["om_cost"] = om
        row["net_profit"] = net
        row["discounted_net"] = net * (1.0 + rate) ** (-(row["year"] - 1))
        if net < 0 and first_negative is None:
            first_negative = row["year"]

    if first_negative is not None:
        economic = first_negative - 1
    else:
        economic = result.physical_eol_year  # profitable to the end
    return {
        "physical_eol_year": result.physical_eol_year,
        "economic_eol_year": economic,
    }
