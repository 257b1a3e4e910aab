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
from dataclasses import dataclass, field

import numpy as np

from swapval import lp
from swapval.market_data import HourlyPriceSeries
from swapval.scheduler import (
    NO_SWAP,
    TIE_BREAK_EPS,
    BatterySpec,
    DailyModel,
    ScheduleError,
    SwapTerms,
    _H,
    _SOC_END,
    certify_days,
    check_numbers,
    money_rows,
    solve_day,
)

DAYS_PER_YEAR = 365

# Longest horizon cap a lifecycle may run to, in years.
MAX_HORIZON_YEARS = 1000

# Relative clearance each hour's charge bound must keep in ``_idle_proof``,
# far above the round-off of its arithmetic and HiGHS's 1e-10 tolerances.
_IDLE_PROOF_MARGIN = 1e-9

_LOG_FLOAT_MAX = math.log(sys.float_info.max)

# Days a basis certifies one at a time before blocks take the rest of its
# stretch (a block costs as much as several such days), and the largest
# block, whose arrays stay in cache (README, "Blocks of days").
_ONE_AT_A_TIME = 8
_MAX_BLOCK = 64


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


@dataclass(kw_only=True)
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
    discounted_energy_revenue: float
    discounted_swap_revenue: float
    discounted_reserve_revenue: float
    yearly: list[dict]
    daily_log: DailyLog | None = None  # lifecycle.json holds every field above, in order
    # days_solved, days_certified (one at a time), days_in_blocks,
    # days_continued (settled by at least one pivot), pivots, highs_runs
    # and idle_days; no report file holds them.
    stats: dict = field(default_factory=dict)


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


def state_of_health(used: float | np.ndarray, budget: float, eol_fraction: float):
    """Remaining capacity fraction after ``used`` MWh of a ``budget``: linear in
    the budget consumed, clamped to ``[eol_fraction, 1]``.  ``used`` is a float
    or an array, and so is the result."""
    soh = 1.0 - (1.0 - eol_fraction) * (used / budget)
    if isinstance(soh, float):  # the day loops' case, without numpy's overhead
        return min(1.0, max(eol_fraction, soh))
    return np.minimum(1.0, np.maximum(eol_fraction, soh))


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


def _idle_days(used: float, budget: float, q_day: float, n: int) -> tuple[int, np.ndarray]:
    """The next ``n`` days of the idle tail, fewer if the budget runs out.

    Each idle day draws ``q_day`` from the budget and leaves the battery
    empty.  Returns the day count and the cumulative throughput, ``used``
    before the first day, at the start of each day and after the last.  The
    days end with the first one that exhausts the budget.
    """
    cumulative = np.full(n + 1, q_day)
    cumulative[0] = used
    cumulative = _running_sums(cumulative)
    spent = np.flatnonzero(cumulative[1:] >= budget)
    if spent.size:
        n = int(spent[0]) + 1
    return n, cumulative[:n + 1]


def _idle_proof(model: DailyModel, amdc: float) -> np.ndarray:
    """Per pattern day of ``model``: is the all-zero schedule provably the
    unique optimum of the day's LP from an empty battery at adjusted MDC
    ``amdc``?

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
    eta, keep, swap = model.battery.efficiency, model.keep, model.swap
    A = amdc + TIE_BREAK_EPS
    lmp, reserve = model.lmp, model.reserve_price
    swap_floor = eta * (swap.swap_price - swap.labor_cost - A) \
        if swap.daily_swap_cap > 0 else -math.inf
    lam = np.zeros(len(lmp))
    proven = np.ones(len(lmp), dtype=bool)
    for h in range(23, -1, -1):
        price = lmp[:, h]
        rho = reserve[:, h] if model.reserve_enabled else 0.0
        lam = np.maximum(np.maximum(keep * lam + eta * rho, eta * (price - A)), swap_floor)
        bound = (price + A) / eta
        proven &= lam < bound - _IDLE_PROOF_MARGIN * (1.0 + np.abs(bound))
    return proven


def _day_failure(exc: Exception, model: DailyModel, day: int, soc: float,
                 capacity: float, amdc: float) -> Exception:
    """``exc`` with the failing day, pattern day, SOC, capacity and adjusted
    MDC added to its message."""
    return type(exc)(f"{exc} [day {day}, pattern day {day % len(model.lmp)}, "
                     f"soc_start {soc!r}, capacity_now {capacity!r}, "
                     f"adjusted MDC {amdc!r}]")


def _certify_block(model: DailyModel, day: int, size: int, soc: float, used: float,
                   budget: float, stop_when_empty: bool, out: np.ndarray,
                   points: np.ndarray) -> tuple[int, bool, float, float]:
    """Certify up to ``size`` days from ``day`` at once (``certify_days``),
    carrying SOC, throughput, SOH and capacity as solved days do: their SOH,
    throughput and end SOC go into ``out``'s columns, their points into
    ``points``' rows.  They stop before a day that starts exactly empty if
    ``stop_when_empty``, after the day that exhausts the budget and before
    one the certificate declines.  Returns the days, whether a declined day
    stopped them, and the SOC and throughput used after them; a re-check
    failure or negative throughput raises as on a solved day."""
    block = certify_days(model, day, size)
    if block is None:
        return 0, True, soc, used
    at_upper, (base, per_cap, per_soc) = block
    (e0, m0), (e_cap, m_cap), (e_soc, m_soc) = (
        base.T.tolist(), per_cap.T.tolist(), per_soc.tolist())
    spec, keep, q_day = model.battery, model.keep, model.calendar_throughput
    columns = []
    for i in range(len(e0)):
        if i and stop_when_empty and soc == 0.0:
            break
        soh = state_of_health(used, budget, spec.eol_capacity_fraction)
        capacity = soh * spec.energy_capacity_0
        start = min(max(soc, 0.0), capacity)
        soc0 = keep * start
        throughput = m0[i] + capacity * m_cap[i] + soc0 * m_soc + q_day
        end = e0[i] + capacity * e_cap[i] + soc0 * e_soc + 0.0
        columns.append((soc, used, soh, capacity, start, soc0, throughput, end))
        soc, used = end, used + throughput
        if throughput < 0 or used >= budget:
            break
    days = len(columns)
    carried, before, soh, capacity, start, soc0, throughput, end = np.array(columns).T
    count, error, x = model.held.check_stretch(at_upper, capacity, soc0)
    if error is None and count == days and throughput[-1] < 0:
        count, error = days - 1, ScheduleError(f"negative throughput {columns[-1][6]!r}")
    if error is not None:
        raise _day_failure(error, model, day + count, float(start[count]),
                           float(capacity[count]), model.amdc)
    out[[0, 1, 3], :count] = soh[:count], throughput[:count], end[:count]
    points[:count] = x[:count]
    if count < days:
        soc, used = float(carried[count]), float(before[count])
    return count, count < days or days == len(e0) < size, soc, used


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
    its rows in ``DailyLog`` order.  A solved day, alone or in a block,
    writes its SOH, throughput and end SOC there and its point into a
    buffer of the year's points.  One close-out per year costs the solved
    days' points in one pass (``money_rows``), then folds the table into
    the discounted objective, the three discounted revenues and the year's
    row of ``yearly``, rounding exactly as adding day by day does.
    ``DailyLog`` is the rows of the years' tables, kept only with
    ``keep_daily_log``.

    The days are solved in one ``DailyModel``, each warm from the previous
    solved day, and priced once a year, on its first solved day.  A day the
    held basis does not prove continues from it by dual simplex pivots
    (``solve_day``); HiGHS runs on the life's first day and on a day the
    pivots do not settle.  Once the held basis has certified
    ``_ONE_AT_A_TIME`` days one at a time, ``_certify_block`` certifies the
    rest of its stretch in blocks, none starting on a year's first day; a
    HiGHS run or a continued day brings a new basis, which starts that count
    again.  ``stats`` counts the days.  The model lives and dies with this
    call, so the result depends only on its arguments.  A solver failure is
    re-raised with the day, pattern day, SOC, capacity and adjusted MDC
    added to its message.
    """
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    swap = NO_SWAP if swap_policy is None else swap_policy

    budget = total_budget(spec)
    q_day = calendar_throughput_per_day(spec)
    eol_fraction = spec.eol_capacity_fraction
    used = 0.0  # MWh of throughput drawn from the budget

    soc = 0.0
    idle = False  # from the day _idle_proof holds to the end of the life
    model = DailyModel(spec, prices, swap, reserve_enabled, q_day)
    # Days certified since the last new basis or declined block, and the
    # next block's size.
    streak, size = 0, 2
    stats = dict.fromkeys(("days_solved", "days_certified", "days_in_blocks",
                           "days_continued", "pivots", "highs_runs", "idle_days"), 0)
    points = np.empty((DAYS_PER_YEAR, model.width))  # the year's solved days' points

    tables: list[np.ndarray] = []
    yearly: list[dict] = []
    lb = disc_energy = disc_swap = disc_reserve = 0.0
    days = 0  # lived before this year

    for year in range(econ.horizon_cap_years):
        mu_t = adjusted_mdc(mu, year * DAYS_PER_YEAR, econ)
        table = np.empty((9, DAYS_PER_YEAR))
        n = 0  # days solved this year
        tried = idle  # the proof is not tried again once it holds
        while n < DAYS_PER_YEAR and used < budget:
            if not tried and soc == 0.0:
                # The MDC is constant within a year, so one try per year does.
                tried = True
                idle = bool(_idle_proof(model, mu_t).all())
            if idle:
                break
            day = days + n
            if n and streak >= _ONE_AT_A_TIME:  # the year's first day prices the year
                k, declined, soc, used = _certify_block(
                    model, day, min(size, _MAX_BLOCK, DAYS_PER_YEAR - n), soc, used, budget,
                    not tried, table[:, n:], points[n:])
                n += k
                stats["days_in_blocks"] += k
                streak, size = (0, 2) if declined else (streak + k, 2 * size)
                continue
            soh = state_of_health(used, budget, eol_fraction)
            capacity_now = soh * spec.energy_capacity_0
            # Capacity fade can strand stored energy, and solver round-off can
            # leave SOC a hair outside [0, capacity]; clamp the carried value.
            soc = min(max(soc, 0.0), capacity_now)

            try:
                if not n:  # the year's first solved day prices the year
                    model.price(mu_t)
                x, pivots = solve_day(model, day, soc, capacity_now)
                # MWh charged, discharged and swapped, then the calendar share.
                throughput = float(x[:_H].sum() + x[_H:2 * _H].sum()
                                   + x[2 * _H:3 * _H].sum()) + q_day
                if throughput < 0:
                    raise ScheduleError(f"negative throughput {throughput!r}")
            except (ScheduleError, lp.LPError) as exc:
                raise _day_failure(exc, model, day, soc, capacity_now, mu_t) from exc
            # + 0.0 turns a -0.0 from HiGHS into the 0.0 of an idle day.
            soc = float(x[_SOC_END]) + 0.0
            used += throughput
            table[0, n], table[1, n], table[3, n] = soh, throughput, soc
            points[n] = x
            n += 1
            stats["days_certified"] += pivots == 0
            stats["days_continued"] += bool(pivots)
            stats["pivots"] += pivots or 0
            streak, size = (streak + 1, size) if pivots == 0 else (0, 2)

        # The solved days' money rows, from their points in one pass.
        if n:
            money = money_rows(model, days, points[:n], table[1, :n])
            table[2, :n], table[4:, :n] = money[0], money[1:]
        # Idle days fill the rest of the year once the proof holds.
        n_idle, cumulative = _idle_days(used, budget, q_day, DAYS_PER_YEAR - n if idle else 0)
        used = float(cumulative[-1])
        stats["days_solved"] += n
        stats["idle_days"] += n_idle
        table = table[:, :n + n_idle]
        # Idle days earn nothing.  The profit is 0.0 - charge, as on a solved
        # idle day: 0.0, not -0.0, when the degradation charge is 0.
        charge = mu_t * q_day
        table[0, n:] = state_of_health(cumulative[:n_idle], budget, eol_fraction)
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
        if keep_daily_log:
            tables.append(table)
        days += n + n_idle
        if used >= budget:
            break

    stats["highs_runs"] = model.held.runs if model.held is not None else 0
    horizon_capped = used < budget
    log = DailyLog(np.arange(days), *np.concatenate(tables, axis=1)) if keep_daily_log else None
    result = LifecycleResult(
        mu=mu,
        lb_star=lb,
        abu=abu(lb, budget),
        days_lived=days,
        physical_eol_year=None if horizon_capped else len(yearly),
        economic_eol_year=None,
        horizon_capped=horizon_capped,
        cumulative_throughput=used,
        total_budget=budget,
        final_soh=state_of_health(used, budget, eol_fraction),
        discounted_energy_revenue=disc_energy,
        discounted_swap_revenue=disc_swap,
        discounted_reserve_revenue=disc_reserve,
        yearly=yearly,
        daily_log=log,
        stats=stats,
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
