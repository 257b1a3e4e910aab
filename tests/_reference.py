"""Reference solvers and checkers the tests compare production against.

Nothing here runs in production:
- ``DailySchedule`` is a solved day's hours and money.  ``schedule_of``
  builds it from the point and settlement ``solve_day`` returns, its money
  from the production ``money_rows`` and its throughput summed as the day
  loop sums it; ``solve_schedule`` solves a day of a kernel into one;
- ``DayInput`` is one day on its own; ``solve_one_day`` solves it as day 0
  of its one-day kernel (``kernel_for_day``) through the production
  ``solve_day``;
- ``solve_fresh`` solves a program in a fresh ``HighsModel``, and
  ``rewrite`` changes a held program as ``HighsModel.set_day`` does, but
  anywhere; both re-check at ``_scale``, the program's largest bound;
- ``solve_lp_linprog`` solves a program cold through scipy's ``linprog``,
  a second HiGHS front end that shares no model state with ``swapval.lp``;
- ``enumerate_oracle`` finds the optimum of a small program by exhaustive
  basic-feasible-point enumeration, sharing no solve logic with HiGHS, and
  ``build_compact_lp`` states a short day in few enough variables for it;
- ``build_daily_lp_rows`` builds the first hours of a day's program row by
  row, the reference for the kernel's block-layout ``build_daily_lp``;
- ``max_daily_throughput`` bounds one day's budget draw;
- ``check_schedule`` recomputes a solved day's invariants and money from
  its hours, with dot products of its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np
from scipy.optimize import linprog

from swapval.lifecycle import calendar_throughput_per_day
from swapval.lp import (
    DimensionError,
    HighsModel,
    LinearProgram,
    LPSolution,
    _HIGHS_TOL,
    _verdict,
    solve_lp,
)
from swapval.market_data import HourlyPriceSeries
from swapval.scheduler import (
    BatterySpec,
    DailyModel,
    ScheduleError,
    SwapTerms,
    _costs,
    money_rows,
    solve_day,
)

_ORACLE_MAX_VARS = 12
# Candidate batches are chunked so intermediate tensors stay ~tens of MB.
_ORACLE_CHUNK_ELEMS = 4_000_000


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
    certified: bool = False  # proven from the held basis, without a HiGHS run
    pivots: int = 0  # dual simplex pivots that settled the day instead (continued)


def schedule_of(model: DailyModel, day: int, x: np.ndarray,
                pivots: int | None = 0) -> DailySchedule:
    """Day ``day`` of the model's life as a schedule, from its point ``x``
    and how it was settled (``solve_day``'s pivots, None for HiGHS)."""
    H = 24
    throughput = float(x[:H].sum() + x[H:2 * H].sum() + x[2 * H:3 * H].sum()) \
        + model.calendar_throughput
    sb_star, energy, swap, reserve, labor, degradation = \
        money_rows(model, day, x[None], np.array([throughput]))[:, 0].tolist()
    return DailySchedule(
        charge=x[:H], discharge=x[H:2 * H], swap_out=x[2 * H:3 * H],
        reserve_offer=x[4 * H:] if model.reserve_enabled else np.zeros(H), soc=x[3 * H:4 * H],
        market_revenue=energy + swap + reserve, swap_labor_cost=labor,
        degradation_cost=degradation, sb_star=sb_star, throughput_today=throughput,
        energy_revenue=energy, swap_revenue=swap, reserve_revenue=reserve,
        lp_objective=float(model.costs[day % len(model.lmp)] @ x),
        certified=pivots == 0, pivots=pivots or 0)


def solve_schedule(model: DailyModel, day: int, soc_start: float,
                   capacity_now: float) -> DailySchedule:
    """``solve_day`` of ``day``, as a schedule."""
    return schedule_of(model, day, *solve_day(model, day, soc_start, capacity_now))


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


def kernel_for_day(day: DayInput) -> DailyModel:
    """The day kernel of a lone day, as its day 0, priced at its ``amdc``."""
    model = DailyModel(day.battery, HourlyPriceSeries(day.lmp, day.reserve_price), day.swap,
                       day.reserve_enabled, day.calendar_throughput_today)
    model.price(day.amdc)
    return model


def solve_one_day(day: DayInput) -> DailySchedule:
    """Solve a lone day as day 0 of its one-day kernel."""
    return solve_schedule(kernel_for_day(day), 0, day.soc_start, day.capacity_now)


def _objective(day: DayInput, hours: int) -> np.ndarray:
    """The day's column costs over its first ``hours`` hours."""
    return _costs(day.lmp[None, :hours], day.reserve_price[None, :hours], day.amdc, day.swap,
                  day.reserve_enabled)[0]


def _scale(lp: LinearProgram) -> float:
    """The feasibility re-check's tolerance scale: the largest finite bound, at least 1."""
    bounds = np.abs(np.concatenate((lp.lower, lp.upper, lp.row_lower, lp.row_upper)))
    return max(1.0, float(bounds[bounds < np.inf].max()))


def solve_fresh(lp: LinearProgram) -> LPSolution:
    """``solve_lp`` of the program loaded into a fresh model, with no basis yet."""
    return solve_lp(HighsModel(lp))


def rewrite(model: HighsModel, objective, cols: slice = slice(0, 0), upper=0.0,
            rows: dict[int, tuple[float, float]] | None = None) -> None:
    """Write every cost of a held program, the upper bounds of ``cols`` and
    the (lower, upper) bounds of ``rows``, as ``HighsModel.set_day`` writes
    a day."""
    lp, rows = model.lp, rows or {}
    lp.objective[:] = objective
    lp.upper[cols] = upper
    for row, bounds in rows.items():
        lp.row_lower[row], lp.row_upper[row] = bounds
    model.scale = _scale(lp)


def solve_lp_linprog(lp: LinearProgram, max_iter: int | None = None) -> LPSolution:
    """``solve_lp`` through a cold ``linprog`` solve, with the same verdict.

    ``max_iter`` caps the simplex iterations, with presolve off so that it
    cannot mask the cap.
    """
    eq_rows = lp.row_lower == lp.row_upper
    le_rows = np.isfinite(lp.row_upper) & ~eq_rows
    ge_rows = np.isfinite(lp.row_lower) & ~eq_rows

    A_ub = b_ub = A_eq = b_eq = None
    if np.any(le_rows) or np.any(ge_rows):
        A_ub = np.vstack([lp.A[le_rows], -lp.A[ge_rows]])
        b_ub = np.concatenate([lp.row_upper[le_rows], -lp.row_lower[ge_rows]])
    if np.any(eq_rows):
        A_eq = lp.A[eq_rows]
        b_eq = lp.row_upper[eq_rows]

    options = {
        "presolve": True,
        "primal_feasibility_tolerance": _HIGHS_TOL,
        "dual_feasibility_tolerance": _HIGHS_TOL,
    }
    if max_iter is not None:
        options["maxiter"] = max_iter
        options["presolve"] = False
    result = linprog(
        -lp.objective,
        A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
        bounds=np.column_stack([lp.lower, lp.upper]),
        method="highs",
        options=options,
    )
    return _verdict(lp, result.status, result.x, result.message, _scale(lp))


def oracle_cost(lp: LinearProgram) -> int:
    """Number of candidate basic points enumerate_oracle would visit.

    Useful for keeping randomized test instances inside a runtime budget.
    """
    n = lp.n_vars
    e = int(np.count_nonzero(lp.row_lower == lp.row_upper))
    m_ineq = lp.n_constraints - e
    if e > n:
        return 0
    total = 0
    for j in range(0, min(m_ineq, n - e) + 1):
        k = e + j
        total += comb(m_ineq, j) * comb(n, k) * (1 << (n - k))
    return total


def enumerate_oracle(lp: LinearProgram, feas_tol: float = 1e-8) -> LPSolution:
    """Optimum by exhaustive enumeration of basic feasible points.

    Every choice of n active constraints is visited: the e equality rows are
    always active, j inequality rows are chosen active, and the remaining
    n - e - j variables sit at a lower or upper bound.  The resulting linear
    systems are solved in numpy batches; feasible candidates are compared on
    the objective and ties resolve to the first candidate in deterministic
    enumeration order.

    Guarded to n <= 12 variables; beyond that the combinatorics blow up.
    Every row is an equality or bounded on one side only.
    """
    n = lp.n_vars
    if n > _ORACLE_MAX_VARS:
        raise DimensionError(f"oracle limited to {_ORACLE_MAX_VARS} variables, got {n}")
    eq = lp.row_lower == lp.row_upper
    if (np.isfinite(lp.row_lower) & np.isfinite(lp.row_upper) & ~eq).any():
        raise DimensionError("oracle takes no row bounded on both sides")
    eq_idx = np.flatnonzero(eq)
    ineq_idx = np.flatnonzero(~eq)
    # The bound an active row sits at: its only finite one.
    rhs = np.where(np.isfinite(lp.row_upper), lp.row_upper, lp.row_lower)
    e = len(eq_idx)
    if e > n:
        raise DimensionError(f"{e} equality rows exceed {n} variables")

    atol = feas_tol * _scale(lp)
    lower, upper = lp.lower, lp.upper
    c = lp.objective

    best_val = -np.inf
    best_x: np.ndarray | None = None

    def consider(points: np.ndarray) -> None:
        # points: (count, n); full feasibility check, then objective compare.
        nonlocal best_val, best_x
        if points.size == 0:
            return
        ok = np.all(points >= lower - atol, axis=1) & np.all(points <= upper + atol, axis=1)
        if lp.n_constraints and np.any(ok):
            vals = points[ok] @ lp.A.T
            sub_ok = np.all((vals - lp.row_upper <= atol) & (lp.row_lower - vals <= atol),
                            axis=1)
            idx = np.flatnonzero(ok)
            ok[idx] = sub_ok
        if not np.any(ok):
            return
        feas = points[ok]
        objs = feas @ c
        i = int(np.argmax(objs))
        if objs[i] > best_val:
            best_val = float(objs[i])
            best_x = np.clip(feas[i], lower, upper)

    max_j = min(len(ineq_idx), n - e)
    for j in range(0, max_j + 1):
        k = e + j  # free variables determined by the k active rows
        nb = n - k  # variables pinned at a bound
        for row_combo in itertools.combinations(ineq_idx, j):
            active_rows = np.concatenate([eq_idx, np.array(row_combo, dtype=int)]) \
                if k else np.zeros(0, dtype=int)
            if k == 0:
                _enumerate_pure_corners(lp, consider)
                continue
            A_act = lp.A[active_rows]  # (k, n)
            r_act = rhs[active_rows]  # (k,)
            _enumerate_with_active_rows(lp, A_act, r_act, k, nb, consider)

    if best_x is None:
        return LPSolution("infeasible", None, None)
    return LPSolution("optimal", best_x, float(c @ best_x))


def _corner_bits(nb: int) -> np.ndarray:
    # (nb, 2**nb) 0/1 selector, column p encodes p's binary digits.
    p = 1 << nb
    return ((np.arange(p)[None, :] >> np.arange(nb)[:, None]) & 1).astype(float)


def _enumerate_pure_corners(lp: LinearProgram, consider) -> None:
    n = lp.n_vars
    bits = _corner_bits(n)  # (n, 2**n)
    pts = (lp.lower[:, None] * (1 - bits) + lp.upper[:, None] * bits).T
    consider(pts)


def _enumerate_with_active_rows(lp: LinearProgram, A_act: np.ndarray,
                                r_act: np.ndarray, k: int, nb: int,
                                consider) -> None:
    """All ways of keeping k variables free against this active row set."""
    n = lp.n_vars
    free_sets = np.array(list(itertools.combinations(range(n), k)), dtype=int)
    n_free = len(free_sets)
    all_cols = np.arange(n)
    # Complement (bound) columns per free set.
    mask = np.ones((n_free, n), dtype=bool)
    mask[np.arange(n_free)[:, None], free_sets] = False
    bound_sets = all_cols[None, :].repeat(n_free, axis=0)[mask].reshape(n_free, nb)

    p = 1 << nb
    chunk = max(1, _ORACLE_CHUNK_ELEMS // max(1, k * p))
    bits = _corner_bits(nb)  # (nb, p)

    for start in range(0, n_free, chunk):
        fs = free_sets[start : start + chunk]
        bs = bound_sets[start : start + chunk]
        cnt = len(fs)
        M = A_act[:, fs].transpose(1, 0, 2)  # (cnt, k, k)
        # Drop singular active sets; their vertices reappear under other
        # nonsingular activations.
        dets = np.abs(np.linalg.det(M))
        row_norms = np.linalg.norm(A_act, axis=1)
        hadamard = float(np.prod(np.where(row_norms > 0, row_norms, 1.0)))
        good = dets > 1e-12 * max(hadamard, 1e-300)
        if not np.any(good):
            continue
        fs, bs, M = fs[good], bs[good], M[good]
        cnt = len(fs)

        if nb:
            lo_b = lp.lower[bs]  # (cnt, nb)
            hi_b = lp.upper[bs]
            corners = lo_b[:, :, None] * (1 - bits)[None] + hi_b[:, :, None] * bits[None]
            # rhs per free set and corner: (cnt, k, p)
            A_bnd = A_act[:, bs].transpose(1, 0, 2)  # (cnt, k, nb)
            rhs_mat = r_act[None, :, None] - A_bnd @ corners
        else:
            corners = np.zeros((cnt, 0, 1))
            rhs_mat = np.broadcast_to(r_act[None, :, None], (cnt, k, 1)).copy()

        try:
            x_free = np.linalg.solve(M, rhs_mat)  # (cnt, k, p)
        except np.linalg.LinAlgError:
            continue  # det filter missed a singular stack member

        pcols = x_free.shape[2]
        pts = np.empty((cnt, pcols, n))
        rows = np.arange(cnt)[:, None, None]
        pts[rows, np.arange(pcols)[None, :, None], fs[:, None, :]] = \
            x_free.transpose(0, 2, 1)
        if nb:
            pts[rows, np.arange(pcols)[None, :, None], bs[:, None, :]] = \
                corners.transpose(0, 2, 1)
        consider(pts.reshape(cnt * pcols, n))


def _weights(hours: int, keep: float) -> np.ndarray:
    # w[h, j] = keep**(h - j) for j <= h else 0; soc_h response to hour-j flows.
    idx = np.arange(hours)
    power = idx[:, None] - idx[None, :]
    w = np.where(power >= 0, keep ** np.maximum(power, 0), 0.0)
    return w


def build_compact_lp(day: DayInput, hours: int) -> LinearProgram:
    """State-eliminated form of the same day, for the enumeration oracle.

    SOC variables are substituted out through the recursion, turning SOC
    bounds into general rows over the flow variables; rows that the box
    bounds already make unviolable are dropped.  When the swap cap is zero
    the swap variables are dropped too.  The optimum (including the
    tie-break term) matches build_daily_lp_rows exactly, reaching far fewer
    variables so small instances fit the oracle's enumeration limit.
    """
    if not 1 <= hours <= 24:
        raise ValueError(f"hours must be in [1, 24], got {hours}")
    b = day.battery
    eta, keep = b.efficiency, 1.0 - b.self_discharge
    H = hours
    res = day.reserve_enabled
    swap_on = day.swap.daily_swap_cap > 0
    blocks = 2 + (1 if swap_on else 0) + (1 if res else 0)
    n = blocks * H
    i_cha, i_dis = 0, H
    i_swp = 2 * H if swap_on else None
    i_res = (3 * H if swap_on else 2 * H) if res else None

    lower = np.zeros(n)
    upper = np.empty(n)
    upper[i_cha:i_cha + H] = b.power_limit
    upper[i_dis:i_dis + H] = b.power_limit
    if swap_on:
        upper[i_swp : i_swp + H] = day.capacity_now
    if res:
        upper[i_res : i_res + H] = b.power_limit

    w = _weights(H, keep)  # soc_h = base_h + sum_j w[h,j] * flow_j
    base = keep ** (np.arange(H) + 1.0) * day.soc_start

    def soc_coeffs(h: int) -> np.ndarray:
        row = np.zeros(n)
        row[i_cha : i_cha + H] = w[h] * eta
        row[i_dis : i_dis + H] = -w[h] / eta
        if swap_on:
            row[i_swp : i_swp + H] = -w[h] / eta
        return row

    # Every row is A x <= rhs.
    rows, rhs = [], []
    for h in range(H):
        coeff = soc_coeffs(h)
        rows.append(-coeff)  # soc_h >= 0
        rhs.append(base[h])
        rows.append(coeff)  # soc_h <= capacity
        rhs.append(day.capacity_now - base[h])

    if swap_on:
        cap_row = np.zeros(n)
        cap_row[i_swp : i_swp + H] = 1.0
        rows.append(cap_row)
        rhs.append(day.swap.daily_swap_cap)

    if res:
        for h in range(H):
            row = np.zeros(n)
            row[i_res + h] = 1.0
            row[i_dis + h] = 1.0
            rows.append(row)
            rhs.append(b.power_limit)
        for h in range(H):
            row = -eta * soc_coeffs(h)
            row[i_res + h] += 1.0
            rows.append(row)
            rhs.append(eta * base[h])

    A = np.array(rows)
    rhs = np.array(rhs)
    # Drop rows no corner of the box can violate.
    sup = np.where(A > 0, A * upper[None, :], A * lower[None, :]).sum(axis=1)
    live = sup > rhs
    A, rhs = A[live], rhs[live]

    # The full form's blocks are charge, discharge, swap, soc, [reserve].
    kept = [0, 1] + ([2] if swap_on else []) + ([4] if res else [])
    objective = _objective(day, H).reshape(-1, H)[kept].ravel()
    return LinearProgram(objective=objective, lower=lower, upper=upper,
                         A=A, row_lower=np.full(len(rhs), -np.inf), row_upper=rhs)


def build_daily_lp_rows(day: DayInput, hours: int = 24) -> LinearProgram:
    """The program of the day's first ``hours`` hours, written one row at a
    time; at 24 hours, the kernel's ``build_daily_lp`` of the day."""
    b = day.battery
    eta, keep = b.efficiency, 1.0 - b.self_discharge
    H = hours
    res = day.reserve_enabled
    n = (5 if res else 4) * H
    i_cha, i_dis, i_swp, i_soc = 0, H, 2 * H, 3 * H
    i_res = 4 * H

    lower = np.zeros(n)
    upper = np.empty(n)
    upper[i_cha:i_dis] = b.power_limit
    upper[i_dis:i_swp] = b.power_limit
    upper[i_swp:i_soc] = day.capacity_now
    upper[i_soc : i_soc + H] = day.capacity_now
    if res:
        upper[i_res:] = b.power_limit

    # Each row is (coefficients, row_lower, row_upper).
    rows = []
    for h in range(H):
        row = np.zeros(n)
        row[i_soc + h] = 1.0
        if h > 0:
            row[i_soc + h - 1] = -keep
        row[i_cha + h] = -eta
        row[i_dis + h] = 1.0 / eta
        row[i_swp + h] = 1.0 / eta
        value = keep * day.soc_start if h == 0 else 0.0
        rows.append((row, value, value))

    # The cap and headroom rows cannot go below 0, nor a coupling row below
    # -eta times the full size.
    cap_row = np.zeros(n)
    cap_row[i_swp:i_soc] = 1.0
    rows.append((cap_row, 0.0, day.swap.daily_swap_cap))

    if res:
        for h in range(H):
            row = np.zeros(n)
            row[i_res + h] = 1.0
            row[i_dis + h] = 1.0
            rows.append((row, 0.0, b.power_limit))
        for h in range(H):
            row = np.zeros(n)
            row[i_res + h] = 1.0
            row[i_soc + h] = -eta
            rows.append((row, -eta * b.energy_capacity_0, 0.0))

    A, row_lower, row_upper = zip(*rows)
    return LinearProgram(objective=_objective(day, H), lower=lower, upper=upper,
                         A=np.array(A), row_lower=row_lower, row_upper=row_upper)


def max_daily_throughput(spec: BatterySpec, swap: SwapTerms | None = None) -> float:
    """Upper bound on one day's budget draw, for the overshoot invariant."""
    swap_cap = 0.0 if swap is None else min(swap.daily_swap_cap,
                                            24.0 * spec.energy_capacity_0)
    return 24.0 * 2.0 * spec.power_limit + swap_cap + calendar_throughput_per_day(spec)


def check_schedule(schedule: DailySchedule, day: DayInput,
                   soc_tol: float = 1e-9) -> dict[str, float]:
    """Check a solved day's physical invariants and recompute its profit.

    Returns {'energy', 'swap', 'reserve', 'revenue', 'labor', 'degradation',
    'sb_star'} recomputed from the hourly quantities.  Raises ScheduleError
    naming every invariant the schedule violates; the profit identity fails
    when a recomputed figure disagrees with the schedule's own beyond 1e-6
    relative.
    """
    b = day.battery
    H = len(schedule.charge)
    eta, keep = b.efficiency, 1.0 - b.self_discharge
    charge, discharge, swap_out = schedule.charge, schedule.discharge, schedule.swap_out
    reserve, soc = schedule.reserve_offer, schedule.soc

    swap_total = float(swap_out.sum())
    energy = float(day.lmp[:H] @ (discharge - charge))
    swapped = day.swap.swap_price * swap_total
    offered = float(day.reserve_price[:H] @ reserve)
    revenue = energy + swapped + offered
    labor = day.swap.labor_cost * swap_total
    moved = float(charge.sum() + discharge.sum() + swap_total)
    degradation = day.amdc * (moved + day.calendar_throughput_today)
    parts = {"energy": energy, "swap": swapped, "reserve": offered, "revenue": revenue,
             "labor": labor, "degradation": degradation,
             "sb_star": revenue - labor - degradation}
    stored = {"energy": schedule.energy_revenue, "swap": schedule.swap_revenue,
              "reserve": schedule.reserve_revenue, "revenue": schedule.market_revenue,
              "labor": schedule.swap_labor_cost, "degradation": schedule.degradation_cost,
              "sb_star": schedule.sb_star}
    scale = max(1.0, abs(revenue), abs(degradation))
    profit_gap = max(abs(parts[k] - stored[k]) for k in parts) / scale

    prev = np.concatenate([[day.soc_start], soc[:-1]])
    resid = soc - (keep * prev + eta * charge - discharge / eta - swap_out / eta)
    checks = [
        (np.max(np.abs(resid)), soc_tol, "SOC recursion residual"),
        (np.max(-soc), 1e-7, "negative SOC"),
        (np.max(soc - day.capacity_now), 1e-7, "SOC above capacity"),
        (np.max(swap_out - day.capacity_now), 1e-7, "hourly swap above capacity"),
        (swap_total - day.swap.daily_swap_cap, 1e-7, "swap above daily cap"),
        (np.max(np.concatenate([charge, discharge]) - b.power_limit), 1e-7, "power limit"),
        (np.max(-np.concatenate([charge, discharge, swap_out, reserve])), 1e-7,
         "negative quantity"),
        (profit_gap, 1e-6, "profit identity"),
    ]
    if day.reserve_enabled:
        checks.append((np.max(reserve + discharge - b.power_limit), 1e-7, "reserve headroom"))
        checks.append((np.max(reserve - eta * soc), 1e-7, "reserve energy coupling"))
    violated = [f"{label} violated by {value:.3e}" for value, tol, label in checks
                if value > tol]
    if violated:
        raise ScheduleError("; ".join(violated))
    return parts
