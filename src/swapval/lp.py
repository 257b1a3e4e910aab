"""Small dense linear programs with box bounds, solved by HiGHS.

``solve_lp`` maximizes a program with finite column boxes and rows bounded
as ``row_lower <= A x <= row_upper`` (HiGHS's own form) through scipy's
bundled HiGHS binding.  A ``HighsModel`` keeps one program loaded in HiGHS:
the day kernel (``scheduler.solve_day``) loads a life's first day into it
and rewrites each later day with ``HighsModel.set_day``, so that each
re-solve starts from the previous basis.  ``HighsModel.certify`` proves a
rewritten program optimal without HiGHS when the held basis still does,
or continues from that basis with a few dual simplex pivots in numpy;
``certify_stretch`` and ``check_stretch`` prove a stretch of programs at
once.  All of them work from one inverse of the basis matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetri
from scipy.optimize._highspy import _core as _highs


class LPError(Exception):
    """Base class for LP kernel failures."""


class DimensionError(LPError):
    """Malformed program: mismatched dimensions or invalid bounds."""


class IterationLimitError(LPError):
    """Solver hit its iteration limit before reaching a verdict."""


@dataclass
class LinearProgram:
    """max objective @ x  s.t.  lower <= x <= upper and row_lower <= A x <= row_upper.

    Column bounds must be finite; the scheduler always supplies finite boxes.
    A row bound may be infinite on its open side: a ``<=`` row has
    ``row_lower = -inf``, a ``>=`` row ``row_upper = +inf``, and an equality
    row equal bounds.
    """

    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    A: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray

    def __post_init__(self):
        self.objective = np.atleast_1d(np.asarray(self.objective, dtype=float))
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        self.A = np.asarray(self.A, dtype=float).reshape(-1, self.n_vars)
        self.row_lower = np.atleast_1d(np.asarray(self.row_lower, dtype=float))
        self.row_upper = np.atleast_1d(np.asarray(self.row_upper, dtype=float))
        _validate(self)

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    @property
    def n_constraints(self) -> int:
        return len(self.row_lower)


@dataclass
class LPSolution:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    x: np.ndarray | None
    objective_value: float | None


def _validate(lp: LinearProgram) -> None:
    n, m = lp.n_vars, lp.n_constraints
    if n < 1:
        raise DimensionError("program must have at least one variable")
    if len(lp.lower) != n or len(lp.upper) != n:
        raise DimensionError(
            f"bound lengths ({len(lp.lower)}, {len(lp.upper)}) != n_vars {n}")
    if lp.A.shape != (m, n) or len(lp.row_upper) != m:
        raise DimensionError(
            f"constraint matrix {lp.A.shape} inconsistent with row bounds of lengths "
            f"({m}, {len(lp.row_upper)}) over {n} vars")
    if not (np.all(np.isfinite(lp.lower)) and np.all(np.isfinite(lp.upper))):
        raise DimensionError("all variable bounds must be finite")
    if np.any(lp.lower > lp.upper):
        bad = int(np.flatnonzero(lp.lower > lp.upper)[0])
        raise DimensionError(f"lower > upper for variable {bad}")
    if not ((lp.row_lower <= lp.row_upper) & (lp.row_lower < np.inf)
            & (lp.row_upper > -np.inf)).all():
        raise DimensionError("row bounds must be ordered, not NaN, nor both +inf or both -inf")
    if not np.all(np.isfinite(lp.A)) or not np.all(np.isfinite(lp.objective)):
        raise DimensionError("non-finite coefficient in program")


def residuals(lp: LinearProgram, x: np.ndarray) -> tuple[float, float]:
    """x's worst column bound and row violations (0 means satisfied)."""
    r = lp.A @ x
    return (float(np.maximum(lp.lower - x, x - lp.upper).max(initial=0.0)),
            float(np.maximum(lp.row_lower - r, r - lp.row_upper).max(initial=0.0)))


# HiGHS model status -> the status code ``_verdict`` reads (0 optimal,
# 1 limit, 2 infeasible, 3 unbounded, 4 anything else).
_STATUS = {
    _highs.HighsModelStatus.kOptimal: 0,
    _highs.HighsModelStatus.kIterationLimit: 1,
    _highs.HighsModelStatus.kTimeLimit: 1,
    _highs.HighsModelStatus.kInfeasible: 2,
    _highs.HighsModelStatus.kUnbounded: 3,
}


_OK = _highs.HighsStatus.kOk

# Feasibility tolerance of every solve: the re-check accepts bound and row
# violations up to ``10 * _TOL * scale``, ``scale`` being the program's
# largest finite bound or more.  HiGHS runs at _HIGHS_TOL,
# its primal and dual feasibility tolerances.
_TOL = 1e-9
_HIGHS_TOL = 1e-10

# Basis certificate tolerances.  A reduced cost within _TIE of 0 keeps its
# variable's bound: HiGHS, at its _HIGHS_TOL dual tolerance, leaves such a
# variable where it is too.  One between _TIE and _CLEAR is too close to
# call, so the day goes to HiGHS.  Basic values may leave their bounds by
# _HIGHS_TOL, as in a HiGHS optimum.
_TIE = 1e-12
_CLEAR = 1e-9

# Continuation: a pivot row entry below _PIVOT in size takes no part in the
# ratio test, so no smaller pivot enters; a pivot row and column that
# disagree on the pivot by more than _PIVOT relative send the day to HiGHS.
# The basis inverse is factored afresh after _UPDATES rank-one updates.
_PIVOT = 1e-7
_UPDATES = 32


class HighsModel:
    """One LinearProgram kept loaded in a HiGHS instance across solves.

    Change the program only through ``set_day``: it updates ``lp`` at once
    and HiGHS before its next run.  HiGHS keeps its basis through such
    changes, so ``solve_lp(model)`` restarts the simplex from the previous
    optimum, and ``certify`` can often prove the changed program optimal.
    Both re-check their point at ``scale``, which the caller vouches is at
    least the program's largest finite bound and 1.

    The program is held in bounded form: columns x and row activities r = Ax
    are the n + m variables of ``[A, -I] (x, r) = 0``, each in its box
    (a row's is ``[row_lower, row_upper]``).  The program's costs and bounds
    are views of the bounded form's, so both always agree.  The held basis
    is that of the last optimal HiGHS run, or the one ``certify`` pivoted
    to since; numpy holds its basis matrix's inverse.
    """

    def __init__(self, lp: LinearProgram, scale: float):
        n, m = lp.n_vars, lp.n_constraints
        self._cost = np.concatenate((lp.objective, np.zeros(m)))
        self._lo = np.concatenate((lp.lower, lp.row_lower))
        self._hi = np.concatenate((lp.upper, lp.row_upper))
        lp.objective, lp.lower, lp.row_lower = self._cost[:n], self._lo[:n], self._lo[n:]
        lp.upper, lp.row_upper = self._hi[:n], self._hi[n:]
        self.lp = lp
        # [A, -I], and the bounded-form index of each of HiGHS's basic
        # variable codes plus m (a column j is j, a row i is -1 - i).
        self._bounded = np.hstack((lp.A, -np.eye(m)))
        self._bounded_index = np.concatenate((np.arange(n + m - 1, n - 1, -1), np.arange(n)))
        self._cols = np.arange(n, dtype=np.int32)
        # What set_day wrote that HiGHS has not seen: every cost, and the
        # bounds of a slice of columns and of some rows; None if nothing.
        self._stale: tuple[slice, tuple[int, ...]] | None = None
        self.scale = scale
        self._basic: np.ndarray | None = None  # the held basis, if any
        self._upper: np.ndarray | None = None  # the bound each nonbasic variable is at
        self._inverse: np.ndarray | None = None  # of the basis matrix, once asked for
        self._updates = 0  # rank-one updates of _inverse since it was factored
        self._factor: tuple | None = None  # of the held basis, once a stretch asks for it
        self._varied: tuple | None = None  # the bounds stretches vary, and masks
        self.runs = 0  # HiGHS runs
        program = _highs.HighsLp()
        program.num_col_ = n
        program.num_row_ = m
        program.sense_ = _highs.ObjSense.kMaximize
        program.col_cost_ = lp.objective
        program.col_lower_ = lp.lower
        program.col_upper_ = lp.upper
        program.row_lower_ = lp.row_lower
        program.row_upper_ = lp.row_upper
        cols, rows = np.nonzero(lp.A.T)  # column-wise nonzeros
        matrix = program.a_matrix_
        matrix.format_ = _highs.MatrixFormat.kColwise
        matrix.num_col_ = n
        matrix.num_row_ = m
        matrix.start_ = np.searchsorted(cols, np.arange(n + 1)).astype(np.int32)
        matrix.index_ = rows.astype(np.int32)
        matrix.value_ = lp.A[rows, cols]
        self._highs = _highs._Highs()
        self._highs.setOptionValue("output_flag", False)
        for option in ("primal_feasibility_tolerance", "dual_feasibility_tolerance"):
            self._highs.setOptionValue(option, _HIGHS_TOL)
        if self._highs.passModel(program) == _highs.HighsStatus.kError:
            raise LPError("HiGHS rejected the program")

    def set_day(self, cost: np.ndarray, cols: slice, upper: float, row: int,
                value: float, scale: float) -> None:
        """Set all costs, ``cols``' upper bound, ``row``'s bounds and the
        re-check's ``scale``, unchecked; the caller vouches for them.  Until
        the next run, every day set must write the same ``cols`` and ``row``:
        HiGHS is passed only the last day's."""
        self.lp.objective[:] = cost
        self.lp.upper[cols] = upper
        self.lp.row_lower[row] = self.lp.row_upper[row] = value
        self.scale = scale
        self._stale = cols, (row,)

    def _sync(self) -> None:
        """Pass HiGHS the day set since its last run."""
        if self._stale is None:
            return
        lp, highs = self.lp, self._highs
        cols, rows = self._stale
        idx = self._cols[cols]
        highs.changeColsCost(lp.n_vars, self._cols, lp.objective)
        highs.changeColsBounds(len(idx), idx, lp.lower[idx], lp.upper[idx])
        for row in rows:
            highs.changeRowBounds(row, lp.row_lower[row], lp.row_upper[row])
        self._stale = None

    def run(self) -> tuple[int, np.ndarray | None, str]:
        """Re-solve from HiGHS's last basis: (status code, x, message).  An
        optimal run's basis becomes the held one."""
        highs = self._highs
        self._sync()
        self._basic = self._inverse = self._factor = None
        self.runs += 1
        if highs.run() == _highs.HighsStatus.kError:
            return 4, None, "HiGHS run failed"
        status = highs.getModelStatus()
        code = _STATUS.get(status, 4)
        x = None
        if code == 0:
            x = np.array(highs.getSolution().col_value)
            ok, basic = highs.getBasicVariables()
            if ok == _OK:
                # The bounded-form basic variables, and the bound each
                # nonbasic one sits at in the optimum x.
                self._basic = self._bounded_index[basic + len(basic)]
                value = np.concatenate((x, self.lp.A @ x))
                self._upper = value - self._lo > self._hi - value
        return code, x, highs.modelStatusToString(status)

    def _invert(self) -> bool:
        """Factor the held basis matrix (``dgetrf``) and invert it
        (``dgetri``); False if it is singular, though HiGHS's was not."""
        lu, piv, info = dgetrf(self._bounded[:, self._basic])
        inverse, info = (None, info) if info else dgetri(lu, piv)
        self._inverse, self._updates = None if info else inverse, 0
        return not info

    def certify(self, pivots: int = 0) -> tuple[LPSolution, int] | None:
        """The optimum of the current program, proven without HiGHS, and the
        dual simplex pivots taken from the held basis to prove it; or None.

        A basis stays optimal for changed costs and bounds when its dual is
        still feasible and, with every nonbasic variable at the bound its
        reduced cost favours, its primal is too (Bertsimas & Tsitsiklis,
        *Introduction to Linear Optimization*, 1997, ch. 5).  Moving a
        nonbasic variable to its other bound is the dual simplex's bound
        flip, which costs HiGHS no iteration either.  A reduced cost within
        ``_TIE`` of 0 keeps the variable's bound; one up to ``_CLEAR``
        declines, and so does a row favoured at an infinite bound.  Declines
        too while no basis is held, so the first solve always runs HiGHS.

        When only the primal test fails, up to ``pivots`` pivots of the dual
        simplex (``_pivot``) continue from the held basis, each followed by
        the same tests; a basis they reach is held from then on.  With
        ``[A, -I]``'s structure the duals are ``y = c_B B^-1``, the reduced
        costs ``(c_x - y A, y)`` and the basic values ``-B^-1 (A v_x -
        v_r)`` for the nonbasic values ``v``.  The point, put back into its
        column box, passes the feasibility re-check of ``solve_lp``.
        """
        if self._basic is None or (self._inverse is None and not self._invert()):
            return None
        cost, lo, hi, A = self._cost, self._lo, self._hi, self.lp.A
        n = self.lp.n_vars
        for pivot in range(pivots + 1):
            basic = self._basic
            y = cost[basic] @ self._inverse
            reduced = np.concatenate((cost[:n] - y @ A, y))
            reduced[basic] = 0.0
            size = np.abs(reduced)
            tied = size <= _TIE
            # A fixed variable (an equality row's) too close to call declines
            # too: rare, and safe.
            if np.count_nonzero(size < _CLEAR) != np.count_nonzero(tied):
                return None
            upper = np.where(tied, self._upper, reduced > 0.0)
            point = np.where(upper, hi, lo)
            point[basic] = 0.0
            if not math.isfinite(point.sum()):  # a row favoured at an infinite bound
                return None
            solved = self._inverse @ (point[n:] - A @ point[:n])
            # Each nonbasic variable sits at one of its bounds, so only the
            # basic ones can leave their boxes.
            lo_b, hi_b = lo[basic], hi[basic]
            below = lo_b - solved
            infeasible = np.maximum(below, solved - hi_b)
            if infeasible.max() <= _HIGHS_TOL:
                self._upper = upper
                point[basic] = np.minimum(np.maximum(solved, lo_b), hi_b)
                return _verdict(self.lp, 0, point[:n], "", self.scale), pivot
            if pivot == pivots or not self._pivot(infeasible, below > 0.0, reduced, upper):
                return None

    def _pivot(self, infeasible: np.ndarray, below: np.ndarray, reduced: np.ndarray,
               upper: np.ndarray) -> bool:
        """One pivot of the dual simplex from basic values ``infeasible`` by
        this much (``below`` their lower bounds, else above the upper), at
        nonbasic bounds ``upper``.  A basic variable leaves to the bound it
        violates, the entering variable comes from the bound-flipping ratio
        test, and the inverse takes a rank-one update.  False, for HiGHS to
        decide, when no variable can enter, the pivot is inconsistent or the
        fresh factor due after ``_UPDATES`` updates is singular.

        The leaving variable is the most infeasible one relative to the
        norm of its row of the inverse: dual steepest-edge pricing with
        exact weights (Forrest & Goldfarb, *Math. Programming* 57:341-374,
        1992), which the explicit inverse makes cheap.  The dual step moves
        each nonbasic reduced cost by its entry alpha of the pivot row;
        those that would change sign against their bound are breakpoints,
        in order of ``|reduced| / |alpha|``.  Passing one flips its variable
        to its other bound and takes ``|alpha| * (hi - lo)`` off the dual
        objective's slope, so the entering variable is the first breakpoint
        where the slope would end (Koberstein, *The dual simplex method,
        techniques for a fast and stable implementation*, PhD thesis,
        Paderborn, 2005, ch. 3); a row with an infinite bound cannot be
        passed.  Huangfu & Hall, *Math. Prog. Comp.* 10:119-142, 2018,
        describe the dual simplex of HiGHS.
        """
        basic, inverse, span = self._basic, self._inverse, self._hi - self._lo
        weights = np.einsum("ij,ij->i", inverse, inverse)
        leave = int(np.argmax(np.where(infeasible > _HIGHS_TOL, infeasible**2 / weights, 0.0)))
        to_lower, slope = bool(below[leave]), infeasible[leave]
        alpha = inverse[leave] @ self._bounded
        direction = alpha if to_lower else -alpha
        blocks = np.where(upper, direction > _PIVOT, direction < -_PIVOT) & (span > 0.0)
        blocks[basic] = False
        candidates = np.flatnonzero(blocks)
        size = np.abs(alpha[candidates])
        order = np.argsort(np.abs(reduced[candidates]) / size, kind="stable")
        candidates, size = candidates[order], size[order]
        passed = int(np.searchsorted(np.cumsum(size * span[candidates]), slope))
        if passed == len(candidates):  # the dual is unbounded: no primal point
            return False
        enter = candidates[passed]
        column = inverse @ self._bounded[:, enter]
        pivot = column[leave]
        if abs(pivot - alpha[enter]) > _PIVOT * abs(pivot):
            return False
        upper[candidates[:passed]] ^= True
        upper[basic[leave]] = not to_lower
        self._upper, self._factor = upper, None
        row = inverse[leave] / pivot
        inverse -= np.outer(column, row)
        inverse[leave] = row
        basic[leave] = enter
        self._updates += 1
        return self._updates < _UPDATES or self._invert()

    def certify_stretch(self, costs: np.ndarray, cols: slice, row: int) -> tuple | None:
        """``certify``'s dual test, in one array pass, for programs that differ
        from the current one in their costs (a row of ``costs`` each), the
        upper bound u of ``cols`` and the value s of equality row ``row``.

        None if the first fails; else, for the lead programs that pass,
        ``(base, per_u, per_s, at_upper)``: program d's bounded-form point is
        ``base[d] + u * per_u[d] + s * per_s`` and ``at_upper[d]`` its
        nonbasic bounds (ties keep the previous program's).  The maps come
        from the held basis's inverse, once per basis; every stretch names
        the same ``cols`` and ``row``.  ``check_stretch`` follows.
        """
        if self._basic is None:
            return None
        if self._factor is None:
            self._factor = self._factorize(cols, row)
        if not self._factor:  # singular, though HiGHS's factor was not: rare
            return None
        nonbasic, to_basic, reduce, per_s = self._factor
        lo, hi, cap, _ = self._varied
        reduced = costs @ reduce
        size = np.abs(reduced)
        tied = size <= _TIE
        # A fixed variable (an equality row's) too close to call fails too.
        dual = np.logical_and.reduce((size < _CLEAR) == tied, axis=1)
        upper = reduced > 0.0
        if tied.any():
            # Program d keeps the bound of the last program up to d whose
            # reduced cost is not tied (row 0 holds the bounds before).
            days, width = len(costs), len(nonbasic)
            last = np.where(tied, 0, np.arange(width, (days + 1) * width, width)[:, None])
            np.maximum.accumulate(last, axis=0, out=last)
            upper = np.vstack((self._upper[nonbasic], upper)).ravel()[last + np.arange(width)]
        value = np.where(upper, hi[nonbasic], lo[nonbasic])
        dual &= np.isfinite(value.sum(axis=1))  # no row favoured at an infinite bound
        days = int(np.argmin(np.append(dual, False)))
        if not days:
            return None
        values = np.concatenate((value[:days], upper[:days] * cap[nonbasic]))
        points = np.empty((2 * days, len(self._cost)))
        points[:, nonbasic] = values
        points[:, self._basic] = values @ to_basic
        return points[:days], points[days:], per_s, upper[:days]

    def _factorize(self, cols: slice, row: int) -> tuple:
        """With W = B^-1 N (basis matrix B, nonbasic columns N of ``[A,
        -I]``): the nonbasic variables, -W^T (nonbasic to basic values), the
        map from costs to nonbasic reduced costs, and the point per unit of
        ``row``'s value; () if B is singular."""
        basic = self._basic
        if self._inverse is None and not self._invert():
            return ()
        n, size = self.lp.n_vars, len(self._cost)
        if self._varied is None:
            cap, at_row = np.zeros(size), np.zeros(size)
            cap[cols] = at_row[n + row] = 1.0
            self._varied = (np.where(at_row > 0.0, 0.0, self._lo),
                            np.where(cap + at_row > 0.0, 0.0, self._hi), cap, at_row)
        is_basic = np.zeros(size, dtype=bool)
        is_basic[basic] = True
        nonbasic = np.flatnonzero(~is_basic)
        to_basic = -(self._inverse @ self._bounded[:, nonbasic]).T
        reduce = np.zeros((n, len(nonbasic)))
        reduce[basic[basic < n]] = to_basic.T[basic < n]
        reduce[nonbasic[nonbasic < n], np.flatnonzero(nonbasic < n)] += 1.0
        at_row = self._varied[3][nonbasic]
        per_s = np.empty(size)
        per_s[nonbasic], per_s[basic] = at_row, at_row @ to_basic
        return nonbasic, to_basic, reduce, per_s

    def check_stretch(self, stretch: tuple, upper: np.ndarray, value: np.ndarray,
                      scale: np.ndarray) -> tuple[int, LPError | None, np.ndarray]:
        """``certify``'s primal test and ``_verdict``'s re-check of the first
        programs of ``stretch``, program d at u ``upper[d]``, s ``value[d]``
        and re-check scale ``scale[d]``: how many lead programs pass both,
        the re-check's error if the next one fails only that, and their
        points (x), put back into their column boxes.  The last passing
        program's bounds are kept for ties.
        """
        base, per_u, per_s, at_upper = stretch
        n, days = self.lp.n_vars, len(upper)
        lo, hi, cap, at_row = self._varied
        u, s = upper[:, None], value[:, None]
        point = base[:days] + u * per_u[:days] + s * per_s
        lo, hi = lo + s * at_row, hi + u * cap + s * at_row
        violation = np.maximum(lo - point, point - hi)
        primal = violation[:, self._basic].max(axis=1) <= _HIGHS_TOL
        bounds = violation[:, :n].max(axis=1, initial=0.0)
        x = point[:, :n]
        if bounds.max() > 0.0:
            x = np.minimum(np.maximum(x, lo[:, :n]), hi[:, :n])
        r = x @ self.lp.A.T
        rows = np.maximum(lo[:, n:] - r, r - hi[:, n:]).max(axis=1, initial=0.0)
        atol = _TOL * scale * 10.0
        count = int(np.argmin(np.append(primal & (bounds <= atol) & (rows <= atol), False)))
        error = None
        if count < days and primal[count]:
            error = _recheck_error(bounds[count], rows[count], atol[count])
        if count:
            self._upper[self._factor[0]] = at_upper[count - 1]
        return count, error, x


def solve_lp(model: HighsModel) -> LPSolution:
    """Maximize the model's program from the basis of its previous solve,
    verifying primal feasibility against ``_TOL`` at the model's ``scale``.

    Deterministic for an identical history of solves.  Raises
    IterationLimitError when the solver hits its iteration limit without a
    verdict (distinct from infeasible), and LPError if the solver reports
    success but the solution fails the feasibility re-check.
    """
    return _verdict(model.lp, *model.run(), model.scale)


def _verdict(lp: LinearProgram, status: int, x: np.ndarray | None, message: str,
             scale: float) -> LPSolution:
    """The LPSolution for a solver's status code and point, after the
    feasibility re-check: every bound and row holds within ``10 * _TOL *
    scale``."""
    if status == 2:
        return LPSolution("infeasible", None, None)
    if status == 3:
        return LPSolution("unbounded", None, None)
    if status == 1:
        raise IterationLimitError("iteration limit exceeded before a verdict")
    if status != 0:
        raise LPError(f"solver failure: {message}")

    x = np.asarray(x, dtype=float)
    atol = _TOL * scale * 10.0
    bounds, rows = residuals(lp, x)
    if not (bounds <= atol and rows <= atol):
        raise _recheck_error(bounds, rows, atol)
    return LPSolution("optimal", x, float(lp.objective @ x))


def _recheck_error(bounds: float, rows: float, atol: float) -> LPError:
    return LPError(f"solution failed feasibility re-check: bounds {bounds:.3g}, "
                   f"rows {rows:.3g} > {atol:.3g}")
