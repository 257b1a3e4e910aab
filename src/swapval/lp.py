"""Small dense linear programs with box bounds, solved by HiGHS.

``solve_lp`` maximizes a program with finite column boxes and rows bounded
as ``row_lower <= A x <= row_upper`` (HiGHS's own form) through scipy's
bundled HiGHS binding.  A ``HighsModel`` keeps one program loaded in HiGHS,
so that each re-solve of a modified program starts from the previous basis;
without one, ``solve_lp`` loads the program into a fresh model.
``HighsModel.certify`` proves a modified program optimal without HiGHS when
the basis of the last run still does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
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
    if not _row_bounds_ok(lp.row_lower, lp.row_upper).all():
        raise DimensionError("row bounds must be ordered, not NaN, nor both +inf or both -inf")
    if not np.all(np.isfinite(lp.A)) or not np.all(np.isfinite(lp.objective)):
        raise DimensionError("non-finite coefficient in program")


def _row_bounds_ok(lower, upper):
    """Where row bounds are ordered, not NaN, nor both +inf or both -inf."""
    return (lower <= upper) & (lower < np.inf) & (upper > -np.inf)


def residuals(lp: LinearProgram, x: np.ndarray) -> dict[str, float]:
    """Worst-case feasibility violations of x (0 means satisfied)."""
    bound_viol = float(np.maximum(lp.lower - x, x - lp.upper).max(initial=0.0))
    r = lp.A @ x
    viol = np.maximum(lp.row_lower - r, r - lp.row_upper)
    return {"bounds": bound_viol, "constraints": float(viol.max(initial=0.0))}


def _scale(lp: LinearProgram) -> float:
    """The feasibility re-check's tolerance scale: the largest finite bound, at least 1."""
    bounds = np.abs(np.concatenate((lp.lower, lp.upper, lp.row_lower, lp.row_upper)))
    return max(1.0, float(bounds[bounds < np.inf].max()))


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
# violations up to ``10 * _TOL * _scale(lp)``.  HiGHS runs at _HIGHS_TOL,
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


class HighsModel:
    """One LinearProgram kept loaded in a HiGHS instance across solves.

    Change the program only through ``set_objective``, ``set_upper`` and
    ``set_row_bounds``: each updates ``lp`` at once and HiGHS before its next
    run.  HiGHS keeps its basis through such changes, so ``solve_lp(model.lp,
    model=model)`` restarts the simplex from the previous optimum, and
    ``certify`` can often prove the changed program optimal without it.

    The program is held in bounded form: columns x and row activities r = Ax
    are the n + m variables of ``[A, -I] (x, r) = 0``, each in its box
    (a row's is ``[row_lower, row_upper]``).  The program's costs and bounds
    are views of the bounded form's, so both always agree.
    """

    def __init__(self, lp: LinearProgram):
        n, m = lp.n_vars, lp.n_constraints
        self._cost = np.concatenate((lp.objective, np.zeros(m)))
        self._lo = np.concatenate((lp.lower, lp.row_lower))
        self._hi = np.concatenate((lp.upper, lp.row_upper))
        lp.objective, lp.lower, lp.row_lower = self._cost[:n], self._lo[:n], self._lo[n:]
        lp.upper, lp.row_upper = self._hi[:n], self._hi[n:]
        self.lp = lp
        # [A, -I]^T, and the bounded-form index of each of HiGHS's basic
        # variable codes plus m (a column j is j, a row i is -1 - i).
        self._bounded_t = np.vstack((lp.A.T, -np.eye(m)))
        self._bounded_index = np.concatenate((np.arange(n + m - 1, n - 1, -1), np.arange(n)))
        self._cols = np.arange(n, dtype=np.int32)
        # Changes HiGHS has not seen yet: costs, column bounds, row bounds.
        self._stale_cost = False
        self._stale_cols = np.zeros(n, dtype=bool)
        self._stale_rows: set[int] = set()
        # The optimal point of the last run, until certify reads its basis.
        self._solved: np.ndarray | None = None
        self._basis: tuple | None = None
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

    def set_objective(self, objective: np.ndarray) -> None:
        if not np.isfinite(objective).all():
            raise DimensionError("non-finite coefficient in program")
        self.lp.objective[:] = objective
        self._stale_cost = True

    def set_upper(self, cols: slice, value) -> None:
        """Set the upper bounds of ``cols``: one float for all, or one per column."""
        lower = self.lp.lower[cols]
        if isinstance(value, float):
            finite = math.isfinite(value)
        else:
            value = np.broadcast_to(np.asarray(value, dtype=float), lower.shape)
            finite = np.isfinite(value).all()
        if not (finite and (lower <= value).all()):
            raise DimensionError("upper bounds must be finite and >= lower")
        self.lp.upper[cols] = value
        self._stale_cols[cols] = True

    def set_row_bounds(self, row: int, lower: float, upper: float) -> None:
        if not _row_bounds_ok(lower, upper):
            raise DimensionError(f"row bounds ({lower}, {upper}) admit no activity")
        self.lp.row_lower[row] = lower
        self.lp.row_upper[row] = upper
        self._stale_rows.add(row)

    def _sync(self) -> None:
        """Pass HiGHS the changes made since its last run."""
        highs, n = self._highs, self.lp.n_vars
        if self._stale_cost:
            highs.changeColsCost(n, self._cols, self.lp.objective)
            self._stale_cost = False
        if self._stale_cols.any():
            idx = self._cols[self._stale_cols]
            highs.changeColsBounds(len(idx), idx, self.lp.lower[idx], self.lp.upper[idx])
            self._stale_cols[:] = False
        for row in self._stale_rows:
            highs.changeRowBounds(row, self.lp.row_lower[row], self.lp.row_upper[row])
        self._stale_rows.clear()

    def run(self) -> tuple[int, np.ndarray | None, str]:
        """Re-solve from the current basis: (status code, x, message)."""
        highs = self._highs
        self._sync()
        self._solved = self._basis = None
        if highs.run() == _highs.HighsStatus.kError:
            return 4, None, "HiGHS run failed"
        status = highs.getModelStatus()
        code = _STATUS.get(status, 4)
        x = np.array(highs.getSolution().col_value) if code == 0 else None
        self._solved = x
        return code, x, highs.modelStatusToString(status)

    def _read_basis(self, x: np.ndarray) -> tuple | None:
        """The certificate's view of the last run's optimal basis, or None.

        That is the basic and nonbasic variables of the bounded form, the
        nonbasic rows of ``[A, -I]^T``, the bound each nonbasic variable sits
        at in the optimum ``x``, and the signs that turn a solve with HiGHS's
        basis matrix (whose row variable columns are +e_i) into a basic point.
        """
        status, basic = self._highs.getBasicVariables()
        if status != _OK:
            return None
        basic = self._bounded_index[basic + len(basic)]
        is_basic = np.zeros(len(self._cost), dtype=bool)
        is_basic[basic] = True
        nonbasic = np.flatnonzero(~is_basic)
        value = np.concatenate((x, self.lp.A @ x))[nonbasic]
        at_upper = value - self._lo[nonbasic] > self._hi[nonbasic] - value
        sign = np.where(basic < self.lp.n_vars, -1.0, 1.0)
        return basic, nonbasic, self._bounded_t[nonbasic], at_upper, sign

    def certify(self) -> LPSolution | None:
        """The optimum of the current program, proven without HiGHS, or None.

        The basis of the last run stays optimal for changed costs and bounds
        when its dual is still feasible and, with every nonbasic variable at
        the bound its reduced cost favours, its primal is too (Bertsimas &
        Tsitsiklis, *Introduction to Linear Optimization*, 1997, ch. 5).
        Moving a nonbasic variable to its other bound is the dual simplex's
        bound flip, which costs HiGHS no iteration either.  A reduced cost
        within ``_TIE`` of 0 keeps the variable's bound; one up to ``_CLEAR``
        declines.  Declines too when no run has solved the program since it
        was loaded, so the first solve always runs HiGHS.  The solves with
        the basis matrix use the factor HiGHS holds from that run: nothing
        passes HiGHS a change before the next run.

        The point passes the feasibility re-check of ``solve_lp``.
        """
        if self._basis is None:
            if self._solved is None:
                return None
            self._basis = self._read_basis(self._solved)
            self._solved = None
            if self._basis is None:
                return None
        basic, nonbasic, bounded_n, at_upper, sign = self._basis
        cost, lo, hi, highs = self._cost, self._lo, self._hi, self._highs
        status, y = highs.getBasisTransposeSolve(cost[basic])
        reduced = cost[nonbasic] - bounded_n @ y
        size = np.abs(reduced)
        # A fixed variable (an equality row's) too close to call declines
        # too: rare, and safe.
        if status != _OK or ((size > _TIE) & (size < _CLEAR)).any():
            return None
        at_upper = np.where(size <= _TIE, at_upper, reduced > 0.0)
        value = np.where(at_upper, hi[nonbasic], lo[nonbasic])
        if not math.isfinite(value.sum()):  # a row favoured at an infinite bound
            return None
        status, solved = highs.getBasisSolve(value @ bounded_n)
        point = np.empty(len(cost))
        point[nonbasic] = value
        point[basic] = sign * solved
        if status != _OK or not ((point - lo).min() >= -_HIGHS_TOL
                                 and (hi - point).min() >= -_HIGHS_TOL):
            return None
        self._basis = basic, nonbasic, bounded_n, at_upper, sign
        return _verdict(self.lp, 0, point[:self.lp.n_vars], "")


def solve_lp(lp: LinearProgram, model: HighsModel | None = None) -> LPSolution:
    """Maximize the program, verifying primal feasibility against ``_TOL``.

    Without ``model`` the program is loaded into a fresh ``HighsModel`` and
    solved from scratch; with one (whose ``lp`` is this program) HiGHS
    re-solves it from the basis of the model's previous solve.
    Deterministic for identical input (and, with a model, an identical
    history of solves).  Raises IterationLimitError when the solver hits
    its iteration limit without a verdict (distinct from infeasible), and
    LPError if the solver reports success but the solution fails the
    feasibility re-check.
    """
    if model is None:
        model = HighsModel(lp)
    elif model.lp is not lp:
        raise ValueError("model holds a different program")
    return _verdict(lp, *model.run())


def _verdict(lp: LinearProgram, status: int, x: np.ndarray | None, message: str) -> LPSolution:
    """The LPSolution for a solver's status code and point, after the
    feasibility re-check."""
    if status == 2:
        return LPSolution("infeasible", None, None)
    if status == 3:
        return LPSolution("unbounded", None, None)
    if status == 1:
        raise IterationLimitError("iteration limit exceeded before a verdict")
    if status != 0:
        raise LPError(f"solver failure: {message}")

    x = np.asarray(x, dtype=float)
    atol = _TOL * _scale(lp) * 10.0
    viol = residuals(lp, x)
    if viol["bounds"] > atol or viol["constraints"] > atol:
        raise LPError(f"solution failed feasibility re-check: {viol} > {atol}")
    return LPSolution("optimal", x, float(lp.objective @ x))
