"""Small dense linear programs with box bounds, plus an enumeration oracle.

``solve_lp`` handles the production path (maximization, finite box bounds,
general <= / = / >= rows) and is backed by the HiGHS solver via scipy: by
default through ``linprog``, or through a ``HighsModel`` that keeps one
program loaded in HiGHS so that each re-solve of a modified program starts
from the previous basis.
``enumerate_oracle`` independently finds the optimum of small instances by
exhaustive basic-feasible-point enumeration: every way of activating n
constraints (variable bounds, inequality rows, and the always-active
equality rows) is solved for and checked for feasibility.  The two paths
never share solve logic, so they can cross-check each other in tests.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

try:  # the HiGHS binding behind linprog; scipy before 1.15 does not expose it
    from scipy.optimize._highspy import _core as _highs
except ImportError:
    _highs = None

LE, EQ, GE = "<=", "==", ">="

# Whether HighsModel can run; without the binding only linprog solves.
HIGHS_BINDING = _highs is not None

_ORACLE_MAX_VARS = 12
# Candidate batches are chunked so intermediate tensors stay ~tens of MB.
_ORACLE_CHUNK_ELEMS = 4_000_000


class LPError(Exception):
    """Base class for LP kernel failures."""


class DimensionError(LPError):
    """Malformed program: mismatched dimensions or invalid bounds."""


class IterationLimitError(LPError):
    """Solver hit its iteration limit before reaching a verdict."""


@dataclass
class LinearProgram:
    """max objective @ x  s.t.  lower <= x <= upper and A x (<=, ==, >=) rhs.

    All bounds must be finite; the scheduler always supplies finite boxes.
    """

    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    A: np.ndarray
    relations: list[str]
    rhs: np.ndarray

    def __post_init__(self):
        self.objective = np.atleast_1d(np.asarray(self.objective, dtype=float))
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        self.A = np.asarray(self.A, dtype=float).reshape(-1, self.n_vars)
        self.rhs = np.atleast_1d(np.asarray(self.rhs, dtype=float)) if np.size(self.rhs) else np.zeros(0)
        self.relations = list(self.relations)
        _validate(self)

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    @property
    def n_constraints(self) -> int:
        return len(self.relations)


@dataclass
class LPSolution:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    x: np.ndarray | None
    objective_value: float | None


def _validate(lp: LinearProgram) -> None:
    n = lp.n_vars
    if n < 1:
        raise DimensionError("program must have at least one variable")
    if len(lp.lower) != n or len(lp.upper) != n:
        raise DimensionError(
            f"bound lengths ({len(lp.lower)}, {len(lp.upper)}) != n_vars {n}")
    if lp.A.shape != (len(lp.relations), n):
        raise DimensionError(
            f"constraint matrix {lp.A.shape} inconsistent with "
            f"{len(lp.relations)} relations over {n} vars")
    if len(lp.rhs) != len(lp.relations):
        raise DimensionError(f"rhs length {len(lp.rhs)} != {len(lp.relations)} relations")
    for rel in lp.relations:
        if rel not in (LE, EQ, GE):
            raise DimensionError(f"unknown relation {rel!r}")
    if not (np.all(np.isfinite(lp.lower)) and np.all(np.isfinite(lp.upper))):
        raise DimensionError("all variable bounds must be finite")
    if np.any(lp.lower > lp.upper):
        bad = int(np.flatnonzero(lp.lower > lp.upper)[0])
        raise DimensionError(f"lower > upper for variable {bad}")
    if not np.all(np.isfinite(lp.A)) or not np.all(np.isfinite(lp.rhs)) \
            or not np.all(np.isfinite(lp.objective)):
        raise DimensionError("non-finite coefficient in program")


@functools.lru_cache(maxsize=32)
def _row_masks(relations: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (LE, GE) row masks of a relations tuple; the other rows are EQ.

    Keyed on the relations themselves, so a cached pair always describes
    the program it is asked for.
    """
    rel = np.array(relations)
    le, ge = rel == LE, rel == GE
    le.flags.writeable = ge.flags.writeable = False
    return le, ge


def residuals(lp: LinearProgram, x: np.ndarray) -> dict[str, float]:
    """Worst-case feasibility violations of x (0 means satisfied)."""
    bound_viol = float(max((lp.lower - x).max(initial=0.0),
                           (x - lp.upper).max(initial=0.0)))
    le, ge = _row_masks(tuple(lp.relations))
    r = lp.A @ x - lp.rhs
    viol = np.where(le, r, np.where(ge, -r, np.abs(r)))
    return {"bounds": bound_viol, "constraints": float(viol.max(initial=0.0))}


def _scale(lp: LinearProgram) -> float:
    parts = [1.0, float(np.abs(lp.lower).max()), float(np.abs(lp.upper).max())]
    if lp.n_constraints:
        parts.append(float(np.abs(lp.rhs).max()))
    return max(parts)


# HiGHS model status -> linprog status (0 optimal, 1 limit, 2 infeasible,
# 3 unbounded, 4 anything else), so both paths share one verdict.
_LINPROG_STATUS = {} if _highs is None else {
    _highs.HighsModelStatus.kOptimal: 0,
    _highs.HighsModelStatus.kIterationLimit: 1,
    _highs.HighsModelStatus.kTimeLimit: 1,
    _highs.HighsModelStatus.kInfeasible: 2,
    _highs.HighsModelStatus.kUnbounded: 3,
}


def _highs_tolerance(tol: float) -> float:
    return max(tol / 10.0, 1e-10)


class HighsModel:
    """One LinearProgram kept loaded in a HiGHS instance across solves.

    Change the program only through ``set_objective``, ``set_upper`` and
    ``set_rhs``: each updates ``lp`` and HiGHS alike.  HiGHS keeps its basis
    through such changes, so ``solve_lp(model.lp, model=model)`` restarts the
    simplex from the previous optimum.  Needs ``HIGHS_BINDING``.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        n, m = lp.n_vars, lp.n_constraints
        self._cols = np.arange(n, dtype=np.int32)
        self._tol: float | None = None
        le, ge = _row_masks(tuple(lp.relations))
        program = _highs.HighsLp()
        program.num_col_ = n
        program.num_row_ = m
        program.sense_ = _highs.ObjSense.kMaximize
        program.col_cost_ = lp.objective
        program.col_lower_ = lp.lower
        program.col_upper_ = lp.upper
        program.row_lower_ = np.where(le, -_highs.kHighsInf, lp.rhs)
        program.row_upper_ = np.where(ge, _highs.kHighsInf, lp.rhs)
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
        if self._highs.passModel(program) == _highs.HighsStatus.kError:
            raise LPError("HiGHS rejected the program")

    def set_objective(self, objective: np.ndarray) -> None:
        if not np.isfinite(objective).all():
            raise DimensionError("non-finite coefficient in program")
        self.lp.objective[:] = objective
        self._highs.changeColsCost(self.lp.n_vars, self._cols, self.lp.objective)

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
        idx = self._cols[cols]
        self._highs.changeColsBounds(len(idx), idx, lower, self.lp.upper[cols])

    def set_rhs(self, row: int, value: float) -> None:
        if not math.isfinite(value):
            raise DimensionError("non-finite coefficient in program")
        self.lp.rhs[row] = value
        rel = self.lp.relations[row]
        self._highs.changeRowBounds(row, -_highs.kHighsInf if rel == LE else value,
                                    _highs.kHighsInf if rel == GE else value)

    def run(self, tol: float) -> tuple[int, np.ndarray | None, str]:
        """Re-solve from the current basis: (linprog status, x, message)."""
        highs = self._highs
        if tol != self._tol:
            for option in ("primal_feasibility_tolerance", "dual_feasibility_tolerance"):
                highs.setOptionValue(option, _highs_tolerance(tol))
            self._tol = tol
        if highs.run() == _highs.HighsStatus.kError:
            return 4, None, "HiGHS run failed"
        status = highs.getModelStatus()
        code = _LINPROG_STATUS.get(status, 4)
        x = np.array(highs.getSolution().col_value) if code == 0 else None
        return code, x, highs.modelStatusToString(status)


def _solve_linprog(lp: LinearProgram, tol: float,
                   max_iter: int | None) -> tuple[int, np.ndarray | None, str]:
    rel = np.array(lp.relations)
    le_rows = rel == LE
    ge_rows = rel == GE
    eq_rows = rel == EQ

    A_ub = b_ub = A_eq = b_eq = None
    if np.any(le_rows) or np.any(ge_rows):
        A_ub = np.vstack([lp.A[le_rows], -lp.A[ge_rows]])
        b_ub = np.concatenate([lp.rhs[le_rows], -lp.rhs[ge_rows]])
    if np.any(eq_rows):
        A_eq = lp.A[eq_rows]
        b_eq = lp.rhs[eq_rows]

    options = {
        "presolve": True,
        "primal_feasibility_tolerance": _highs_tolerance(tol),
        "dual_feasibility_tolerance": _highs_tolerance(tol),
    }
    if max_iter is not None:
        options["maxiter"] = max_iter
        options["presolve"] = False  # presolve can mask the iteration cap
    result = linprog(
        -lp.objective,
        A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
        bounds=np.column_stack([lp.lower, lp.upper]),
        method="highs",
        options=options,
    )
    return result.status, result.x, result.message


def solve_lp(lp: LinearProgram, tol: float = 1e-9,
             max_iter: int | None = None,
             model: HighsModel | None = None) -> LPSolution:
    """Maximize the program, verifying primal feasibility against tol.

    Without ``model`` the program is solved from scratch by ``linprog``;
    with one (whose ``lp`` is this program) HiGHS re-solves it from the
    basis of the model's previous solve.  ``max_iter`` caps the ``linprog``
    path only.  Deterministic for identical input (and, with a model, an
    identical history of solves).  Raises IterationLimitError when the
    solver hits its iteration limit without a verdict (distinct from
    infeasible), and LPError if the solver reports success but the solution
    fails the feasibility re-check.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if model is None:
        status, x, message = _solve_linprog(lp, tol, max_iter)
    elif model.lp is not lp:
        raise ValueError("model holds a different program")
    elif max_iter is not None:
        raise ValueError("max_iter applies to the linprog path only")
    else:
        status, x, message = model.run(tol)

    if status == 2:
        return LPSolution("infeasible", None, None)
    if status == 3:
        return LPSolution("unbounded", None, None)
    if status == 1:
        raise IterationLimitError("iteration limit exceeded before a verdict")
    if status != 0:
        raise LPError(f"solver failure: {message}")

    x = np.asarray(x, dtype=float)
    atol = tol * _scale(lp) * 10.0
    viol = residuals(lp, x)
    if viol["bounds"] > atol or viol["constraints"] > atol:
        raise LPError(f"solution failed feasibility re-check: {viol} > {atol}")
    return LPSolution("optimal", x, float(lp.objective @ x))


def oracle_cost(lp: LinearProgram) -> int:
    """Number of candidate basic points enumerate_oracle would visit.

    Useful for keeping randomized test instances inside a runtime budget.
    """
    from math import comb

    n = lp.n_vars
    e = sum(r == EQ for r in lp.relations)
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
    """
    n = lp.n_vars
    if n > _ORACLE_MAX_VARS:
        raise DimensionError(f"oracle limited to {_ORACLE_MAX_VARS} variables, got {n}")
    rel = np.array(lp.relations)
    eq_idx = np.flatnonzero(rel == EQ)
    ineq_idx = np.flatnonzero(rel != EQ)
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
            sub_ok = np.ones(len(vals), dtype=bool)
            for ci, r in enumerate(lp.relations):
                diff = vals[:, ci] - lp.rhs[ci]
                if r == LE:
                    sub_ok &= diff <= atol
                elif r == GE:
                    sub_ok &= diff >= -atol
                else:
                    sub_ok &= np.abs(diff) <= atol
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
            r_act = lp.rhs[active_rows]  # (k,)
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
