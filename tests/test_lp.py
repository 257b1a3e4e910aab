import numpy as np
import pytest

from swapval import lp as lp_module
from swapval.lp import (
    DimensionError,
    HighsModel,
    IterationLimitError,
    LinearProgram,
    _TOL,
    residuals,
    solve_lp,
)

from _generators import random_lp
from _reference import enumerate_oracle, oracle_cost, rewrite, solve_fresh, solve_lp_linprog

INF = np.inf


def test_single_bound_active_variable():
    lp = LinearProgram([3.0], [0.0], [5.0], np.zeros((0, 1)), [], [])
    sol = solve_fresh(lp)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(5.0)
    assert sol.objective_value == pytest.approx(15.0)


def test_infeasible():
    lp = LinearProgram([1.0], [0.0], [1.0], [[1.0]], [2.0], [INF])
    assert solve_fresh(lp).status == "infeasible"
    assert enumerate_oracle(lp).status == "infeasible"


def test_two_variable_vertex():
    # max 2x+y s.t. x+y <= 4, 0 <= x <= 3, 0 <= y <= 3
    lp = LinearProgram([2.0, 1.0], [0.0, 0.0], [3.0, 3.0], [[1.0, 1.0]], [-INF], [4.0])
    sol = solve_fresh(lp)
    assert sol.objective_value == pytest.approx(7.0)
    assert sol.x == pytest.approx([3.0, 1.0])
    oracle = enumerate_oracle(lp)
    assert oracle.objective_value == pytest.approx(7.0)
    assert oracle.x == pytest.approx([3.0, 1.0])


def test_degenerate_zero_objective():
    lp = LinearProgram([0.0], [0.0], [1.0], np.zeros((0, 1)), [], [])
    oracle = enumerate_oracle(lp)
    assert oracle.status == "optimal"
    assert oracle.objective_value == 0.0
    assert 0.0 <= oracle.x[0] <= 1.0


def test_oracle_rejects_large_instances():
    n = 13
    lp = LinearProgram(np.ones(n), np.zeros(n), np.ones(n), np.zeros((0, n)), [], [])
    with pytest.raises(DimensionError, match="12"):
        enumerate_oracle(lp)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionError):
        LinearProgram([1.0, 2.0], [0.0], [1.0], np.zeros((0, 2)), [], [])
    with pytest.raises(DimensionError):
        LinearProgram([1.0], [0.0], [1.0], [[1.0, 2.0]], [-INF], [1.0])
    with pytest.raises(DimensionError, match="lower > upper"):
        LinearProgram([1.0], [2.0], [1.0], np.zeros((0, 1)), [], [])
    with pytest.raises(DimensionError, match="finite"):
        LinearProgram([1.0], [0.0], [np.inf], np.zeros((0, 1)), [], [])


@pytest.mark.parametrize("row_lower,row_upper", [
    ([np.nan], [1.0]), ([0.0], [np.nan]), ([2.0], [1.0]), ([INF], [INF]), ([-INF], [-INF]),
    ([0.0, 0.0], [1.0]), ([0.0], [1.0, 1.0]),
], ids=["nan-lower", "nan-upper", "crossed", "lower-plus-inf", "upper-minus-inf",
        "long-lower", "long-upper"])
def test_bad_row_bounds_rejected(row_lower, row_upper):
    with pytest.raises(DimensionError):
        LinearProgram([1.0], [0.0], [1.0], [[1.0]], row_lower, row_upper)


def test_oracle_agreement_on_200_random_lps(rng):
    """solve_lp and the enumeration oracle agree within 1e-6 relative."""
    for trial in range(200):
        lp = random_lp(rng, max_vars=8, max_rows=10)
        sol = solve_fresh(lp)
        oracle = enumerate_oracle(lp)
        assert sol.status == "optimal", f"trial {trial}: {sol.status}"
        assert oracle.status == "optimal", f"trial {trial}: {oracle.status}"
        scale = max(1.0, abs(oracle.objective_value))
        assert abs(sol.objective_value - oracle.objective_value) <= 1e-6 * scale, (
            f"trial {trial}: solver {sol.objective_value} "
            f"vs oracle {oracle.objective_value}")


def test_objective_scaling_property(rng):
    """Scaling the objective by c > 0 scales the optimum and keeps the
    returned point optimal for the unscaled program."""
    for _ in range(25):
        lp = random_lp(rng, max_vars=6, max_rows=6)
        base = solve_fresh(lp)
        factor = float(rng.uniform(0.1, 50.0))
        scaled = LinearProgram(lp.objective * factor, lp.lower, lp.upper,
                               lp.A, lp.row_lower, lp.row_upper)
        scaled_sol = solve_fresh(scaled)
        scale = max(1.0, abs(base.objective_value) * factor)
        assert abs(scaled_sol.objective_value - factor * base.objective_value) \
            <= 1e-6 * scale
        # The scaled argmax must still attain the unscaled optimum.
        revalue = float(lp.objective @ scaled_sol.x)
        assert abs(revalue - base.objective_value) <= 1e-6 * max(1.0, abs(revalue))


def test_feasibility_residuals_within_tol(rng):
    for _ in range(50):
        lp = random_lp(rng, max_vars=7, max_rows=8)
        sol = solve_fresh(lp)
        bounds, constraints = residuals(lp, sol.x)
        rows = np.concatenate((lp.row_lower, lp.row_upper))
        scale = max(1.0, float(np.abs(rows[np.isfinite(rows)]).max(initial=0.0)))
        assert bounds <= _TOL * scale * 10
        assert constraints <= _TOL * scale * 10
        assert sol.objective_value == pytest.approx(float(lp.objective @ sol.x))


def test_oracle_handles_equalities():
    # max x+y s.t. x+y == 1, 0 <= x,y <= 1
    lp = LinearProgram([1.0, 1.0], [0, 0], [1, 1], [[1.0, 1.0]], [1.0], [1.0])
    oracle = enumerate_oracle(lp)
    assert oracle.objective_value == pytest.approx(1.0)


def test_oracle_cost_counts_candidates():
    lp = LinearProgram([1.0, 1.0], [0, 0], [1, 1], [[1.0, 1.0]], [-INF], [1.5])
    # j=0: 2^2 corners; j=1: C(2,1) free choices * 2 sides each = 4
    assert oracle_cost(lp) == 8


def test_unbounded_defensive():
    # Spec keeps bounds finite; build an unbounded instance via the raw
    # scipy path is not possible here, so check the finite-bounds guard.
    with pytest.raises(DimensionError):
        LinearProgram([1.0], [0.0], [np.inf], np.zeros((0, 1)), [], [])


def test_iteration_limit_reported_distinctly(monkeypatch):
    lp = LinearProgram([-1.0, -2.0, 1.0], [0, 0, 0], [10, 10, 10],
                       [[1, 1, 1], [1, -1, 0], [0, 1, 1]],
                       [-INF, -INF, -INF], [4.0, 1.0, 3.0])
    model = HighsModel(lp)
    with monkeypatch.context() as patch:  # every HiGHS run reads the options
        patch.setitem(lp_module._OPTIONS, "presolve", "off")
        patch.setitem(lp_module._OPTIONS, "simplex_iteration_limit", 1)
        with pytest.raises(IterationLimitError):
            solve_lp(model)
    with pytest.raises(IterationLimitError):
        solve_lp_linprog(lp, max_iter=1)
    # The same instance is perfectly feasible without the cap.
    assert solve_fresh(lp).status == "optimal"


def _loop_residuals(lp, x):
    """Row-by-row reference for the vectorised residuals."""
    bound_viol = float(max(np.max(lp.lower - x, initial=0.0),
                           np.max(x - lp.upper, initial=0.0)))
    con_viol = 0.0
    vals = lp.A @ x
    for i, (lower, upper) in enumerate(zip(lp.row_lower, lp.row_upper)):
        if lower == upper:
            viol = abs(vals[i] - upper)
        elif lower == -INF:
            viol = vals[i] - upper
        else:
            viol = lower - vals[i]
        con_viol = max(con_viol, viol)
    return bound_viol, float(con_viol)


def test_residuals_equal_the_row_loop(rng):
    for _ in range(100):
        lp = random_lp(rng, max_vars=7, max_rows=8)
        x = rng.uniform(lp.lower - 1.0, lp.upper + 1.0)
        assert residuals(lp, x) == _loop_residuals(lp, x)


def test_highs_model_matches_linprog_through_updates(rng):
    """A held model re-solved after each change agrees with a cold linprog."""
    for _ in range(30):
        lp = random_lp(rng, max_vars=7, max_rows=8)
        model = HighsModel(lp)
        for step in range(4):
            if step:
                objective = rng.normal(size=lp.n_vars) * 10.0
                cols = slice(0, lp.n_vars // 2 + 1)
                upper = lp.upper[cols] + rng.uniform(0.0, 1.0)
                rows = {}
                if lp.n_constraints:
                    row = int(rng.integers(lp.n_constraints))
                    # Loosen the row so the program stays feasible; an
                    # equality row keeps its bounds.
                    loosen = rng.uniform(0.0, 1.0) * (lp.row_lower[row] < lp.row_upper[row])
                    rows[row] = lp.row_lower[row] - loosen, lp.row_upper[row] + loosen
                rewrite(model, objective, cols, upper, rows)
            warm = solve_lp(model)
            cold = solve_lp_linprog(lp)
            assert warm.status == cold.status == "optimal"
            assert warm.objective_value == pytest.approx(cold.objective_value,
                                                         rel=1e-9, abs=1e-9)


def test_highs_model_verdicts_and_misuse():
    """A held model reports an optimum, then the infeasible program a
    rewritten row makes of it."""
    lp = LinearProgram([1.0], [0.0], [1.0], [[1.0]], [0.5], [INF])
    model = HighsModel(lp)
    assert solve_lp(model).x[0] == pytest.approx(1.0)
    rewrite(model, [1.0], rows={0: (2.0, INF)})
    assert solve_lp(model).status == "infeasible"


class TestCertify:
    """``HighsModel.certify`` on max c1 x1 + c2 x2, x1 + x2 <= b, 0 <= x <= 1.

    From c = (1, -1) and b = 1.5 the optimum is (1, 0) with the row slack
    strictly inside its bound, so the row is the one basic variable, and the
    reduced cost of x2 is c2 itself.
    """

    @staticmethod
    def _solved_model():
        lp = LinearProgram([1.0, -1.0], [0.0, 0.0], [1.0, 1.0], [[1.0, 1.0]], [-INF], [1.5])
        model = HighsModel(lp)
        assert model.certify() is None  # nothing to certify from before a run
        assert solve_lp(model).x.tolist() == [1.0, 0.0]
        return model

    @staticmethod
    def _x(model, pivots=0):
        """The certified point, asserting it took exactly ``pivots`` pivots."""
        sol, taken = model.certify(16 if pivots else 0)
        assert taken == pivots
        return sol.x.tolist()

    def test_unchanged_program_certifies(self):
        model = self._solved_model()
        assert self._x(model) == [1.0, 0.0]

    @pytest.mark.parametrize("c2", [-5e-8, -1e-13, 0.0, 1e-13])
    def test_clear_or_tied_reduced_cost_keeps_the_bound(self, c2):
        model = self._solved_model()
        rewrite(model, [1.0, c2])
        assert self._x(model) == [1.0, 0.0]

    @pytest.mark.parametrize("c2", [-5e-10, -2e-12, 2e-12, 5e-10])
    def test_reduced_cost_too_close_to_call_declines(self, c2):
        model = self._solved_model()
        rewrite(model, [1.0, c2])
        assert model.certify() is None
        assert model.certify(16) is None

    def test_bound_flip_certifies_when_the_basis_stays_feasible(self):
        model = self._solved_model()
        rewrite(model, [1.0, 0.3], rows={0: (-INF, 2.5)})
        assert self._x(model) == [1.0, 1.0]
        assert solve_lp(model).x.tolist() == [1.0, 1.0]

    def test_bound_flip_that_breaks_the_basis_continues_by_a_pivot(self):
        model = self._solved_model()
        rewrite(model, [1.0, 0.3])
        assert model.certify() is None  # x2 at 1 would push the row to 2 > 1.5
        # One pivot (the row out, x2 in) reaches HiGHS's optimum, and its
        # basis is held: it certifies the same program without a pivot.
        assert self._x(model, pivots=1) == [1.0, 0.5]
        assert self._x(model) == [1.0, 0.5]
        assert model.runs == 1
        assert solve_lp(model).x.tolist() == [1.0, 0.5]
        assert self._x(model) == [1.0, 0.5]  # and so does HiGHS's new basis

    def test_a_basic_value_just_outside_its_box_is_put_back(self):
        """max x1 + 2 x2 over x1 + x2 == b, 0 <= x1 <= 1, 0 <= x2 <= u: x2 at
        u and x1 = b - u basic.  At b = 0.3 and u = 0.1 + 0.2 the basic value
        is -5.6e-17, inside the primal test's 1e-10; the certified point has
        x1 = 0.0, as HiGHS would report it."""
        lp = LinearProgram([1.0, 2.0], [0.0, 0.0], [1.0, 0.3], [[1.0, 1.0]], [0.5], [0.5])
        model = HighsModel(lp)
        assert solve_lp(model).x.tolist() == [0.2, 0.3]
        rewrite(model, [1.0, 2.0], slice(1, 2), 0.1 + 0.2, {0: (0.3, 0.3)})
        assert self._x(model) == [0.0, 0.1 + 0.2]

    def test_a_slack_favoured_at_minus_infinity_declines(self):
        model = self._solved_model()
        rewrite(model, [1.0, 0.3])
        solve_lp(model)  # x2 basic, the row at its bound 1.5
        # The row's reduced cost is now c2 < 0: it favours the row's lower
        # bound, -inf, and only a pivot (x2 out, the row in) reaches (1, 0).
        # The continuation leaves that to HiGHS.
        rewrite(model, [1.0, -0.3])
        assert model.certify(16) is None
        assert solve_lp(model).x.tolist() == [1.0, 0.0]


class TestContinuation:
    """``certify``'s dual simplex continuation on max c @ x over 0 <= x <= 1
    with rows of x's that sum to at most 3 (slack basic, every x at 1) until
    the rows are tightened."""

    @staticmethod
    def _model(c, rows):
        n = len(c)
        A = np.zeros((len(rows), n))
        for i, cols in enumerate(rows):
            A[i, cols] = 1.0
        lp = LinearProgram(c, np.zeros(n), np.ones(n), A, [-INF] * len(rows),
                           [3.0] * len(rows))
        model = HighsModel(lp)
        assert solve_lp(model).x.tolist() == [1.0] * n
        return model

    def test_bound_flips_settle_a_row_in_one_pivot(self):
        """The row x1 + x2 + x3 <= 1: the textbook ratio test enters x1 (the
        smallest reduced cost) and needs another pivot; passing x1's
        breakpoint flips it to 0 and enters x2 at 0, one pivot in all."""
        model = self._model([1.0, 2.0, 3.0], [[0, 1, 2]])
        rewrite(model, [1.0, 2.0, 3.0], rows={0: (-INF, 1.0)})
        sol, pivots = model.certify(16)
        assert pivots == 1 and sol.x.tolist() == [0.0, 0.0, 1.0]
        assert sol.x.tolist() == solve_lp(model).x.tolist()

    def test_spent_pivots_decline(self):
        """Two tightened rows need a pivot each: one allowed pivot declines."""
        model = self._model([1.0, 2.0, 1.0, 2.0], [[0, 1], [2, 3]])
        rows = {0: (-INF, 1.0), 1: (-INF, 1.0)}
        rewrite(model, [1.0, 2.0, 1.0, 2.0], rows=rows)
        assert model.certify(1) is None
        model = self._model([1.0, 2.0, 1.0, 2.0], [[0, 1], [2, 3]])
        rewrite(model, [1.0, 2.0, 1.0, 2.0], rows=rows)
        sol, pivots = model.certify(16)
        assert pivots == 2 and sol.x.tolist() == [0.0, 1.0, 0.0, 1.0]
        assert model.runs == 1

    def test_continued_days_match_highs_on_random_programs(self, rng):
        """On random programs whose costs and bounds move between solves,
        every continued optimum is HiGHS's within a relative 1e-9, and the
        held inverse stays the basis matrix's inverse."""
        continued = 0
        for _ in range(60):
            lp = random_lp(rng, max_vars=7, max_rows=8)
            model = HighsModel(lp)
            solve_lp(model)
            for _ in range(4):
                cols = slice(0, lp.n_vars // 2 + 1)
                rewrite(model, lp.objective + rng.normal(size=lp.n_vars), cols,
                        lp.upper[cols] * rng.uniform(0.5, 1.0))
                found = model.certify(16)
                want = solve_lp_linprog(lp)
                if found is None:
                    assert solve_lp(model).objective_value == pytest.approx(
                        want.objective_value, rel=1e-9, abs=1e-9)
                    continue
                sol, pivots = found
                assert sol.objective_value == pytest.approx(want.objective_value,
                                                            rel=1e-9, abs=1e-9)
                basis = model._bounded[:, model._basic]
                np.testing.assert_allclose(model._inverse @ basis, np.eye(len(basis)),
                                           atol=1e-9)
                continued += pivots > 0
        assert continued >= 10
