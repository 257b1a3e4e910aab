import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapval import optimizers
from swapval.lifecycle import simulate_lifecycle
from swapval.optimizers import (
    DemandPriceCurve,
    SweepError,
    demand_at_price,
    optimize_mdc,
    optimize_price_for_curve,
    refine_mdc,
    sweep_swap_price,
)
from swapval.scheduler import BatterySpec, SwapTerms

MDC_GRID = [0.0, 20.0, 40.0, 60.0]


class TestOptimizeMdc:
    def test_flat_zero_prices_best_at_zero(self, tiny_battery, econ, flat_zero_series):
        sweep = optimize_mdc(tiny_battery, econ, flat_zero_series, None,
                             [0.0, 10.0, 20.0], reserve_enabled=False)
        assert sweep.mu_star == 0.0
        assert sweep.lb_at_star == 0.0
        assert all(row["lb_star"] <= 0.0 for row in sweep.grid)

    def test_argmax_exactness_and_tie_break(self, econ, flat_zero_series):
        # No fade, no prices: every mu gives lb = 0; ties break low.
        eternal = BatterySpec(2.7, 2.7, 0.95, cycle_life=5.0, calendar_fade_per_year=0.0)
        import dataclasses
        econ_short = dataclasses.replace(econ, horizon_cap_years=1)
        sweep = optimize_mdc(eternal, econ_short, flat_zero_series, None,
                             [0.0, 5.0, 10.0], reserve_enabled=False)
        assert sweep.mu_star == 0.0
        assert sweep.lb_at_star == max(r["lb_star"] for r in sweep.grid)

    def test_grid_argmax_dominates_all_rows(self, tiny_battery, econ, two_level_series):
        sweep = optimize_mdc(tiny_battery, econ, two_level_series, None,
                             MDC_GRID, reserve_enabled=False)
        assert sweep.lb_at_star >= max(r["lb_star"] for r in sweep.grid) - 1e-12
        assert any(r["mu"] == sweep.mu_star for r in sweep.grid)

    def test_grid_validation(self, tiny_battery, econ, flat_zero_series):
        with pytest.raises(ValueError):
            optimize_mdc(tiny_battery, econ, flat_zero_series, None, [])
        with pytest.raises(ValueError):
            optimize_mdc(tiny_battery, econ, flat_zero_series, None, [5.0, 5.0])
        with pytest.raises(ValueError):
            optimize_mdc(tiny_battery, econ, flat_zero_series, None, [-1.0, 5.0])

    def test_rows_decompose_lb(self, tiny_battery, econ, two_level_series):
        sweep = optimize_mdc(tiny_battery, econ, two_level_series, None,
                             [0.0, 30.0], reserve_enabled=True)
        for row in sweep.grid:
            assert row["lb_star"] == pytest.approx(
                row["arbitrage_revenue"] + row["reserve_revenue"])


class TestRefineMdc:
    def test_bracket_containment_and_improvement(self, tiny_battery, econ,
                                                 two_level_series):
        coarse = optimize_mdc(tiny_battery, econ, two_level_series, None,
                              [0.0, 30.0, 60.0, 90.0], reserve_enabled=False)
        fine = refine_mdc(coarse, tiny_battery, econ, two_level_series, None,
                          step=10.0, reserve_enabled=False)
        assert abs(fine.mu_star - coarse.mu_star) <= 30.0 + 1e-9
        assert fine.lb_at_star >= coarse.lb_at_star - 1e-9

    def test_edge_argmax_clamps_at_zero(self, tiny_battery, econ, flat_zero_series):
        coarse = optimize_mdc(tiny_battery, econ, flat_zero_series, None,
                              [0.0, 10.0, 20.0], reserve_enabled=False)
        assert coarse.mu_star == 0.0
        fine = refine_mdc(coarse, tiny_battery, econ, flat_zero_series, None,
                          step=5.0, reserve_enabled=False)
        assert min(r["mu"] for r in fine.grid) == 0.0

    def test_step_validation(self, tiny_battery, econ, flat_zero_series):
        coarse = optimize_mdc(tiny_battery, econ, flat_zero_series, None,
                              [0.0, 10.0], reserve_enabled=False)
        with pytest.raises(ValueError):
            refine_mdc(coarse, tiny_battery, econ, flat_zero_series, None, step=10.0)
        with pytest.raises(ValueError):
            refine_mdc(coarse, tiny_battery, econ, flat_zero_series, None, step=0.0)


class TestSweepSwapPrice:
    def test_unprofitable_price_matches_no_swap_baseline(self, tiny_battery, econ,
                                                         flat_zero_series):
        # Swap price below labor cost on flat prices: channel never used.
        baseline = optimize_mdc(tiny_battery, econ, flat_zero_series, None,
                                [0.0, 20.0], reserve_enabled=False)
        rows = sweep_swap_price(tiny_battery, econ, flat_zero_series,
                                [5.0], 2.7, [0.0, 20.0], labor_cost=10.0,
                                reserve_enabled=False)
        assert rows[0]["lb_star"] == baseline.lb_at_star
        assert rows[0]["mu_star"] == baseline.mu_star

    def test_nesting_consistency(self, tiny_battery, econ, two_level_series):
        """A sweep row reproduces a standalone optimize_mdc bit for bit."""
        price, cap = 120.0, 2.0
        rows = sweep_swap_price(tiny_battery, econ, two_level_series,
                                [price], cap, MDC_GRID, labor_cost=10.0,
                                reserve_enabled=False)
        standalone = optimize_mdc(tiny_battery, econ, two_level_series,
                                  SwapTerms(price, cap, 10.0), MDC_GRID,
                                  reserve_enabled=False)
        assert rows[0]["mu_star"] == standalone.mu_star
        assert rows[0]["lb_star"] == standalone.lb_at_star

    def test_row_schema(self, tiny_battery, econ, two_level_series):
        rows = sweep_swap_price(tiny_battery, econ, two_level_series,
                                [0.0, 120.0], 2.0, [0.0, 30.0],
                                reserve_enabled=False)
        assert [r["swap_price"] for r in rows] == [0.0, 120.0]
        assert set(rows[0]) == {"swap_price", "mu_star", "lb_star", "abu", "days_lived"}


class TestDemandCurve:
    def test_extinction_point(self):
        curve = DemandPriceCurve(slope=-10.0, intercept=180.0)
        assert demand_at_price(curve, 180.0) == 0.0

    def test_linear_demand(self):
        curve = DemandPriceCurve(slope=-10.0, intercept=180.0)
        assert demand_at_price(curve, 80.0) == pytest.approx(10.0)

    def test_clamped_above_extinction(self):
        curve = DemandPriceCurve(slope=-10.0, intercept=180.0)
        assert demand_at_price(curve, 200.0) == 0.0

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            DemandPriceCurve(slope=1.0, intercept=100.0)
        with pytest.raises(ValueError):
            DemandPriceCurve(slope=-1.0, intercept=0.0)

    @settings(max_examples=60, deadline=None)
    @given(slope=st.floats(-50.0, -0.1), intercept=st.floats(0.1, 300.0),
           price=st.floats(0.0, 400.0))
    def test_demand_non_negative_and_decreasing(self, slope, intercept, price):
        curve = DemandPriceCurve(slope=slope, intercept=intercept)
        d = demand_at_price(curve, price)
        assert d >= 0.0
        assert demand_at_price(curve, min(price + 10.0, 400.0)) <= d + 1e-12


class TestOptimizePriceForCurve:
    def test_degenerate_curve_ties_to_lowest_price(self, tiny_battery, econ,
                                                   flat_zero_series):
        # All candidate prices sit at/above the extinction price: demand 0
        # everywhere, every lb equals the no-swap baseline, tie-break low.
        curve = DemandPriceCurve(slope=-10.0, intercept=5.0)
        result = optimize_price_for_curve(tiny_battery, econ, flat_zero_series,
                                          curve, [10.0, 20.0, 30.0], [0.0, 20.0],
                                          reserve_enabled=False)
        baseline = optimize_mdc(tiny_battery, econ, flat_zero_series, None,
                                [0.0, 20.0], reserve_enabled=False)
        assert result.price_star == 10.0
        assert result.demand_star == 0.0
        assert result.lb_star == pytest.approx(baseline.lb_at_star, rel=1e-6, abs=1e-9)

    def test_steeper_curve_never_prices_higher(self, tiny_battery, econ,
                                               two_level_series):
        grid = [40.0, 80.0, 120.0, 160.0]
        mdc = [0.0, 30.0]
        shallow = optimize_price_for_curve(
            tiny_battery, econ, two_level_series,
            DemandPriceCurve(slope=-20.0, intercept=180.0), grid, mdc,
            reserve_enabled=False)
        steep = optimize_price_for_curve(
            tiny_battery, econ, two_level_series,
            DemandPriceCurve(slope=-80.0, intercept=180.0), grid, mdc,
            reserve_enabled=False)
        assert steep.price_star <= shallow.price_star + 1e-9

    def test_swap_dominance_over_grid(self, tiny_battery, econ, two_level_series):
        """An available, profitable swap channel never hurts: lb with swap
        >= lb without at every candidate MDC."""
        grid = [0.0, 25.0, 50.0]
        with_swap = optimize_mdc(tiny_battery, econ, two_level_series,
                                 SwapTerms(150.0, 2.7, 10.0), grid,
                                 reserve_enabled=False)
        without = optimize_mdc(tiny_battery, econ, two_level_series, None, grid,
                               reserve_enabled=False)
        for row_s, row_n in zip(with_swap.grid, without.grid):
            assert row_s["lb_star"] >= row_n["lb_star"] - 1e-9


class TestSweepEngine:
    """One pool per optimizer call, a clamped and validated worker count,
    and failures that name their grid point and stop the grid."""

    def test_worker_count_default_and_clamp(self, monkeypatch):
        monkeypatch.delenv("SWAPVAL_THREADS", raising=False)
        assert optimizers._worker_count(1) == 1
        usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
            else os.cpu_count()
        assert optimizers._worker_count(1000) == usable
        # A process pinned to one CPU runs one worker, however many the machine has.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert optimizers._worker_count(1000) == 1
        monkeypatch.setenv("SWAPVAL_THREADS", "64")
        assert optimizers._worker_count(3) == 3
        monkeypatch.setenv("SWAPVAL_THREADS", " 2 ")
        assert optimizers._worker_count(5) == 2

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", "2x"])
    def test_worker_count_rejects_malformed(self, monkeypatch, value):
        monkeypatch.setenv("SWAPVAL_THREADS", value)
        with pytest.raises(ValueError, match="SWAPVAL_THREADS"):
            optimizers._worker_count(3)

    @staticmethod
    def _count_pools(monkeypatch):
        started = []

        class CountingPool(optimizers.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs.get("max_workers", args[0] if args else None))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(optimizers, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setenv("SWAPVAL_THREADS", "2")
        return started

    def test_price_sweep_runs_one_pool(self, monkeypatch, tiny_battery, econ,
                                       two_level_series):
        started = self._count_pools(monkeypatch)
        rows = sweep_swap_price(tiny_battery, econ, two_level_series, [0.0, 60.0, 120.0],
                                2.0, [0.0, 30.0], reserve_enabled=False)
        assert len(rows) == 3
        assert started == [2]

    def test_curve_sweep_runs_one_pool(self, monkeypatch, tiny_battery, econ,
                                       two_level_series):
        started = self._count_pools(monkeypatch)
        result = optimize_price_for_curve(
            tiny_battery, econ, two_level_series,
            DemandPriceCurve(slope=-20.0, intercept=180.0), [40.0, 120.0, 200.0],
            [0.0, 30.0], reserve_enabled=False)
        assert len(result.rows) == 3
        assert started == [2]

    def test_sweep_keeps_argmax_lifecycle(self, tiny_battery, econ, two_level_series):
        sweep = optimize_mdc(tiny_battery, econ, two_level_series,
                             SwapTerms(120.0, 2.0, 10.0), MDC_GRID, reserve_enabled=False)
        again = simulate_lifecycle(tiny_battery, econ, two_level_series, sweep.mu_star,
                                   swap_policy=SwapTerms(120.0, 2.0, 10.0),
                                   reserve_enabled=False, keep_daily_log=False)
        assert sweep.best.mu == sweep.mu_star
        assert sweep.best.lb_star == sweep.lb_at_star == again.lb_star
        assert sweep.best.days_lived == again.days_lived

    def test_failing_point_names_price_cap_and_mu(self, monkeypatch, tiny_battery, econ,
                                                  flat_zero_series):
        real = optimizers.simulate_lifecycle

        def failing(spec, econ, prices, mu, swap_policy=None, **kwargs):
            if swap_policy is not None and swap_policy.swap_price == 50.0 and mu == 20.0:
                raise RuntimeError("boom")
            return real(spec, econ, prices, mu, swap_policy=swap_policy, **kwargs)

        monkeypatch.setattr(optimizers, "simulate_lifecycle", failing)
        monkeypatch.setenv("SWAPVAL_THREADS", "1")
        with pytest.raises(SweepError) as info:
            sweep_swap_price(tiny_battery, econ, flat_zero_series, [0.0, 50.0],
                             1.5, [0.0, 20.0], reserve_enabled=False)
        message = str(info.value)
        assert "swap price=50.0" in message
        assert "cap=1.5" in message
        assert "mu=20.0" in message
        assert "boom" in message

    def test_failing_point_cancels_pending_points(self, monkeypatch, tmp_path, tiny_battery,
                                                  econ, flat_zero_series):
        # The first point fails at once; each later one takes 0.3 s.  Forked
        # workers inherit the patched module attribute.  Besides the failed
        # point, only the two running points and the three the pool has
        # already queued may run: the other 18 are cancelled.
        def slow_or_failing(spec, econ, prices, mu, **kwargs):
            (tmp_path / f"ran-{mu}").touch()
            if mu == 0.0:
                raise RuntimeError("first point fails")
            time.sleep(0.3)
            raise RuntimeError("a later point ran")

        monkeypatch.setattr(optimizers, "simulate_lifecycle", slow_or_failing)
        monkeypatch.setenv("SWAPVAL_THREADS", "2")
        grid = [float(mu) for mu in range(24)]
        with pytest.raises(SweepError, match="no swap, mu=0.0: first point fails"):
            optimize_mdc(tiny_battery, econ, flat_zero_series, None, grid)
        assert len(list(tmp_path.glob("ran-*"))) <= 6


class TestDistinctPoints:
    """Each distinct (swap terms, mu) point runs once, lowest mu first, and
    the results come back in grid order."""

    CURVES = [DemandPriceCurve(slope=-20.0, intercept=100.0),
              DemandPriceCurve(slope=-80.0, intercept=100.0)]
    PRICES = [40.0, 100.0, 140.0]  # demand is 0 at 100 and 140 under both curves

    @staticmethod
    def _count_runs(monkeypatch):
        runs = []
        real = optimizers.simulate_lifecycle

        def counting(spec, econ, prices, mu, swap_policy=None, **kwargs):
            runs.append((swap_policy, mu))
            return real(spec, econ, prices, mu, swap_policy=swap_policy, **kwargs)

        monkeypatch.setattr(optimizers, "simulate_lifecycle", counting)
        monkeypatch.setenv("SWAPVAL_THREADS", "1")
        return runs

    def test_curves_run_each_distinct_point_once_lowest_mu_first(
            self, monkeypatch, tiny_battery, econ, two_level_series):
        runs = self._count_runs(monkeypatch)
        mdc = [0.0, 30.0, 60.0]
        together = optimizers.optimize_price_for_curves(
            tiny_battery, econ, two_level_series, self.CURVES, self.PRICES, mdc,
            reserve_enabled=False)
        # 2 curves x 3 prices x 3 mu, less the zero-demand prices' 6 repeats.
        assert len(runs) == len(set(runs)) == 12
        assert [mu for _, mu in runs] == sorted(mu for _, mu in runs)
        assert [swap for swap, mu in runs if mu == 0.0] == [
            SwapTerms(40.0, 3.0, 10.0), SwapTerms(100.0, 0.0, 10.0),
            SwapTerms(140.0, 0.0, 10.0), SwapTerms(40.0, 0.75, 10.0)]

        runs.clear()
        apart = [optimize_price_for_curve(tiny_battery, econ, two_level_series, curve,
                                          self.PRICES, mdc, reserve_enabled=False)
                 for curve in self.CURVES]
        assert len(runs) == 18
        assert together == apart

    def test_duplicate_policies_share_their_lifecycles(self, monkeypatch, tiny_battery,
                                                       econ, two_level_series):
        runs = self._count_runs(monkeypatch)
        swap = SwapTerms(120.0, 2.0, 10.0)
        first, again, none = optimizers.optimize_mdc_each(
            tiny_battery, econ, two_level_series, [swap, SwapTerms(120.0, 2.0, 10.0), None],
            MDC_GRID, reserve_enabled=False)
        assert len(runs) == 2 * len(MDC_GRID)
        assert first.grid == again.grid and first.best is again.best
        alone = optimize_mdc(tiny_battery, econ, two_level_series, None, MDC_GRID,
                             reserve_enabled=False)
        assert none.grid == alone.grid and none.mu_star == alone.mu_star

    def test_workers_clamped_to_distinct_points(self, monkeypatch, tiny_battery, econ,
                                                flat_zero_series):
        started = TestSweepEngine._count_pools(monkeypatch)
        monkeypatch.setenv("SWAPVAL_THREADS", "3")
        # The same curve twice: 4 grid points, 2 of them distinct.
        curve = DemandPriceCurve(slope=-10.0, intercept=5.0)
        optimizers.optimize_price_for_curves(
            tiny_battery, econ, flat_zero_series, [curve, curve], [10.0], [0.0, 20.0],
            reserve_enabled=False)
        assert started == [2]
