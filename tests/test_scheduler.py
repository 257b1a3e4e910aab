import dataclasses
import itertools

import numpy as np
import pytest

import swapval.scheduler as scheduler
from swapval.lp import LPError, _verdict
from swapval.market_data import HourlyPriceSeries, synth_price_series
from swapval.scheduler import (
    NO_SWAP,
    TIE_BREAK_EPS,
    BatterySpec,
    DailyModel,
    ScheduleError,
    SwapTerms,
    build_daily_lp,
    certify_days,
    money_rows,
    solve_day,
)

from _generators import random_day, random_oracle_day
from _reference import (DailySchedule, DayInput, _objective, _scale, build_compact_lp,
                        build_daily_lp_rows, check_schedule, enumerate_oracle, kernel_for_day,
                        schedule_of, solve_fresh, solve_lp_linprog, solve_one_day,
                        solve_schedule)

ETA = 0.95


def flat_day(battery, level=50.0, mu=35.0, q=0.5, swap=NO_SWAP, reserve=False,
             soc=0.0, capacity=2.7, reserve_level=0.0):
    series = synth_price_series("flat", days=1, level=level, reserve_level=reserve_level)
    return DayInput(battery=battery, lmp=series.lmp, reserve_price=series.reserve_price,
                    amdc=mu, swap=swap, soc_start=soc, capacity_now=capacity,
                    calendar_throughput_today=q, reserve_enabled=reserve)


class TestBuildDailyLP:
    def test_flat_prices_idle_is_optimal(self, battery):
        """With flat prices and eta < 1, any cycle loses money, so the
        optimum is the all-zero schedule and sb is just the calendar term."""
        day = flat_day(battery)
        schedule = solve_one_day(day)
        assert schedule.charge.max() == pytest.approx(0.0, abs=1e-9)
        assert schedule.discharge.max() == pytest.approx(0.0, abs=1e-9)
        assert schedule.sb_star == pytest.approx(-17.5, abs=1e-9)
        # Cross-check idleness on a 3-hour reduction against the oracle.
        compact = build_compact_lp(day, hours=3)
        oracle = enumerate_oracle(compact)
        assert oracle.objective_value == pytest.approx(0.0, abs=1e-12)

    def test_zero_prices_zero_mu_optimum_zero(self, battery):
        day = flat_day(battery, level=0.0, mu=0.0, q=0.0)
        schedule = solve_one_day(day)
        assert schedule.lp_objective == pytest.approx(0.0, abs=1e-9)
        assert schedule.sb_star == pytest.approx(0.0, abs=1e-9)

    def test_two_level_arbitrage_margin(self, battery, two_level_series):
        """Per-MWh-charged profit equals hi*eta^2 - lo - mu*(1 + eta^2)."""
        day = DayInput(battery=battery, lmp=two_level_series.lmp,
                       reserve_price=two_level_series.reserve_price, amdc=35.0,
                       swap=NO_SWAP, soc_start=0.0, capacity_now=2.7,
                       calendar_throughput_today=0.0, reserve_enabled=False)
        schedule = solve_one_day(day)
        charged = schedule.charge.sum()
        assert charged > 0
        margin = schedule.sb_star / charged
        expected = 90.0 * ETA**2 - 10.0 - 35.0 * (1.0 + ETA**2)
        assert margin == pytest.approx(expected, abs=1e-6)
        # Oracle cross-check on a 4-hour reduction (2 low + 2 high hours).
        short = DayInput(battery=battery,
                         lmp=np.concatenate([[10.0, 10.0, 90.0, 90.0], np.zeros(20)]),
                         reserve_price=np.zeros(24), amdc=35.0, swap=NO_SWAP,
                         soc_start=0.0, capacity_now=2.7, reserve_enabled=False)
        full = solve_fresh(build_daily_lp_rows(short, 4))
        oracle = enumerate_oracle(build_compact_lp(short, hours=4))
        assert full.objective_value == pytest.approx(oracle.objective_value,
                                                     rel=1e-9, abs=1e-9)

    @staticmethod
    def _day_0(day):
        """The program the day's one-day kernel builds for its day 0."""
        return build_daily_lp(kernel_for_day(day), 0, day.soc_start, day.capacity_now)

    def test_variable_order_and_shapes(self, battery):
        assert self._day_0(flat_day(battery, reserve=True)).n_vars == 5 * 24
        assert self._day_0(flat_day(battery, reserve=False)).n_vars == 4 * 24

    @pytest.mark.parametrize("hours", [1, 2, 3, 4, 24])
    @pytest.mark.parametrize("reserve", [False, True])
    def test_block_layout_equals_the_row_loops(self, hours, reserve):
        """The kernel's day-0 program is the row-by-row program, bit for bit,
        over swap cap, starting SOC and self-discharge, each zero and not.
        Its columns and rows of the first ``hours`` hours (and the cap row)
        are the row-by-row program of those hours, which the short-day tests
        solve."""
        for cap, soc, rho in itertools.product([0.0, 2.7], [0.0, 1.3], [0.0, 0.01]):
            battery = BatterySpec(energy_capacity_0=2.7, power_limit=2.7, efficiency=ETA,
                                  self_discharge=rho)
            day = DayInput(battery=battery, lmp=np.linspace(-20.0, 100.0, 24),
                           reserve_price=np.linspace(0.0, 15.0, 24), amdc=35.0,
                           swap=SwapTerms(120.0, cap), soc_start=soc, capacity_now=2.7,
                           reserve_enabled=reserve)
            block, rows = self._day_0(day), build_daily_lp_rows(day, hours)
            # Each column's and row's hour; the cap row counts as hour 0.
            col_hour = np.arange(block.n_vars) % 24
            row_hour = np.concatenate((np.arange(24), [0], np.arange(48) % 24))
            cols, kept = col_hour < hours, row_hour[:block.n_constraints] < hours
            for name, part in (("objective", block.objective[cols]),
                               ("lower", block.lower[cols]), ("upper", block.upper[cols]),
                               ("A", block.A[np.ix_(kept, cols)]),
                               ("row_lower", block.row_lower[kept]),
                               ("row_upper", block.row_upper[kept])):
                assert np.array_equal(part, getattr(rows, name)), (name, cap, soc, rho)


class TestSolveDay:
    def test_swap_channel_used_to_cap(self, battery):
        """Swap price far above labor+degradation fills the daily cap."""
        day = flat_day(battery, level=50.0, mu=35.0, q=0.0,
                       swap=SwapTerms(160.0, 2.7, 10.0))
        schedule = solve_one_day(day)
        assert schedule.swap_out.sum() == pytest.approx(2.7, abs=1e-7)
        # Exact optimum on a 4-hour reduction with a 0.5 MWh cap.
        short = flat_day(battery, level=50.0, mu=35.0, q=0.0,
                         swap=SwapTerms(160.0, 0.5, 10.0))
        full = solve_fresh(build_daily_lp_rows(short, 4))
        oracle = enumerate_oracle(build_compact_lp(short, hours=4))
        assert full.objective_value == pytest.approx(
            oracle.objective_value, rel=1e-9, abs=1e-9)

    def test_swap_drains_eta_times_soc(self):
        """With no charging, a full drain delivers eta * soc_start."""
        battery = BatterySpec(2.7, 2.7, 0.9)
        day = flat_day(battery, level=0.0, mu=20.0, q=0.0,
                       swap=SwapTerms(40.0, 2.7, 10.0), soc=2.7)
        schedule = solve_one_day(day)
        assert schedule.charge.sum() == pytest.approx(0.0, abs=1e-9)
        assert schedule.swap_out.sum() == pytest.approx(0.9 * 2.7, abs=1e-7)
        # Oracle confirmation on a 3-hour reduction of the same terms.
        short = flat_day(battery, level=0.0, mu=20.0, q=0.0,
                         swap=SwapTerms(40.0, 2.7, 10.0), soc=2.7)
        full = solve_fresh(build_daily_lp_rows(short, 3))
        oracle = enumerate_oracle(build_compact_lp(short, hours=3))
        assert full.objective_value == pytest.approx(
            oracle.objective_value, rel=1e-9, abs=1e-9)

    def test_schedule_invariants_hold(self, battery, rng):
        for _ in range(10):
            day = random_day(rng, hours=24, with_swap=True, with_reserve=True)
            schedule = solve_one_day(day)
            check_schedule(schedule, day)

    def test_oracle_equivalence_families(self, rng):
        """The daily LP at a reduced horizon matches exhaustive enumeration
        across channel mixes, including reserve and self-discharge."""
        for i in range(40):
            day, hours = random_oracle_day(rng, i)
            sol = solve_fresh(build_daily_lp_rows(day, hours))
            oracle = enumerate_oracle(build_compact_lp(day, hours))
            scale = max(1.0, abs(oracle.objective_value))
            assert abs(sol.objective_value - oracle.objective_value) <= 1e-6 * scale, (
                f"instance {i}: solver {sol.objective_value} "
                f"vs oracle {oracle.objective_value}")

    def test_reserve_earns_without_throughput(self, battery):
        """Reserve pays on stored energy without consuming budget."""
        day = flat_day(battery, level=50.0, mu=1000.0, q=0.0, reserve=True,
                       soc=2.7, reserve_level=5.0)
        schedule = solve_one_day(day)
        assert schedule.reserve_offer.sum() > 0
        assert schedule.throughput_today == pytest.approx(0.0, abs=1e-7)
        assert schedule.reserve_revenue > 0


class TestDecomposeProfit:
    def test_all_zero_schedule(self, battery):
        day = flat_day(battery)
        schedule = solve_one_day(day)
        parts = check_schedule(schedule, day)
        assert parts == pytest.approx(
            {"energy": 0.0, "swap": 0.0, "reserve": 0.0, "revenue": 0.0, "labor": 0.0,
             "degradation": 17.5, "sb_star": -17.5})

    def test_single_discharge_hour(self, battery):
        """1 MWh discharged at 90 with mu=35, q=0.5."""
        lmp = np.zeros(24)
        lmp[5] = 90.0
        day = DayInput(battery=battery, lmp=lmp, reserve_price=np.zeros(24),
                       amdc=35.0, swap=NO_SWAP, soc_start=2.7, capacity_now=2.7,
                       calendar_throughput_today=0.5, reserve_enabled=False)
        discharge = np.zeros(24)
        discharge[5] = 1.0
        soc = np.full(24, 2.7)
        soc[5:] = 2.7 - 1.0 / ETA
        schedule = DailySchedule(
            charge=np.zeros(24), discharge=discharge, swap_out=np.zeros(24),
            reserve_offer=np.zeros(24), soc=soc,
            market_revenue=90.0, swap_labor_cost=0.0,
            degradation_cost=35.0 * 1.5, sb_star=90.0 - 52.5,
            throughput_today=1.5, energy_revenue=90.0)
        parts = check_schedule(schedule, day)
        assert parts["revenue"] == pytest.approx(90.0)
        assert parts["degradation"] == pytest.approx(35.0 * (1.0 + 0.5))

    def test_corrupted_schedule_detected(self, battery):
        day = flat_day(battery)
        schedule = solve_one_day(day)
        schedule.market_revenue += 5.0
        with pytest.raises(ScheduleError, match="profit identity"):
            check_schedule(schedule, day)

    # One corruption per invariant, each in place on hour 12 of a solved day.
    CORRUPTIONS = {
        "SOC recursion": lambda s, d: np.put(s.soc, 12, s.soc[12] + 1e-3),
        "negative SOC": lambda s, d: np.put(s.soc, 12, -1e-3),
        "SOC above capacity": lambda s, d: np.put(s.soc, 12, d.capacity_now + 1e-3),
        "power limit": lambda s, d: np.put(s.charge, 12, d.battery.power_limit + 1e-3),
        "swap above daily cap": lambda s, d: np.put(s.swap_out, 12,
                                                    s.swap_out[12] + d.swap.daily_swap_cap),
        "reserve headroom": lambda s, d: np.put(
            s.reserve_offer, 12, d.battery.power_limit - s.discharge[12] + 1e-3),
        "reserve energy coupling": lambda s, d: np.put(
            s.reserve_offer, 12, d.battery.efficiency * s.soc[12] + 1e-3),
        "profit identity": lambda s, d: setattr(s, "sb_star", s.sb_star + 1.0),
    }

    @pytest.mark.parametrize("invariant", list(CORRUPTIONS))
    def test_each_violated_invariant_is_named(self, battery, two_level_series, invariant):
        day = DayInput(battery=battery, lmp=two_level_series.lmp,
                       reserve_price=np.full(24, 5.0), amdc=10.0,
                       swap=SwapTerms(160.0, 2.0, 10.0), soc_start=1.0, capacity_now=2.7,
                       calendar_throughput_today=0.5, reserve_enabled=True)
        model = kernel_for_day(day)
        schedule = solve_schedule(model, 0, day.soc_start, day.capacity_now)

        def recheck():
            """The feasibility re-check every solved day passes in production,
            at the kernel's scale."""
            x = np.concatenate([schedule.charge, schedule.discharge, schedule.swap_out,
                                schedule.soc, schedule.reserve_offer])
            return _verdict(model.held.lp, 0, x, "", model.held.scale)

        check_schedule(schedule, day)
        recheck()
        self.CORRUPTIONS[invariant](schedule, day)
        with pytest.raises(ScheduleError, match=invariant):
            check_schedule(schedule, day)
        if invariant != "profit identity":  # the one invariant that is no LP row
            with pytest.raises(LPError, match="feasibility re-check"):
                recheck()


class TestScheduleProperties:
    def test_no_wasteful_co_activity(self, rng):
        """With mu > 0 and prices above the co-activity threshold, no hour
        both charges and discharges."""
        for _ in range(20):
            day = random_day(rng, hours=24, with_swap=True, with_reserve=False,
                             roomy_capacity=False)
            mu = float(rng.uniform(2.0, 100.0))
            day.amdc = mu
            eta = day.battery.efficiency
            threshold = -mu * (1 + eta**2) / (1 - eta**2) if eta < 1 else -np.inf
            if day.lmp.min() < threshold:
                continue
            schedule = solve_one_day(day)
            co = np.minimum(schedule.charge, schedule.discharge)
            assert co.max() <= 1e-7, f"co-activity {co.max()} at mu={mu}"

    def test_monotone_throughput_in_mu(self, battery, two_level_series):
        previous = np.inf
        for mu in range(0, 101, 5):
            day = DayInput(battery=battery, lmp=two_level_series.lmp,
                           reserve_price=two_level_series.reserve_price,
                           amdc=float(mu), swap=SwapTerms(120.0, 2.0, 10.0),
                           soc_start=1.0, capacity_now=2.7, reserve_enabled=False)
            moved = solve_one_day(day).throughput_today
            assert moved <= previous + 1e-7
            previous = moved

    def test_sb_star_non_increasing_in_mu(self, battery, two_level_series):
        previous = np.inf
        for mu in range(0, 101, 5):
            day = DayInput(battery=battery, lmp=two_level_series.lmp,
                           reserve_price=two_level_series.reserve_price,
                           amdc=float(mu), swap=SwapTerms(120.0, 2.0, 10.0),
                           soc_start=1.0, capacity_now=2.7, reserve_enabled=False)
            sb = solve_one_day(day).sb_star
            assert sb <= previous + 1e-9
            previous = sb

    def test_swap_cap_binds_when_profitable(self, battery):
        day = flat_day(battery, level=0.0, mu=0.0, q=0.0,
                       swap=SwapTerms(500.0, 3.0, 5.0), soc=2.7)
        schedule = solve_one_day(day)
        assert schedule.swap_out.sum() == pytest.approx(3.0, abs=1e-7)

    def test_negative_lmp_allows_paid_co_consumption(self, battery):
        """Deeply negative prices make simultaneous charge+discharge a paid
        service; the LP may use it."""
        lmp = np.full(24, -500.0)
        day = DayInput(battery=battery, lmp=lmp, reserve_price=np.zeros(24),
                       amdc=1.0, swap=NO_SWAP, soc_start=0.0, capacity_now=2.7,
                       reserve_enabled=False)
        schedule = solve_one_day(day)
        # Charging while discharging burns energy at negative price: profit.
        assert schedule.sb_star > 0
        check_schedule(schedule, day)

    def test_compact_form_matches_full_form_at_any_horizon(self, rng):
        """The state-eliminated LP is an exact reformulation: both forms
        reach the same optimum at full 24-hour size, all channels on."""
        for _ in range(15):
            day = random_day(rng, hours=24, with_swap=True, with_reserve=True)
            hours = int(rng.choice([6, 12, 24]))
            full = solve_fresh(build_daily_lp_rows(day, hours))
            compact = solve_fresh(build_compact_lp(day, hours=hours))
            scale = max(1.0, abs(full.objective_value))
            assert abs(full.objective_value - compact.objective_value) <= 1e-7 * scale


class TestDailyModel:
    """The day kernel holds exactly each day's program."""

    @staticmethod
    def _prices(rng, days, reserve):
        return HourlyPriceSeries(rng.uniform(-20.0, 100.0, size=24 * days),
                                 rng.uniform(0.0, 15.0, size=24 * days) if reserve
                                 else np.zeros(24 * days))

    @staticmethod
    def _days(rng, first, prices, n):
        """``n`` days of ``first``'s battery, swap terms and reserve switch:
        (day index, DayInput) with new prices, MDC, capacity and SOC each day.
        Day indices run past the series, so its pattern days wrap."""
        capacity = first.capacity_now
        for day in range(n):
            capacity *= float(rng.uniform(0.8, 1.0))
            hours = slice(24 * (day % prices.n_days), 24 * (day % prices.n_days) + 24)
            lmp, reserve_price = prices.lmp[hours], prices.reserve_price[hours]
            yield day, dataclasses.replace(
                first, lmp=lmp, reserve_price=reserve_price,
                amdc=float(rng.uniform(0.0, 100.0)), capacity_now=capacity,
                soc_start=float(rng.uniform(0.0, capacity)))

    @pytest.mark.parametrize("reserve", [False, True])
    def test_update_equals_a_fresh_build(self, rng, reserve):
        for _ in range(10):
            first = random_day(rng, 24, with_swap=True, with_reserve=reserve)
            prices = self._prices(rng, 3, reserve)
            model = DailyModel(first.battery, prices, first.swap, reserve,
                               first.calendar_throughput_today)
            for index, day in self._days(rng, first, prices, 5):
                model.price(day.amdc)
                solve_day(model, index, day.soc_start, day.capacity_now)
                held, fresh = model.held.lp, build_daily_lp_rows(day)
                for name in ("objective", "lower", "upper", "A", "row_lower", "row_upper"):
                    assert np.array_equal(getattr(held, name), getattr(fresh, name)), name
                assert model.held.scale == _scale(fresh)

    def test_warm_day_matches_cold_day(self, monkeypatch, rng):
        first = random_day(rng, 24, with_swap=True, with_reserve=True)
        prices = self._prices(rng, 20, True)
        model = DailyModel(first.battery, prices, first.swap, True,
                           first.calendar_throughput_today)
        for index, day in self._days(rng, first, prices, 20):
            model.price(day.amdc)
            warm = solve_schedule(model, index, day.soc_start, day.capacity_now)
            with monkeypatch.context() as patch:
                patch.setattr(scheduler, "solve_lp", lambda held: solve_lp_linprog(held.lp))
                cold = solve_one_day(day)
            assert warm.lp_objective == pytest.approx(cold.lp_objective, rel=1e-9, abs=1e-9)
            assert warm.sb_star == pytest.approx(cold.sb_star, rel=1e-6, abs=1e-6)
            check_schedule(warm, day)

    def test_first_day_runs_highs_and_a_repeat_is_certified(self, monkeypatch, rng):
        runs = []
        real = scheduler.solve_lp
        monkeypatch.setattr(scheduler, "solve_lp",
                            lambda *args, **kw: runs.append(1) or real(*args, **kw))
        day = random_day(rng, 24, with_swap=True, with_reserve=True)
        model = kernel_for_day(day)
        first = solve_schedule(model, 0, day.soc_start, day.capacity_now)
        assert len(runs) == 1
        again = solve_schedule(model, 0, day.soc_start, day.capacity_now)
        assert len(runs) == 1  # the same program: the last basis proves it
        np.testing.assert_allclose(again.soc, first.soc, rtol=1e-12, atol=1e-12)
        assert again.lp_objective == pytest.approx(first.lp_objective, rel=1e-12)
        check_schedule(again, day)
        assert solve_one_day(day).lp_objective == pytest.approx(first.lp_objective, rel=1e-12)
        assert len(runs) == 2  # a fresh model has no basis yet

    def test_rejects_bad_capacity_or_soc(self, battery):
        model = kernel_for_day(flat_day(battery))
        for soc, capacity in [(0.0, 0.0), (0.0, -1.0), (0.0, np.nan), (-1e-3, 2.7),
                              (2.7 + 1e-6, 2.7), (np.nan, 2.7)]:
            with pytest.raises(ValueError):
                solve_day(model, 0, soc, capacity)


class TestDayKernel:
    """The kernel's year cost table and re-check scale, against the per-day
    arithmetic they replace."""

    @pytest.mark.parametrize("mu", [0.0, 35.0, 1e6])
    @pytest.mark.parametrize("swap", [NO_SWAP, SwapTerms(160.0, 2.7, 10.0)],
                             ids=["no-swap", "swap"])
    @pytest.mark.parametrize("reserve", [False, True])
    def test_cost_rows_equal_the_day_objective(self, battery, mu, swap, reserve):
        """Row p of the table is pattern day p's ``_objective``, and both are
        the plain float arithmetic of each column's cost, bit for bit."""
        prices = synth_price_series("daily-sine", days=5, seed=2, reserve_level=5.0,
                                    mean=20.0, amplitude=60.0)  # some LMPs < 0
        model = DailyModel(battery, prices, swap, reserve, 0.5)
        model.price(mu)
        assert model.costs.shape == (5, (5 if reserve else 4) * 24)
        for p in range(5):
            hours = slice(24 * p, 24 * p + 24)
            lmp, reserve_price = prices.lmp[hours], prices.reserve_price[hours]
            day = DayInput(battery=battery, lmp=lmp, reserve_price=reserve_price, amdc=mu,
                           swap=swap, soc_start=0.0, capacity_now=2.7,
                           calendar_throughput_today=0.5, reserve_enabled=reserve)
            margin = swap.swap_price - swap.labor_cost - mu - TIE_BREAK_EPS
            by_hand = ([-price - mu - TIE_BREAK_EPS for price in lmp.tolist()]
                       + [price - mu - TIE_BREAK_EPS for price in lmp.tolist()]
                       + [margin] * 24 + [0.0] * 24
                       + (reserve_price.tolist() if reserve else []))
            assert model.costs[p].tobytes() == _objective(day, 24).tobytes()
            assert model.costs[p].tobytes() == np.array(by_hand).tobytes()

    def test_days_tile_the_series(self, battery):
        """Day d solves pattern day d % n_days, the series repeating day-wise."""
        prices = synth_price_series("two-level", days=2, low=1.0, high=90.0)
        prices.lmp[24:] = 50.0  # pattern day 1 is flat, so it idles

        def schedule(day):
            model = DailyModel(battery, prices, NO_SWAP, False, 0.5)
            model.price(5.0)
            return solve_schedule(model, day, 0.0, 2.7)

        first, tiled, flat = schedule(0), schedule(4), schedule(3)
        assert first.charge.sum() > 0 and flat.charge.sum() == 0
        for name in ("charge", "discharge", "soc"):
            assert np.array_equal(getattr(first, name), getattr(tiled, name))
        assert first.sb_star == tiled.sb_star

    def test_capacity_scale_is_the_programs_scale(self):
        """``max(1.0, power_limit, daily_swap_cap, capacity_now, keep *
        soc_start)``, the scale ``solve_day`` re-checks at, is ``_scale`` of
        the day's program over reserve, swap cap, SOC, self-discharge, power,
        size and capacity, some with every bound below 1."""
        sizes = [(2.7, 2.7), (2.7, 2.16), (2.7, 0.3), (0.5, 0.5), (0.5, 0.4), (10.0, 10.0),
                 (10.0, 8.0)]
        shapes = 0
        for reserve, cap, full, rho, power, (size, capacity) in itertools.product(
                [False, True], [0.0, 2.7, 5.0], [0.0, 1.0], [0.0, 0.01], [0.5, 2.7], sizes):
            battery = BatterySpec(energy_capacity_0=size, power_limit=power, efficiency=ETA,
                                  self_discharge=rho)
            day = flat_day(battery, swap=SwapTerms(120.0, cap), reserve=reserve,
                           soc=full * capacity, capacity=capacity, reserve_level=2.0)
            model = kernel_for_day(day)
            solve_day(model, 0, day.soc_start, day.capacity_now)
            assert model.held.scale == _scale(build_daily_lp_rows(day)) == _scale(model.held.lp)
            shapes += 1
        assert shapes == 336


class TestDayBlock:
    """A block's points are affine in each day's capacity and carried SOC:
    near the pairs a life visits, a day's point is the one ``certify``
    proves for that day alone, and so are its ``soc_end`` and ``moved``
    coefficients.  An hour-23 reserve price of 80 keeps energy in the
    battery overnight, so days start charged."""

    @pytest.mark.parametrize("swap", [NO_SWAP, SwapTerms(160.0, 2.7, 10.0)],
                             ids=["no-swap", "swap"])
    def test_points_equal_certify(self, swap):
        sine = synth_price_series("daily-sine", days=28, seed=5, mean=40.0, amplitude=30.0)
        reserve = np.zeros((28, 24))
        reserve[:, 23] = 80.0
        prices = HourlyPriceSeries(lmp=sine.lmp, reserve_price=reserve.ravel())
        model = DailyModel(BatterySpec(2.7, 2.7, 0.95, self_discharge=0.01), prices, swap,
                           True, 0.1)
        model.price(20.0)
        rng = np.random.default_rng(7)
        soc, compared, per_soc = 0.0, 0, False
        for day in range(56):
            x, pivots = solve_day(model, day, min(soc, 2.6), 2.6)
            soc = float(x[scheduler._SOC_END])
            block = certify_days(model, day + 1, 6) if pivots == 0 else None
            if block is None:
                continue
            held, (base, per_u, per_s, _) = model.held, block.stretch
            per_soc |= bool(np.any(per_s[:held.lp.n_vars] != 0.0))
            for j in range(len(base)):
                pattern = (day + 1 + j) % len(model.lmp)
                capacity = 2.6 * rng.uniform(0.99, 1.0)
                soc0 = model.keep * min(soc, capacity) * rng.uniform(0.99, 1.0)
                held.set_day(model.costs[pattern], scheduler._SWAP_AND_SOC, capacity, 0, soc0,
                             max(model.fixed_bound, capacity, soc0))
                found = held.certify()
                if found is None:  # this pair leaves the basis: the block would stop
                    break
                sol = found[0]
                x = (base[j] + capacity * per_u[j] + soc0 * per_s)[:len(sol.x)]
                np.testing.assert_allclose(x, sol.x, rtol=1e-9, atol=1e-9)
                (e0, e_cap, e_soc), (m0, m_cap, m_soc) = block.soc_end, block.moved
                assert e0[j] + capacity * e_cap[j] + soc0 * e_soc == \
                    pytest.approx(sol.x[scheduler._SOC_END], rel=1e-9, abs=1e-9)
                assert m0[j] + capacity * m_cap[j] + soc0 * m_soc == \
                    pytest.approx(sol.x[:72].sum(), rel=1e-9, abs=1e-9)
                compared += 1
                soc = float(sol.x[scheduler._SOC_END])
        assert compared >= 20 and per_soc


class TestMoneyRows:
    """``money_rows`` costs k days in one call.  Each day's column is what
    ``check_schedule`` recomputes, with dot products of its own, from the
    day's point solved alone, and it is bit-equal to a one-day call on the
    same point.  The days start at pattern day 2 of 3, so their patterns
    wrap past the series' end; an off-by-one pattern index costs a day at
    its neighbour's prices, which the recomputation sees."""

    @pytest.mark.parametrize("reserve", [False, True])
    def test_days_at_once_equal_each_day_alone(self, battery, reserve):
        rng = np.random.default_rng(11)
        prices = HourlyPriceSeries(rng.uniform(-20.0, 100.0, 72), rng.uniform(0.0, 15.0, 72))
        swap, first, k = SwapTerms(160.0, 2.7, 10.0), 2, 5
        model = DailyModel(battery, prices, swap, reserve, 0.5)
        model.price(20.0)
        points, throughput, parts = [], [], []
        for day in range(first, first + k):
            hours = slice(24 * (day % 3), 24 * (day % 3) + 24)
            alone = DayInput(battery=battery, lmp=prices.lmp[hours],
                             reserve_price=prices.reserve_price[hours], amdc=20.0, swap=swap,
                             soc_start=float(rng.uniform(0.0, 2.7)), capacity_now=2.7,
                             calendar_throughput_today=0.5, reserve_enabled=reserve)
            kernel = kernel_for_day(alone)
            x, _ = solve_day(kernel, 0, alone.soc_start, alone.capacity_now)
            schedule = schedule_of(kernel, 0, x)
            points.append(x)
            throughput.append(schedule.throughput_today)
            parts.append(check_schedule(schedule, alone))
        rows = money_rows(model, first, np.array(points), np.array(throughput))
        assert rows.shape == (6, k)
        for j, want in enumerate(parts):
            for row, name in enumerate(("sb_star", "energy", "swap", "reserve", "labor",
                                        "degradation")):
                assert abs(rows[row, j] - want[name]) <= 1e-9 * max(abs(want[name]), 1.0), \
                    (j, name, rows[row, j], want[name])
            alone = money_rows(model, first + j, points[j][None], np.array(throughput[j:j + 1]))
            assert alone.tobytes() == rows[:, j:j + 1].tobytes(), j
        assert (rows[3] != 0.0).any() == reserve
