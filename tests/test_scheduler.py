import dataclasses
import itertools

import numpy as np
import pytest

import swapval.scheduler as scheduler
from swapval.lp import LPError, _verdict, solve_lp
from swapval.market_data import synth_price_series
from swapval.scheduler import (
    NO_SWAP,
    BatterySpec,
    DailyModel,
    DailySchedule,
    DayInput,
    ScheduleError,
    SwapTerms,
    build_daily_lp,
    solve_day,
)

from _generators import random_day, random_oracle_day
from _reference import (
    build_compact_lp,
    build_daily_lp_rows,
    check_schedule,
    enumerate_oracle,
    solve_lp_linprog,
)

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
        schedule = solve_day(day)
        assert schedule.charge.max() == pytest.approx(0.0, abs=1e-9)
        assert schedule.discharge.max() == pytest.approx(0.0, abs=1e-9)
        assert schedule.sb_star == pytest.approx(-17.5, abs=1e-9)
        # Cross-check idleness on a 3-hour reduction against the oracle.
        compact = build_compact_lp(day, hours=3)
        oracle = enumerate_oracle(compact)
        assert oracle.objective_value == pytest.approx(0.0, abs=1e-12)

    def test_zero_prices_zero_mu_optimum_zero(self, battery):
        day = flat_day(battery, level=0.0, mu=0.0, q=0.0)
        schedule = solve_day(day)
        assert schedule.lp_objective == pytest.approx(0.0, abs=1e-9)
        assert schedule.sb_star == pytest.approx(0.0, abs=1e-9)

    def test_two_level_arbitrage_margin(self, battery, two_level_series):
        """Per-MWh-charged profit equals hi*eta^2 - lo - mu*(1 + eta^2)."""
        day = DayInput(battery=battery, lmp=two_level_series.lmp,
                       reserve_price=two_level_series.reserve_price, amdc=35.0,
                       swap=NO_SWAP, soc_start=0.0, capacity_now=2.7,
                       calendar_throughput_today=0.0, reserve_enabled=False)
        schedule = solve_day(day)
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
        full = solve_lp(build_daily_lp(short, hours=4))
        oracle = enumerate_oracle(build_compact_lp(short, hours=4))
        assert full.objective_value == pytest.approx(oracle.objective_value,
                                                     rel=1e-9, abs=1e-9)

    def test_variable_order_and_shapes(self, battery):
        day = flat_day(battery, reserve=True)
        lp = build_daily_lp(day)
        assert lp.n_vars == 5 * 24
        day_no_res = flat_day(battery, reserve=False)
        assert build_daily_lp(day_no_res).n_vars == 4 * 24

    @pytest.mark.parametrize("hours", [1, 2, 3, 4, 24])
    @pytest.mark.parametrize("reserve", [False, True])
    def test_block_layout_equals_the_row_loops(self, hours, reserve):
        """The block-layout build is the row-by-row program, bit for bit, over
        swap cap, starting SOC and self-discharge, each zero and not."""
        for cap, soc, rho in itertools.product([0.0, 2.7], [0.0, 1.3], [0.0, 0.01]):
            battery = BatterySpec(energy_capacity_0=2.7, power_limit=2.7, efficiency=ETA,
                                  self_discharge=rho)
            day = DayInput(battery=battery, lmp=np.linspace(-20.0, 100.0, 24),
                           reserve_price=np.linspace(0.0, 15.0, 24), amdc=35.0,
                           swap=SwapTerms(120.0, cap), soc_start=soc, capacity_now=2.7,
                           reserve_enabled=reserve)
            block, rows = build_daily_lp(day, hours), build_daily_lp_rows(day, hours)
            for name in ("objective", "lower", "upper", "A", "row_lower", "row_upper"):
                assert np.array_equal(getattr(block, name), getattr(rows, name)), \
                    (name, cap, soc, rho)

    def test_bad_hours_rejected(self, battery):
        with pytest.raises(ValueError):
            build_daily_lp(flat_day(battery), hours=0)
        with pytest.raises(ValueError):
            build_daily_lp(flat_day(battery), hours=25)


class TestSolveDay:
    def test_swap_channel_used_to_cap(self, battery):
        """Swap price far above labor+degradation fills the daily cap."""
        day = flat_day(battery, level=50.0, mu=35.0, q=0.0,
                       swap=SwapTerms(160.0, 2.7, 10.0))
        schedule = solve_day(day)
        assert schedule.swap_out.sum() == pytest.approx(2.7, abs=1e-7)
        # Exact optimum on a 4-hour reduction with a 0.5 MWh cap.
        short = flat_day(battery, level=50.0, mu=35.0, q=0.0,
                         swap=SwapTerms(160.0, 0.5, 10.0))
        full = solve_lp(build_daily_lp(short, hours=4))
        oracle = enumerate_oracle(build_compact_lp(short, hours=4))
        assert full.objective_value == pytest.approx(
            oracle.objective_value, rel=1e-9, abs=1e-9)

    def test_swap_drains_eta_times_soc(self):
        """With no charging, a full drain delivers eta * soc_start."""
        battery = BatterySpec(2.7, 2.7, 0.9)
        day = flat_day(battery, level=0.0, mu=20.0, q=0.0,
                       swap=SwapTerms(40.0, 2.7, 10.0), soc=2.7)
        schedule = solve_day(day)
        assert schedule.charge.sum() == pytest.approx(0.0, abs=1e-9)
        assert schedule.swap_out.sum() == pytest.approx(0.9 * 2.7, abs=1e-7)
        # Oracle confirmation on a 3-hour reduction of the same terms.
        short = flat_day(battery, level=0.0, mu=20.0, q=0.0,
                         swap=SwapTerms(40.0, 2.7, 10.0), soc=2.7)
        full = solve_lp(build_daily_lp(short, hours=3))
        oracle = enumerate_oracle(build_compact_lp(short, hours=3))
        assert full.objective_value == pytest.approx(
            oracle.objective_value, rel=1e-9, abs=1e-9)

    def test_schedule_invariants_hold(self, battery, rng):
        for _ in range(10):
            day = random_day(rng, hours=24, with_swap=True, with_reserve=True)
            schedule = solve_day(day)
            check_schedule(schedule, day)

    def test_oracle_equivalence_families(self, rng):
        """The daily LP at a reduced horizon matches exhaustive enumeration
        across channel mixes, including reserve and self-discharge."""
        for i in range(40):
            day, hours = random_oracle_day(rng, i)
            sol = solve_lp(build_daily_lp(day, hours))
            oracle = enumerate_oracle(build_compact_lp(day, hours))
            scale = max(1.0, abs(oracle.objective_value))
            assert abs(sol.objective_value - oracle.objective_value) <= 1e-6 * scale, (
                f"instance {i}: solver {sol.objective_value} "
                f"vs oracle {oracle.objective_value}")

    def test_reserve_earns_without_throughput(self, battery):
        """Reserve pays on stored energy without consuming budget."""
        day = flat_day(battery, level=50.0, mu=1000.0, q=0.0, reserve=True,
                       soc=2.7, reserve_level=5.0)
        schedule = solve_day(day)
        assert schedule.reserve_offer.sum() > 0
        assert schedule.throughput_today == pytest.approx(0.0, abs=1e-7)
        assert schedule.reserve_revenue > 0


class TestDecomposeProfit:
    def test_all_zero_schedule(self, battery):
        day = flat_day(battery)
        schedule = solve_day(day)
        parts = check_schedule(schedule, day)
        assert parts == pytest.approx(
            {"revenue": 0.0, "labor": 0.0, "degradation": 17.5, "sb_star": -17.5})

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
            throughput_today=1.5)
        parts = check_schedule(schedule, day)
        assert parts["revenue"] == pytest.approx(90.0)
        assert parts["degradation"] == pytest.approx(35.0 * (1.0 + 0.5))

    def test_corrupted_schedule_detected(self, battery):
        day = flat_day(battery)
        schedule = solve_day(day)
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
        schedule = solve_day(day)

        def recheck():
            """The feasibility re-check every solved day passes in production."""
            x = np.concatenate([schedule.charge, schedule.discharge, schedule.swap_out,
                                schedule.soc, schedule.reserve_offer])
            return _verdict(build_daily_lp(day), 0, x, "")

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
            schedule = solve_day(day)
            co = np.minimum(schedule.charge, schedule.discharge)
            assert co.max() <= 1e-7, f"co-activity {co.max()} at mu={mu}"

    def test_monotone_throughput_in_mu(self, battery, two_level_series):
        previous = np.inf
        for mu in range(0, 101, 5):
            day = DayInput(battery=battery, lmp=two_level_series.lmp,
                           reserve_price=two_level_series.reserve_price,
                           amdc=float(mu), swap=SwapTerms(120.0, 2.0, 10.0),
                           soc_start=1.0, capacity_now=2.7, reserve_enabled=False)
            moved = solve_day(day).throughput_today
            assert moved <= previous + 1e-7
            previous = moved

    def test_sb_star_non_increasing_in_mu(self, battery, two_level_series):
        previous = np.inf
        for mu in range(0, 101, 5):
            day = DayInput(battery=battery, lmp=two_level_series.lmp,
                           reserve_price=two_level_series.reserve_price,
                           amdc=float(mu), swap=SwapTerms(120.0, 2.0, 10.0),
                           soc_start=1.0, capacity_now=2.7, reserve_enabled=False)
            sb = solve_day(day).sb_star
            assert sb <= previous + 1e-9
            previous = sb

    def test_swap_cap_binds_when_profitable(self, battery):
        day = flat_day(battery, level=0.0, mu=0.0, q=0.0,
                       swap=SwapTerms(500.0, 3.0, 5.0), soc=2.7)
        schedule = solve_day(day)
        assert schedule.swap_out.sum() == pytest.approx(3.0, abs=1e-7)

    def test_negative_lmp_allows_paid_co_consumption(self, battery):
        """Deeply negative prices make simultaneous charge+discharge a paid
        service; the LP may use it."""
        lmp = np.full(24, -500.0)
        day = DayInput(battery=battery, lmp=lmp, reserve_price=np.zeros(24),
                       amdc=1.0, swap=NO_SWAP, soc_start=0.0, capacity_now=2.7,
                       reserve_enabled=False)
        schedule = solve_day(day)
        # Charging while discharging burns energy at negative price: profit.
        assert schedule.sb_star > 0
        check_schedule(schedule, day)

    def test_compact_form_matches_full_form_at_any_horizon(self, rng):
        """The state-eliminated LP is an exact reformulation: both forms
        reach the same optimum at full 24-hour size, all channels on."""
        for _ in range(15):
            day = random_day(rng, hours=24, with_swap=True, with_reserve=True)
            hours = int(rng.choice([6, 12, 24]))
            full = solve_lp(build_daily_lp(day, hours=hours))
            compact = solve_lp(build_compact_lp(day, hours=hours))
            scale = max(1.0, abs(full.objective_value))
            assert abs(full.objective_value - compact.objective_value) <= 1e-7 * scale


class TestDailyModel:
    """The persistent daily model holds exactly the day's program."""

    @staticmethod
    def _next_day(rng, day):
        """Same battery, swap terms and reserve switch; every daily input new."""
        capacity = day.capacity_now * float(rng.uniform(0.8, 1.0))
        return dataclasses.replace(
            day, lmp=rng.uniform(-20.0, 100.0, size=24),
            reserve_price=rng.uniform(0.0, 15.0, size=24) if day.reserve_enabled
            else np.zeros(24),
            amdc=float(rng.uniform(0.0, 100.0)), capacity_now=capacity,
            soc_start=float(rng.uniform(0.0, capacity)))

    @pytest.mark.parametrize("reserve", [False, True])
    def test_update_equals_a_fresh_build(self, rng, reserve):
        for _ in range(10):
            day = random_day(rng, 24, with_swap=True, with_reserve=reserve)
            model = DailyModel()
            solve_day(day, model=model)
            for _ in range(3):
                day = self._next_day(rng, day)
                held = model.load(day).lp
                fresh = build_daily_lp(day)
                for name in ("objective", "lower", "upper", "A", "row_lower", "row_upper"):
                    assert np.array_equal(getattr(held, name), getattr(fresh, name)), name

    def test_warm_day_matches_cold_day(self, monkeypatch, rng):
        day = random_day(rng, 24, with_swap=True, with_reserve=True)
        model = DailyModel()
        for _ in range(20):
            warm = solve_day(day, model=model)
            with monkeypatch.context() as patch:
                patch.setattr(scheduler, "solve_lp", solve_lp_linprog)
                cold = solve_day(day)
            assert warm.lp_objective == pytest.approx(cold.lp_objective, rel=1e-9, abs=1e-9)
            assert warm.sb_star == pytest.approx(cold.sb_star, rel=1e-6, abs=1e-6)
            check_schedule(warm, day)
            day = self._next_day(rng, day)

    def test_first_day_runs_highs_and_a_repeat_is_certified(self, monkeypatch, rng):
        runs = []
        real = scheduler.solve_lp
        monkeypatch.setattr(scheduler, "solve_lp",
                            lambda *args, **kw: runs.append(1) or real(*args, **kw))
        day = random_day(rng, 24, with_swap=True, with_reserve=True)
        model = DailyModel()
        first = solve_day(day, model=model)
        assert len(runs) == 1
        again = solve_day(day, model=model)
        assert len(runs) == 1  # the same program: the last basis proves it
        np.testing.assert_allclose(again.soc, first.soc, rtol=1e-12, atol=1e-12)
        assert again.lp_objective == pytest.approx(first.lp_objective, rel=1e-12)
        check_schedule(again, day)
        assert solve_day(day).lp_objective == pytest.approx(first.lp_objective, rel=1e-12)
        assert len(runs) == 2  # a fresh model has no basis yet

    def test_rejects_another_battery_swap_or_horizon(self, battery):
        model = DailyModel()
        solve_day(flat_day(battery), model=model)
        with pytest.raises(ValueError):
            solve_day(flat_day(battery, reserve=True), model=model)
        with pytest.raises(ValueError):
            solve_day(flat_day(battery, swap=SwapTerms(100.0, 1.0)), model=model)
        with pytest.raises(TypeError):  # the model always holds the full day
            solve_day(flat_day(battery), hours=4, model=model)
