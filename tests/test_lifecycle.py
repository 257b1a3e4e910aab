import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapval import lp
from swapval.lifecycle import (
    DAYS_PER_YEAR,
    EconomicParams,
    _certify_block,
    _idle_proof,
    abu,
    adjusted_mdc,
    calendar_throughput_per_day,
    eol_analysis,
    simulate_lifecycle,
    state_of_health,
    total_budget,
)
from swapval.lp import HighsModel, LPError
from swapval.market_data import HourlyPriceSeries, synth_price_series
from swapval.scheduler import (
    NO_SWAP,
    TIE_BREAK_EPS,
    BatterySpec,
    DailyModel,
    ScheduleError,
    SwapTerms,
    certify_days,
    solve_day,
)

from _reference import DayInput, max_daily_throughput, solve_lp_linprog, solve_one_day

_CERTIFY = HighsModel.certify  # the real one, which tests wrap


class TestBudgetArithmetic:
    def test_paper_battery_budget(self, battery):
        assert total_budget(battery) == pytest.approx(10800.0)

    def test_one_cycle_one_mwh(self):
        assert total_budget(BatterySpec(1.0, 1.0, 0.95, cycle_life=1.0)) == 2.0

    def test_half_cycle_two_mwh(self):
        assert total_budget(BatterySpec(2.0, 1.0, 0.95, cycle_life=0.5)) == 2.0

    def test_calendar_throughput_reference_battery(self, battery):
        expected = 10800.0 * (0.01 / 0.2) / 365.0
        assert calendar_throughput_per_day(battery) == pytest.approx(expected)
        assert calendar_throughput_per_day(battery) == pytest.approx(1.479452054794521)

    def test_calendar_zero_fade(self):
        spec = BatterySpec(2.7, 2.7, 0.95, calendar_fade_per_year=0.0)
        assert calendar_throughput_per_day(spec) == 0.0

    def test_calendar_limiting_case_one_idle_year(self):
        # 20%/yr fade with EOL at 80% kills an idle battery in one year.
        spec = BatterySpec(2.7, 2.7, 0.95, calendar_fade_per_year=0.2)
        assert calendar_throughput_per_day(spec) == pytest.approx(total_budget(spec) / 365.0)


class TestAdjustedMdc:
    def test_year_zero(self, econ):
        assert adjusted_mdc(35.0, 100, econ) == 35.0

    def test_second_year(self, econ):
        assert adjusted_mdc(35.0, 400, econ) == pytest.approx(37.45)

    def test_zero_rate(self):
        econ = EconomicParams(discount_rate=0.0)
        assert adjusted_mdc(35.0, 5000, econ) == 35.0

    def test_rejects_negative(self, econ):
        with pytest.raises(ValueError):
            adjusted_mdc(-1.0, 0, econ)
        with pytest.raises(ValueError):
            adjusted_mdc(1.0, -1, econ)

    @settings(max_examples=80, deadline=None)
    @given(mu=st.floats(0.0, 1000.0), year=st.integers(0, 29),
           day=st.integers(0, 364), rate=st.floats(0.0, 0.25))
    def test_exactness_property(self, mu, year, day, rate):
        econ = EconomicParams(discount_rate=rate)
        got = adjusted_mdc(mu, 365 * year + day, econ)
        expected = mu * (1.0 + rate) ** year
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


class TestAbu:
    def test_zero(self):
        assert abu(0.0, 10800.0) == 0.0

    def test_unit(self):
        assert abu(10800.0, 10800.0) == 1.0

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError):
            abu(1.0, 0.0)


class TestLedger:
    def test_soh_linear_and_clamped(self):
        assert state_of_health(0.0, 100.0, 0.8) == 1.0
        assert state_of_health(50.0, 100.0, 0.8) == pytest.approx(0.9)
        assert state_of_health(110.0, 100.0, 0.8) == 0.8  # past the budget: clamp at EOL fraction
        used = np.array([0.0, 50.0, 110.0, 1.0 / 3.0, 99.9])
        assert state_of_health(used, 100.0, 0.8).tolist() == \
            [float(state_of_health(u, 100.0, 0.8)) for u in used.tolist()]

    def test_rejects_negative_throughput(self, monkeypatch):
        """A day that draws negative throughput is a scheduling failure that
        names its day.  Day 2's point charges -(0.5 + calendar share) MWh in
        hour 0 and nothing else, so it draws -0.5 MWh."""
        import swapval.lifecycle as lifecycle

        def solve(model, day, *args):
            x, pivots = solve_day(model, day, *args)
            if day == 2:
                x = np.zeros_like(x)
                x[0] = -0.5 - model.calendar_throughput
            return x, pivots

        monkeypatch.setattr(lifecycle, "solve_day", solve)
        prices = synth_price_series("daily-sine", days=7, seed=3, mean=40.0, amplitude=30.0)
        with pytest.raises(ScheduleError, match=r"negative throughput -0\.5 \[day 2, "):
            simulate_lifecycle(BatterySpec(2.7, 2.7, 0.95), EconomicParams(), prices, 1.0)


class TestSimulate:
    def test_calendar_only_life(self, battery, econ, flat_zero_series):
        result = simulate_lifecycle(battery, econ, flat_zero_series, 0.0,
                                    swap_policy=None, reserve_enabled=False)
        assert abs(result.days_lived - 7300) <= 1
        assert result.lb_star == 0.0
        assert result.physical_eol_year == 20
        assert not result.horizon_capped

    def test_huge_mu_same_life_negative_lb(self, battery, econ, flat_zero_series):
        result = simulate_lifecycle(battery, econ, flat_zero_series, 1e6,
                                    swap_policy=None, reserve_enabled=False)
        assert abs(result.days_lived - 7300) <= 1
        assert result.lb_star < 0.0
        # Only the calendar terms contribute: -sum(mu * q) since delta*mu_t = mu.
        q = calendar_throughput_per_day(battery)
        assert result.lb_star == pytest.approx(-1e6 * q * result.days_lived, rel=1e-9)

    def test_budget_law(self, tiny_battery, econ, two_level_series):
        swap = SwapTerms(120.0, 2.7, 10.0)
        result = simulate_lifecycle(tiny_battery, econ, two_level_series, 0.0,
                                    swap_policy=swap, reserve_enabled=False)
        d = total_budget(tiny_battery)
        assert d <= result.cumulative_throughput
        assert result.cumulative_throughput <= d + max_daily_throughput(tiny_battery, swap)

    def test_discount_recompute_from_daily_log(self, tiny_battery, econ, two_level_series):
        result = simulate_lifecycle(tiny_battery, econ, two_level_series, 10.0,
                                    swap_policy=SwapTerms(120.0, 2.0, 10.0),
                                    reserve_enabled=False)
        log = result.daily_log
        delta = (1.0 + econ.discount_rate) ** (-(log.day // 365))
        recomputed = float(np.sum(delta * log.sb_star))
        assert recomputed == pytest.approx(result.lb_star, rel=1e-6)

    def test_soh_series_endpoints(self, tiny_battery, econ, two_level_series):
        result = simulate_lifecycle(tiny_battery, econ, two_level_series, 0.0,
                                    swap_policy=None, reserve_enabled=False)
        soh = result.daily_log.soh
        assert soh[0] == 1.0
        assert np.all(np.diff(soh) <= 1e-12)
        one_day_fade = (1 - 0.8) * max_daily_throughput(tiny_battery) / total_budget(tiny_battery)
        assert soh[-1] <= 0.8 + one_day_fade
        assert result.final_soh == pytest.approx(0.8, abs=1e-9)

    def test_monotone_life_vs_mdc(self, tiny_battery, econ, two_level_series):
        mus = [0.0, 20.0, 40.0, 60.0, 80.0, 100.0]
        results = [simulate_lifecycle(tiny_battery, econ, two_level_series, mu,
                                      swap_policy=None, reserve_enabled=False)
                   for mu in mus]
        days = [r.days_lived for r in results]
        assert days == sorted(days)
        # Day-by-day cumulative throughput is ordered while both live.
        for lo, hi in zip(results, results[1:]):
            n = min(lo.days_lived, hi.days_lived)
            cum_lo = np.cumsum(lo.daily_log.throughput[:n])
            cum_hi = np.cumsum(hi.daily_log.throughput[:n])
            assert np.all(cum_hi <= cum_lo + 1e-6)

    def test_swap_shortens_life_at_zero_mdc(self, tiny_battery, econ, two_level_series):
        swap = SwapTerms(120.0, 2.7, 10.0)
        with_swap = simulate_lifecycle(tiny_battery, econ, two_level_series, 0.0,
                                       swap_policy=swap, reserve_enabled=False)
        without = simulate_lifecycle(tiny_battery, econ, two_level_series, 0.0,
                                     swap_policy=None, reserve_enabled=False)
        assert with_swap.days_lived <= without.days_lived
        assert with_swap.lb_star >= without.lb_star - 1e-9

    def test_horizon_cap_reported_distinctly(self, econ, flat_zero_series):
        eternal = BatterySpec(2.7, 2.7, 0.95, calendar_fade_per_year=0.0)
        econ_short = dataclasses.replace(econ, horizon_cap_years=2)
        result = simulate_lifecycle(eternal, econ_short, flat_zero_series, 50.0,
                                    swap_policy=None, reserve_enabled=False)
        assert result.horizon_capped
        assert result.days_lived == 2 * 365
        assert result.physical_eol_year is None

    def test_soc_carries_over_between_days(self, econ):
        # Day 0 pays to charge (negative prices all day, nothing to sell);
        # day 1 sells the carried energy at 90.  The daily LP is myopic, so
        # the day-0 charge is driven by the negative price alone and the
        # stored energy must survive the day boundary to be sold.
        lmp = np.concatenate([np.full(24, -50.0), np.full(24, 90.0)])
        series_like = synth_price_series("flat", days=2, level=0.0)
        series_like.lmp[:] = lmp
        short = BatterySpec(2.7, 2.7, 0.95, cycle_life=5.0)
        result = simulate_lifecycle(short, econ, series_like, 5.0,
                                    swap_policy=None, reserve_enabled=False)
        log = result.daily_log
        assert log.soc_end[0] > 1.0  # stored overnight
        assert log.energy_revenue[1] > 0  # sold the next day
        assert result.lb_star > 0


class TestEolAnalysis:
    def test_zero_om_equality(self, tiny_battery, econ, two_level_series):
        result = simulate_lifecycle(tiny_battery, econ, two_level_series, 20.0,
                                    swap_policy=None, reserve_enabled=False)
        econ0 = dataclasses.replace(econ, fixed_om_per_kw_year=0.0)
        eol = eol_analysis(result, tiny_battery, econ0)
        assert eol["economic_eol_year"] == eol["physical_eol_year"]

    def test_huge_om_never_profitable(self, tiny_battery, econ, two_level_series):
        result = simulate_lifecycle(tiny_battery, econ, two_level_series, 20.0,
                                    swap_policy=None, reserve_enabled=False)
        econ_huge = dataclasses.replace(econ, fixed_om_per_kw_year=1e6)
        eol = eol_analysis(result, tiny_battery, econ_huge)
        assert eol["economic_eol_year"] == 0

    def test_ordering_across_om_range(self, tiny_battery, econ, two_level_series):
        result = simulate_lifecycle(tiny_battery, econ, two_level_series, 20.0,
                                    swap_policy=SwapTerms(120.0, 2.0, 10.0),
                                    reserve_enabled=False)
        for om in [0.0, 8.0, 16.0, 24.0, 30.0]:
            econ_om = dataclasses.replace(econ, fixed_om_per_kw_year=om)
            eol = eol_analysis(result, tiny_battery, econ_om)
            assert eol["economic_eol_year"] <= eol["physical_eol_year"]

    def test_om_prorated_in_death_year(self, tiny_battery, econ, two_level_series):
        result = simulate_lifecycle(tiny_battery, econ, two_level_series, 0.0,
                                    swap_policy=None, reserve_enabled=False)
        last = result.yearly[-1]
        om_full = econ.fixed_om_per_kw_year * tiny_battery.power_limit * 1000.0
        assert last["om_cost"] == pytest.approx(om_full * last["days"] / 365.0)

    def test_mdc_in_cashflow_flag_shifts_eol_earlier(self, tiny_battery, econ,
                                                     two_level_series):
        result = simulate_lifecycle(tiny_battery, econ, two_level_series, 30.0,
                                    swap_policy=None, reserve_enabled=False)
        base = eol_analysis(result, tiny_battery, econ)
        with_mdc = eol_analysis(result, tiny_battery, econ, include_mdc_in_cashflow=True)
        assert with_mdc["economic_eol_year"] <= base["economic_eol_year"]


class TestWarmLifecycle:
    """Whole lifecycles on the warm daily model against cold linprog solves."""

    # A fast calendar fade caps every life at 74 days; these live 9-74 and
    # solve 9-50 days each.
    SPEC = BatterySpec(2.7, 2.7, 0.95, cycle_life=60.0, calendar_fade_per_year=1.0)

    @staticmethod
    def _prices():
        return synth_price_series("daily-sine", days=9, seed=4, reserve_level=4.0,
                                  mean=40.0, amplitude=60.0)

    @pytest.mark.parametrize("mu", [0.0, 35.0, 100.0])
    @pytest.mark.parametrize("swap", [None, SwapTerms(160.0, 1.0, 10.0)])
    @pytest.mark.parametrize("reserve", [False, True])
    def test_warm_equals_linprog(self, monkeypatch, econ, mu, swap, reserve):
        import swapval.scheduler as scheduler

        def run():
            return simulate_lifecycle(self.SPEC, econ, self._prices(), mu, swap_policy=swap,
                                      reserve_enabled=reserve, keep_daily_log=False)

        warm = run()
        # Each day the held program is that day's, so every solve is the
        # cold linprog solve of that day.
        monkeypatch.setattr(scheduler, "solve_lp", lambda held: solve_lp_linprog(held.lp))
        cold = run()
        assert warm.days_lived == cold.days_lived
        assert warm.lb_star == pytest.approx(cold.lb_star, rel=1e-9)

    def test_lifecycles_do_not_share_a_model(self, econ):
        """A, then B, then A again: A's result depends only on A's inputs."""
        prices = self._prices()
        swap = SwapTerms(160.0, 1.0, 10.0)

        def run(mu, swap_policy):
            return simulate_lifecycle(self.SPEC, econ, prices, mu, swap_policy=swap_policy)

        first = run(20.0, swap)
        run(5.0, None)
        again = run(20.0, swap)
        assert again.lb_star == first.lb_star
        assert again.days_lived == first.days_lived
        assert np.array_equal(again.daily_log.soh, first.daily_log.soh)


class TestIdleProof:
    """``_idle_proof`` proves a day idle only when the LP agrees."""

    @staticmethod
    def _series(lmp, reserve):
        series = synth_price_series("flat", days=len(lmp) // 24, level=0.0)
        series.lmp[:] = lmp
        series.reserve_price[:] = reserve
        return series

    def test_sound_on_random_days(self):
        rng = np.random.default_rng(6)
        swaps = [NO_SWAP, SwapTerms(90.0, 0.0, 10.0), SwapTerms(70.0, 1.5, 10.0)]
        proven = declined = 0
        for trial in range(48):
            spec = BatterySpec(2.7, 2.7, rng.uniform(0.8, 1.0),
                               self_discharge=[0.0, 0.01][trial % 2])
            swap = swaps[trial % 3]
            reserve = trial % 4 >= 2
            days = 3
            # Means from -20 to 80 $/MWh with spreads up to 60: some LMPs are negative.
            lmp = (rng.uniform(-20.0, 80.0, days).repeat(24)
                   + rng.uniform(0.0, 60.0) * rng.standard_normal(24 * days))
            reserve_price = rng.uniform(0.0, 12.0, 24 * days) if reserve else np.zeros(24 * days)
            mu = rng.uniform(0.0, 250.0)
            model = DailyModel(spec, self._series(lmp, reserve_price), swap, reserve, 0.0)
            idle = _idle_proof(model, mu)
            for d in range(days):
                if not idle[d]:
                    declined += 1
                    continue
                proven += 1
                schedule = solve_one_day(DayInput(
                    battery=spec, lmp=lmp[24 * d:24 * d + 24],
                    reserve_price=reserve_price[24 * d:24 * d + 24], amdc=mu, swap=swap,
                    soc_start=0.0, capacity_now=2.7, reserve_enabled=reserve))
                for column in (schedule.charge, schedule.discharge, schedule.swap_out,
                               schedule.reserve_offer):
                    assert np.abs(column).max() <= 1e-9, (trial, d)
        assert proven >= 20 and declined >= 20, (proven, declined)

    def test_near_tie_is_not_proven(self):
        # Charge at 10, discharge at 90: one stored MWh breaks even at
        # A = (eta**2 * 90 - 10) / (1 + eta**2), with A = amdc + TIE_BREAK_EPS.
        spec = BatterySpec(2.7, 2.7, 0.95)
        series = synth_price_series("two-level", days=1, low=10.0, high=90.0, split_hour=12)
        tie = (0.95 ** 2 * 90.0 - 10.0) / (1.0 + 0.95 ** 2) - TIE_BREAK_EPS

        def proven(amdc):
            return bool(_idle_proof(DailyModel(spec, series, NO_SWAP, False, 0.0), amdc)[0])

        assert not proven(tie * (1.0 - 1e-9))  # just below: cycling pays
        assert not proven(tie)
        assert not proven(tie * (1.0 + 1e-12))  # idle, but inside the margin
        assert proven(tie + 1.0)


def _assert_bit_equal(got, want):
    """Every field equal bit for bit, the daily log's columns included, but
    the day counts (``stats``), which say how the days were computed."""
    for field in dataclasses.fields(want):
        if field.name == "stats":
            continue
        a, b = getattr(got, field.name), getattr(want, field.name)
        if dataclasses.is_dataclass(b):
            _assert_bit_equal(a, b)
        elif isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field.name
        else:
            assert repr(a) == repr(b), field.name


class TestIdleProofExact:
    """The idle tail equals solving every day: proof on equals proof off.

    A stub ``_idle_proof`` that proves nothing sends every day to the
    solver; every field of the result must match bit for bit.
    """

    # A 60-cycle battery whose 20%-a-year calendar fade ends an idle life in
    # about a year; at mu 20 it trades, at 60 and 100 it idles unless a
    # swap pays.
    SPEC = BatterySpec(2.7, 2.7, 0.95, cycle_life=60.0, calendar_fade_per_year=0.2)
    # At mu 27 this one trades for 3-4 years, until the adjusted MDC has
    # risen past every pattern day's spread: the proof opens the tail then.
    MIDLIFE = BatterySpec(2.7, 2.7, 0.95, cycle_life=1000.0, calendar_fade_per_year=0.03)
    # A 300-cycle battery on the 7-day sine of seed 3 at mu 28 trades through
    # its first year, idles from year 2 on (the adjusted MDC rises 7% a year)
    # and runs out of budget in the middle of year 5.
    TAIL = BatterySpec(2.7, 2.7, 0.95, cycle_life=300.0, calendar_fade_per_year=0.03)
    # No calendar fade and an endless cycle life: only the horizon cap stops
    # it, and every idle day's degradation charge is exactly 0.
    ETERNAL = BatterySpec(2.7, 2.7, 0.95, cycle_life=1e9, calendar_fade_per_year=0.0)

    @staticmethod
    def _run(monkeypatch, proof, spec, days, mu, swap, reserve, log, seed=None):
        """The lifecycle, and the adjusted MDCs at which the proof opened the tail."""
        import swapval.lifecycle as lifecycle

        opened = []

        def idle_proof(model, amdc):
            proven = _idle_proof(model, amdc)
            if not proof:
                proven[:] = False
            if proven.all():
                opened.append(amdc)
            return proven

        monkeypatch.setattr(lifecycle, "_idle_proof", idle_proof)
        prices = synth_price_series("daily-sine", days=days,
                                    seed=days if seed is None else seed, mean=40.0,
                                    amplitude=30.0, reserve_level=1.0 if reserve else 0.0)
        result = simulate_lifecycle(spec, EconomicParams(), prices, mu, swap_policy=swap,
                                    reserve_enabled=reserve, keep_daily_log=log)
        return result, opened

    @pytest.mark.parametrize("days", [7, 28, 365])
    @pytest.mark.parametrize("swap", [None, SwapTerms(140.0, 0.0, 10.0),
                                      SwapTerms(60.0, 2.7, 10.0)],
                             ids=["no-swap", "cap-0", "swap-unpaid"])
    @pytest.mark.parametrize("reserve", [False, True])
    def test_proof_on_equals_proof_off(self, monkeypatch, days, swap, reserve):
        runs = [(self.SPEC, 20.0, True), (self.SPEC, 60.0, False),
                (self.SPEC, 100.0, days != 365)]
        if not reserve:
            runs.append((self.MIDLIFE, 27.0, True))
        opened = []
        for spec, mu, log in runs:
            on, opened_on = self._run(monkeypatch, True, spec, days, mu, swap, reserve, log)
            off, opened_off = self._run(monkeypatch, False, spec, days, mu, swap, reserve, log)
            _assert_bit_equal(on, off)
            assert opened_off == [] and len(opened_on) <= 1
            opened += [amdc / mu for amdc in opened_on]
        assert 1.0 in opened, "the proof never opened the tail on day 0"
        if not reserve:
            assert max(opened) > 1.0, "the proof never opened the tail in mid-life"

    @pytest.mark.parametrize("case", ["exhausted-mid-year", "horizon-cap", "self-discharge",
                                      "swap-idle", "swap-busy"])
    def test_tail_equals_solving_every_day(self, monkeypatch, case):
        spec, mu, swap = self.TAIL, 28.0, None
        if case == "horizon-cap":
            spec, mu = self.ETERNAL, 60.0
        elif case == "self-discharge":
            spec = dataclasses.replace(spec, self_discharge=0.001)
        elif case == "swap-idle":
            swap = SwapTerms(30.0, 1.0, 10.0)  # swapping never pays at this MDC
        elif case == "swap-busy":
            swap = SwapTerms(160.0, 1.0, 10.0)  # swapping pays every day: no tail

        on, opened = self._run(monkeypatch, True, spec, 7, mu, swap, False, True, seed=3)
        off, _ = self._run(monkeypatch, False, spec, 7, mu, swap, False, True, seed=3)
        _assert_bit_equal(on, off)
        # The tail opens once, in year 2 (on day 0 with the eternal battery),
        # and runs to the end of the life.
        assert opened == ([] if case == "swap-busy" else
                          [60.0] if case == "horizon-cap" else [28.0 * 1.07])
        if case == "exhausted-mid-year":
            assert on.days_lived % 365 != 0 and not on.horizon_capped
        if case == "horizon-cap":
            assert on.horizon_capped and on.days_lived == 365 * 30
            assert on.daily_log.degradation_cost[-1] == 0.0

    def test_all_idle_lifecycle_never_solves(self, monkeypatch):
        import swapval.scheduler as scheduler

        calls = []
        real = scheduler.solve_lp
        monkeypatch.setattr(scheduler, "solve_lp",
                            lambda *args, **kw: calls.append(1) or real(*args, **kw))
        prices = synth_price_series("daily-sine", days=28, seed=3, mean=40.0, amplitude=30.0)
        result = simulate_lifecycle(self.SPEC, EconomicParams(), prices, 100.0,
                                    swap_policy=SwapTerms(140.0, 0.0, 10.0))
        assert calls == []
        assert result.days_lived > 300 and result.lb_star < 0.0
        assert not result.daily_log.throughput.max() > calendar_throughput_per_day(self.SPEC)


def _busy_prices(tmp_path):
    """The lifecycle-busy benchmark's prices: a 365-day sine CSV with reserve
    prices, as read back from the file."""
    from swapval.market_data import load_price_series, write_series

    path = str(tmp_path / "prices.csv")
    write_series(synth_price_series("daily-sine", days=365, seed=3, reserve_level=5.0,
                                    mean=40.0, amplitude=30.0), path)
    return load_price_series(path)


class TestYearCloseOut:
    """A year's close-out adds its days in order, as a plain Python loop does."""

    @pytest.mark.parametrize("case", ["lifecycle-busy", "idle-tail"])
    def test_close_out_equals_left_fold(self, case, tmp_path):
        econ = EconomicParams(discount_rate=0.07)
        if case == "lifecycle-busy":  # simulated at mu 35 with the paper swap terms
            result = simulate_lifecycle(BatterySpec(2.7, 2.7, 0.95), econ, _busy_prices(tmp_path),
                                        35.0, swap_policy=SwapTerms(160.0, 2.7, 10.0))
        else:  # trades through year 1, idles from year 2, dies in year 5
            prices = synth_price_series("daily-sine", days=7, seed=3, mean=40.0, amplitude=30.0)
            result = simulate_lifecycle(TestIdleProofExact.TAIL, econ, prices, 28.0)
            assert 4 * 365 < result.days_lived < 5 * 365
        log = {field.name: getattr(result.daily_log, field.name).tolist()
               for field in dataclasses.fields(result.daily_log)}
        lb = energy = swap = reserve = 0.0
        cash, mdc_cost = {}, {}
        for t in range(result.days_lived):
            year = t // 365
            delta = (1.0 + econ.discount_rate) ** (-year)
            lb += delta * log["sb_star"][t]
            energy += delta * log["energy_revenue"][t]
            swap += delta * log["swap_revenue"][t]
            reserve += delta * log["reserve_revenue"][t]
            cash[year] = cash.get(year, 0.0) + (
                log["energy_revenue"][t] + log["swap_revenue"][t] + log["reserve_revenue"][t]
                - log["labor_cost"][t])
            mdc_cost[year] = mdc_cost.get(year, 0.0) + log["degradation_cost"][t]
        assert result.lb_star == lb
        assert (result.discounted_energy_revenue, result.discounted_swap_revenue,
                result.discounted_reserve_revenue) == (energy, swap, reserve)
        assert [(row["operating_cash"], row["mdc_cost"]) for row in result.yearly] \
            == [(cash[year], mdc_cost[year]) for year in sorted(cash)]

    def test_budget_runs_out_on_the_caps_last_day(self):
        """The paper battery at mu 100 on the paper-defaults year never cycles
        and lives exactly 20 years."""
        from swapval.config import paper_defaults, resolve_prices

        config = paper_defaults()
        prices = resolve_prices(config)

        def run(cap):
            econ = dataclasses.replace(config.economics, horizon_cap_years=cap)
            return simulate_lifecycle(config.battery, econ, prices, 100.0,
                                      swap_policy=config.swap, keep_daily_log=False)

        at_cap = run(20)
        assert at_cap.days_lived == 7300 and not at_cap.horizon_capped
        assert at_cap.physical_eol_year == 20
        _assert_bit_equal(at_cap, run(21))
        capped = run(19)
        assert capped.horizon_capped and capped.days_lived == 6935
        assert capped.physical_eol_year is None
        # Without the daily log, the result keeps no per-day array.
        assert at_cap.daily_log is None


class TestBasisCertificate:
    """Days proven optimal from the last HiGHS basis change no lifecycle.

    A stub ``certify`` that always declines, with blocks that always decline
    too, sends every solved day to HiGHS.
    A certified or continued day's point comes from the basis inverse, not
    from a HiGHS run, so floats may move in the last digits (relative 1e-12,
    or 1e-12 absolute below 1; daily-log columns 1e-9); the day counts must
    match exactly.  Each continued day's objective is also that of HiGHS
    alone (a cold ``linprog`` solve of the day) within a relative 1e-9.
    """

    PAPER = BatterySpec(2.7, 2.7, 0.95)
    SHORT = BatterySpec(2.7, 2.7, 0.95, cycle_life=60.0, calendar_fade_per_year=0.2)

    @staticmethod
    def _run(monkeypatch, certify, spec, days, mu, swap, reserve):
        """The lifecycle, and its (solved, idle-tail, certified, continued)
        day counts; without ``certify``, the certificate and its blocks
        always decline."""
        import swapval.lifecycle as lifecycle

        def day(model, *args):
            x, pivots = solve_day(model, *args)
            if pivots:
                want = solve_lp_linprog(model.held.lp).objective_value
                assert model.held.lp.objective @ x == pytest.approx(want, rel=1e-9, abs=1e-9)
            return x, pivots

        monkeypatch.setattr(HighsModel, "certify", _CERTIFY if certify else lambda *args: None)
        monkeypatch.setattr(lifecycle, "certify_days",
                            certify_days if certify else lambda *args: None)
        monkeypatch.setattr(lifecycle, "solve_day", day)
        prices = synth_price_series("daily-sine", days=days, seed=days, mean=40.0,
                                    amplitude=30.0, reserve_level=5.0 if reserve else 0.0)
        result = simulate_lifecycle(spec, EconomicParams(), prices, mu, swap_policy=swap,
                                    reserve_enabled=reserve, keep_daily_log=True)
        stats = result.stats
        return result, {"solved": stats["days_solved"], "tail": stats["idle_days"],
                        "certified": stats["days_certified"] + stats["days_in_blocks"],
                        "continued": stats["days_continued"]}

    @staticmethod
    def _assert_close(got, want):
        def close(a, b):
            return abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)

        for field in dataclasses.fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if field.name == "stats":  # the day counts, compared by the tests
                continue
            if field.name == "daily_log":
                for column in dataclasses.fields(b):
                    np.testing.assert_allclose(getattr(a, column.name),
                                               getattr(b, column.name),
                                               rtol=1e-9, atol=1e-9, err_msg=column.name)
            elif field.name == "yearly":
                assert [sorted(row) for row in a] == [sorted(row) for row in b]
                for row_a, row_b in zip(a, b):
                    for key in row_b:
                        assert close(row_a[key], row_b[key]) if isinstance(row_b[key], float) \
                            else row_a[key] == row_b[key], key
            elif isinstance(b, np.ndarray):
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12, err_msg=field.name)
            elif isinstance(b, float):
                assert close(a, b), (field.name, a, b)
            else:
                assert a == b, field.name

    # The paper battery's lives are long (900-7300 days), so it runs on one
    # pattern length; the 60-cycle battery's short lives run on all three.
    @pytest.mark.parametrize("battery,days", [("paper", 28), ("short", 7), ("short", 28),
                                              ("short", 365)])
    @pytest.mark.parametrize("swap", [None, SwapTerms(140.0, 0.0, 10.0),
                                      SwapTerms(160.0, 2.7, 10.0)],
                             ids=["no-swap", "cap-0", "swap"])
    @pytest.mark.parametrize("reserve", [False, True])
    def test_certificate_equals_highs(self, monkeypatch, battery, days, swap, reserve):
        spec = self.PAPER if battery == "paper" else self.SHORT
        certified = continued = 0
        for mu in (0.0, 35.0, 100.0):
            on, counts_on = self._run(monkeypatch, True, spec, days, mu, swap, reserve)
            off, counts_off = self._run(monkeypatch, False, spec, days, mu, swap, reserve)
            assert counts_off["certified"] == counts_off["continued"] == 0
            assert on.days_lived == off.days_lived
            assert counts_on["solved"] == counts_off["solved"]
            assert counts_on["tail"] == counts_off["tail"]
            self._assert_close(on, off)
            certified += counts_on["certified"]
            continued += counts_on["continued"]
        assert certified > 0, "no day was certified"
        assert continued > 0, "no day was continued"

    def test_busy_lifecycle_runs_highs_only_on_declined_days(self, monkeypatch, tmp_path):
        """The lifecycle-busy benchmark's inputs: a 365-day sine CSV with reserve
        prices, simulated at mu 35 with the paper-defaults swap terms.  HiGHS
        runs on the life's first day only, which has no basis yet; every
        later declined day, a year's first solved day too, is continued."""
        import swapval.lifecycle as lifecycle

        days = []  # (day, certified, pivots taken, HiGHS ran)

        def day(model, d, soc, capacity):
            runs = model.held.runs if model.held else 0
            x, taken = solve_day(model, d, soc, capacity)
            days.append((d, taken == 0, taken or 0, model.held.runs > runs))
            return x, taken

        monkeypatch.setattr(lifecycle, "solve_day", day)
        result = simulate_lifecycle(self.PAPER, EconomicParams(), _busy_prices(tmp_path),
                                    35.0, swap_policy=SwapTerms(160.0, 2.7, 10.0))
        stats = result.stats
        assert stats["days_solved"] == result.days_lived  # every day is solved
        declined = stats["days_solved"] - stats["days_certified"] - stats["days_in_blocks"] \
            - stats["days_continued"]
        assert 0 < stats["highs_runs"] == declined < stats["days_solved"] / 2
        assert stats["days_in_blocks"] > 0 and stats["days_continued"] > 0
        assert stats["pivots"] == sum(e[2] for e in days)
        highs = [e for e in days if e[3]]
        assert [e[0] for e in highs] == [0] and stats["highs_runs"] == 1
        assert not highs[0][1] and not highs[0][2]
        # A later year's first solved day is continued, not sent to HiGHS.
        first = set(range(DAYS_PER_YEAR, result.days_lived, DAYS_PER_YEAR))
        assert any(taken for d, _, taken, _ in days if d in first)

    def test_busy_lifecycle_bits_and_calls(self, tmp_path):
        """The lifecycle-busy inputs: the bits, one solved day per day lived,
        the continued days and their pivots, and the HiGHS runs.  Blocks
        certify most days, and their points move the last bits of
        ``lb_star``: the day loop that certified one day at a time gave
        ``0x1.9747f4ffaab1bp+18``.  Continuing declined days instead of
        running HiGHS on them (256 runs before, then 2 while a year's first
        day took no pivot) left these bits as they were."""
        result = simulate_lifecycle(self.PAPER, EconomicParams(), _busy_prices(tmp_path),
                                    35.0, swap_policy=SwapTerms(160.0, 2.7, 10.0))
        assert result.lb_star.hex() == "0x1.9747f4ffaab1ap+18"
        one_at_a_time = float.fromhex("0x1.9747f4ffaab1bp+18")
        assert abs(result.lb_star - one_at_a_time) <= 1e-12 * abs(one_at_a_time)
        assert result.days_lived == result.stats["days_solved"] == 1507
        assert result.stats["days_continued"] == 142
        assert result.stats["pivots"] == 144
        assert result.stats["highs_runs"] == 1


class TestBlocks:
    """A block of days certified at once ends exactly where the day loop
    stops or the certificate declines, and its lifecycle is the one that
    certifies a day at a time (blocks off): the same day counts, floats
    within a relative 1e-12.

    The instances (chosen once, recorded here) end blocks at each boundary:
    ``_prices(365, (10, 20))`` at mu 30 over two years ends blocks at
    declined days, at the year's end and at a day that starts empty before
    the year's idle proof was tried (pattern day 10 ends empty); the
    60-cycle battery on ``_prices(28, ())`` at mu 35 ends a block on the
    day that exhausts the budget.
    """

    PAPER = BatterySpec(2.7, 2.7, 0.95)
    SHORT = BatterySpec(2.7, 2.7, 0.95, cycle_life=60.0, calendar_fade_per_year=0.2)
    CASES = {"paper": (PAPER, 365, (10, 20), 30.0, 2), "short": (SHORT, 28, (), 35.0, 30)}

    @staticmethod
    def _prices(days, empty_days):
        """A daily sine whose hour-23 reserve price of 80 keeps energy in the
        battery overnight, except on ``empty_days``, which end empty."""
        sine = synth_price_series("daily-sine", days=days, seed=3, mean=40.0, amplitude=30.0)
        reserve = np.zeros((days, 24))
        reserve[:, 23] = 80.0
        reserve[list(empty_days), 23] = 0.0
        return HourlyPriceSeries(lmp=sine.lmp, reserve_price=reserve.ravel())

    def _run(self, monkeypatch, blocks, case):
        """The lifecycle and the day loop's events in order: ("block", first
        day, days, why it ended), ("day", day, how) for each day solved one
        at a time ("certified", "continued" or "highs"), and ("proof", day)
        for each idle-proof try."""
        import swapval.lifecycle as lifecycle

        spec, days, empty_days, mu, years = self.CASES[case]
        events = []

        def block(model, day, size, soc, used, budget, stop_when_empty, out, points):
            k, declined, soc, used = _certify_block(model, day, size, soc, used, budget,
                                                    stop_when_empty, out, points)
            why = ("declined" if declined else "budget" if used >= budget
                   else "year" if (day + k) % DAYS_PER_YEAR == 0
                   else "empty" if k < size and stop_when_empty and soc == 0.0 else "size")
            events.append(("block", day, k, why))
            return k, declined, soc, used

        def day(model, d, *args):
            x, pivots = solve_day(model, d, *args)
            events.append(("day", d, "certified" if pivots == 0
                           else "continued" if pivots else "highs"))
            return x, pivots

        monkeypatch.setattr(lifecycle, "_certify_block", block)
        monkeypatch.setattr(lifecycle, "certify_days",
                            certify_days if blocks else lambda *args: None)
        monkeypatch.setattr(lifecycle, "solve_day", day)
        monkeypatch.setattr(lifecycle, "_idle_proof",
                            lambda *args: events.append(("proof",)) or _idle_proof(*args))
        result = simulate_lifecycle(spec, EconomicParams(horizon_cap_years=years),
                                    self._prices(days, empty_days), mu, keep_daily_log=True)
        # A proof is tried on the day of the event after it.
        for i, event in enumerate(events):
            if event == ("proof",):
                events[i] = ("proof", events[i + 1][1] if i + 1 < len(events) else None)
        return result, [e for e in events if e[0] != "block" or e[2]]

    @staticmethod
    def _assert_close(got, want):
        def close(a, b):
            return abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)

        for field in ("lb_star", "abu", "cumulative_throughput", "final_soh",
                      "discounted_energy_revenue", "discounted_swap_revenue",
                      "discounted_reserve_revenue"):
            assert close(getattr(got, field), getattr(want, field)), field
        for row_a, row_b in zip(got.yearly, want.yearly, strict=True):
            assert row_a.keys() == row_b.keys()
            assert all(close(row_a[k], row_b[k]) for k in row_b), (row_a, row_b)
        for column in dataclasses.fields(want.daily_log):
            np.testing.assert_allclose(getattr(got.daily_log, column.name),
                                       getattr(want.daily_log, column.name),
                                       rtol=1e-12, atol=1e-12, err_msg=column.name)

    @pytest.mark.parametrize("case,boundary", [("paper", "declined"), ("paper", "year"),
                                               ("paper", "empty"), ("short", "budget")])
    def test_block_ends_exactly_there(self, monkeypatch, case, boundary):
        on, events = self._run(monkeypatch, True, case)
        off, events_off = self._run(monkeypatch, False, case)
        assert off.stats["days_in_blocks"] == 0 and on.stats["days_in_blocks"] > 0
        ends = [(i, e) for i, e in enumerate(events) if e[0] == "block" and e[3] == boundary]
        assert ends, f"no block ends at a {boundary} boundary"
        for i, (_, first, k, _) in ends:
            after = events[i + 1] if i + 1 < len(events) else None
            if boundary == "declined":  # the next day continues from the basis
                assert after == ("day", first + k, "continued")
            elif boundary == "year":  # the next year's first day, if any, is solved alone
                assert (first + k) % DAYS_PER_YEAR == 0
                assert after[:2] == ("day", first + k) if after else first + k == on.days_lived
            elif boundary == "empty":  # the idle proof is tried on the next day
                assert after == ("proof", first + k)
            else:  # the life ends with the block
                assert after is None and first + k == on.days_lived
        # Blocks certify exactly the days the day loop certifies: continued
        # days, HiGHS runs and idle-proof tries on the same days.
        for kind in ("proof", "day"):
            assert [e for e in events if e[0] == kind and e[-1] != "certified"] == \
                [e for e in events_off if e[0] == kind and e[-1] != "certified"]
        assert on.days_lived == off.days_lived
        for key in ("days_solved", "idle_days", "days_continued", "pivots", "highs_runs"):
            assert on.stats[key] == off.stats[key], key
        assert on.stats["days_certified"] + on.stats["days_in_blocks"] == \
            off.stats["days_certified"]
        self._assert_close(on, off)

    def test_block_day_failing_the_recheck_names_the_day(self, monkeypatch):
        _, events = self._run(monkeypatch, True, "paper")
        first = next(e[1] for e in events if e[0] == "block")
        check = HighsModel.check_stretch

        def failing(self, at_upper, u, s):
            # A negative tolerance fails every point's re-check, and nothing else.
            with monkeypatch.context() as patch:
                patch.setattr(lp, "_TOL", -lp._TOL)
                return check(self, at_upper, u, s)

        monkeypatch.setattr(HighsModel, "check_stretch", failing)
        with pytest.raises(LPError, match=rf"re-check: .* \[day {first}, pattern day "):
            self._run(monkeypatch, True, "paper")

    def test_block_day_of_negative_throughput_names_the_day(self, monkeypatch):
        import swapval.lifecycle as lifecycle

        _, events = self._run(monkeypatch, True, "paper")
        first = next(e[1] for e in events if e[0] == "block" and e[2] >= 2)

        def certify(model, day, count):
            block = certify_days(model, day, count)
            if day == first:  # the block's second day draws -1e6 MWh
                block[1][0][1, 1] = -1e6
            return block

        monkeypatch.setattr(lifecycle, "certify_days", certify)
        with pytest.raises(ScheduleError,
                           match=rf"negative throughput -\d+\.\d+ \[day {first + 1}, pattern day "):
            simulate_lifecycle(self.PAPER, EconomicParams(horizon_cap_years=2),
                               self._prices(365, (10, 20)), 30.0)
