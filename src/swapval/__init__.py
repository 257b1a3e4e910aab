"""Life-cycle valuation and dispatch engine for a battery swapping station.

The engine co-optimizes hourly charging, discharging, battery swapping and
reserve offers against market prices, aggregates daily profits into a
discounted life-cycle objective under a throughput-based degradation budget,
and searches for the marginal degradation cost and swapping price that
maximize life-cycle value.
"""

from swapval.market_data import (
    HourlyPriceSeries,
    PriceDataError,
    load_price_series,
    synth_price_series,
    write_series,
)
from swapval.lp import (
    LinearProgram,
    LPSolution,
    LPError,
    DimensionError,
    IterationLimitError,
    solve_lp,
)
from swapval.scheduler import (
    BatterySpec,
    SwapTerms,
    DailyModel,
    ScheduleError,
    build_daily_lp,
    solve_day,
)
from swapval.lifecycle import (
    EconomicParams,
    LifecycleResult,
    total_budget,
    calendar_throughput_per_day,
    adjusted_mdc,
    simulate_lifecycle,
    eol_analysis,
    abu,
)
from swapval.optimizers import (
    DemandPriceCurve,
    MdcSweepResult,
    optimize_mdc,
    optimize_mdc_each,
    refine_mdc,
    sweep_swap_price,
    demand_at_price,
    optimize_price_for_curve,
    optimize_price_for_curves,
)

__version__ = "0.1.0"
