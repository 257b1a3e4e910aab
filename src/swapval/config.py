"""Scenario configuration: one JSON document describing a full run.

The built-in ``paper-defaults`` preset carries the published station
parameters (2.7 MWh / 2.7 MW, 95% one-way efficiency, 2000 cycles to 80%,
1% calendar fade per year, $10/MWh swap labor, 7% discount rate).  Prices
default to a synthetic daily-sine year because the historical market data
is not distributed with the package; point ``prices`` at a CSV to reproduce
data-conditional results.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from swapval.lifecycle import DAYS_PER_YEAR, MAX_HORIZON_YEARS, EconomicParams
from swapval.market_data import (
    HourlyPriceSeries,
    PriceDataError,
    check_price_schema,
    check_synth_source,
    load_price_series,
    synth_price_series,
)
from swapval.optimizers import DemandPriceCurve
from swapval.report import write_json
from swapval.scheduler import BatterySpec, SwapTerms


class ConfigError(ValueError):
    """Invalid or inconsistent scenario configuration."""


@dataclass(frozen=True)
class PriceSource:
    kind: str  # 'file' | 'synthetic'
    path: str | None = None
    schema: dict | None = None
    pattern: str | None = None
    days: int = 365
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("file", "synthetic"):
            raise ConfigError(f"price source kind must be 'file' or 'synthetic', got {self.kind!r}")
        if self.kind == "file" and not self.path:
            raise ConfigError("file price source requires a path")
        if self.kind == "file" and not isinstance(self.path, str):
            raise ConfigError(f"price source path must be a string, got {self.path!r}")
        if self.kind == "file" and self.params:  # nothing reads them
            raise ConfigError("file price source takes no params")
        if self.kind == "file" and self.pattern is not None:  # nor this one
            raise ConfigError("file price source takes no pattern")
        if self.kind == "synthetic" and not self.pattern:
            raise ConfigError("synthetic price source requires a pattern")
        if self.kind == "synthetic" and not isinstance(self.pattern, str):
            raise ConfigError(f"synthetic price source pattern must be a string, "
                              f"got {self.pattern!r}")
        for name in ("days", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"price source {name} must be an integer, got {value!r}")
        # No lifecycle reaches a day past its longest horizon.
        if not 1 <= self.days <= DAYS_PER_YEAR * MAX_HORIZON_YEARS:
            raise ConfigError(f"price source days must be in "
                              f"[1, {DAYS_PER_YEAR * MAX_HORIZON_YEARS}], got {self.days}")
        if self.seed < 0:
            raise ConfigError(f"price source seed must be >= 0, got {self.seed}")
        try:
            if self.kind == "synthetic":
                check_synth_source(self.pattern, self.params)
            elif self.schema not in (None, {}):  # {} reads as the default schema
                check_price_schema(self.schema)
        except PriceDataError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class Flags:
    reserve_enabled: bool = True
    include_mdc_in_cashflow: bool = False

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not isinstance(value, bool):
                raise ConfigError(f"flag {name} must be true or false, got {value!r}")


@dataclass
class ScenarioConfig:
    battery: BatterySpec
    economics: EconomicParams
    prices: PriceSource
    swap: SwapTerms | None = None
    demand_curve: DemandPriceCurve | None = None
    flags: Flags = field(default_factory=Flags)
    mdc_grid: list[float] = field(default_factory=lambda: [float(v) for v in range(0, 101, 5)])
    price_grid: list[float] = field(default_factory=lambda: [float(v) for v in range(0, 201, 10)])


def paper_defaults() -> ScenarioConfig:
    return ScenarioConfig(
        battery=BatterySpec(
            energy_capacity_0=2.7, power_limit=2.7, efficiency=0.95,
            self_discharge=0.0, cycle_life=2000.0, eol_capacity_fraction=0.8,
            calendar_fade_per_year=0.01,
        ),
        economics=EconomicParams(discount_rate=0.07, fixed_om_per_kw_year=16.0,
                                 horizon_cap_years=30),
        prices=PriceSource(kind="synthetic", pattern="daily-sine", days=365, seed=0,
                           params={"mean": 40.0, "amplitude": 30.0}),
        swap=SwapTerms(swap_price=160.0, daily_swap_cap=2.7, labor_cost=10.0),
    )


def config_to_dict(config: ScenarioConfig) -> dict:
    return asdict(config)


def parse_config(data: dict) -> ScenarioConfig:
    try:
        battery = BatterySpec(**data["battery"])
        economics = EconomicParams(**data["economics"])
        prices = PriceSource(**data["prices"])
        swap = SwapTerms(**data["swap"]) if data.get("swap") else None
        curve = DemandPriceCurve(**data["demand_curve"]) if data.get("demand_curve") else None
        flags = Flags(**data.get("flags", {}))
        grids = {name: data[name] for name in ("mdc_grid", "price_grid") if name in data}
        for name, grid in grids.items():
            if not isinstance(grid, list) or any(isinstance(v, bool) for v in grid):
                raise ConfigError(f"{name} must be an array of numbers, got {grid!r}")
            grids[name] = [float(v) for v in grid]
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    return ScenarioConfig(battery=battery, economics=economics, prices=prices,
                          swap=swap, demand_curve=curve, flags=flags, **grids)


def load_config(source: str) -> ScenarioConfig:
    """Load a config from a JSON file path, or the 'paper-defaults' preset."""
    if source == "paper-defaults":
        return paper_defaults()
    try:
        with open(source, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {source}") from None
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {source}: {exc}") from exc
    return parse_config(data)


def emit_config(config: ScenarioConfig, path: str) -> str:
    try:
        return write_json(path, config_to_dict(config))
    except ValueError as exc:  # a NaN or infinity in a field no check reads
        raise ConfigError(f"config cannot be written as JSON: {exc}") from exc


def resolve_prices(config: ScenarioConfig) -> HourlyPriceSeries:
    """Materialize the configured price series (file read or synthesis)."""
    src = config.prices
    if src.kind == "file":
        return load_price_series(src.path, schema=src.schema or None)
    return synth_price_series(src.pattern, days=src.days, seed=src.seed, **src.params)
