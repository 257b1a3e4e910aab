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
import math
import os
from dataclasses import asdict, dataclass, field

from swapval.lifecycle import DAYS_PER_YEAR, MAX_HORIZON_YEARS, EconomicParams
from swapval.market_data import (
    DEFAULT_SCHEMA,
    HourlyPriceSeries,
    load_price_series,
    synth_price_series,
)
from swapval.optimizers import DemandPriceCurve
from swapval.scheduler import BatterySpec, SwapTerms


class ConfigError(ValueError):
    """Invalid or inconsistent scenario configuration."""


# Each synthetic pattern's required and optional parameters (see
# ``synth_price_series``); every pattern also takes ``reserve_level``.
_SYNTH_PARAMS = {
    "flat": (("level",), ()),
    "two-level": (("low", "high"), ("split_hour",)),
    "daily-sine": (("mean", "amplitude"), ()),
}


def _check_synth_params(pattern: str, params) -> None:
    """Reject a synthetic price source ``synth_price_series`` cannot build."""
    if pattern not in _SYNTH_PARAMS:
        raise ConfigError(f"unknown synthetic pattern {pattern!r} "
                          f"(expected one of {', '.join(_SYNTH_PARAMS)})")
    if not isinstance(params, dict):
        raise ConfigError(f"synthetic params must be an object, got {params!r}")
    required, optional = _SYNTH_PARAMS[pattern]
    for name in required:
        if name not in params:
            raise ConfigError(f"synthetic pattern {pattern!r} needs parameter {name!r}")
    known = (*required, *optional, "reserve_level")
    for name in params:
        if name not in known:  # a misspelt optional parameter would be ignored
            raise ConfigError(f"synthetic pattern {pattern!r} takes no parameter {name!r} "
                              f"(expected {', '.join(known)})")
    for name in known:
        value = params.get(name, 0.0)
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise ConfigError(f"synthetic parameter {name!r} must be a finite number, "
                              f"got {value!r}")
    for name in ("amplitude", "reserve_level"):
        if params.get(name, 0.0) < 0:
            raise ConfigError(f"synthetic parameter {name!r} must be >= 0, got {params[name]!r}")
    split = params.get("split_hour", 12)
    if split != int(split) or not 0 <= split <= 24:
        raise ConfigError(
            f"synthetic parameter 'split_hour' must be an integer in [0, 24], got {split!r}")


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
        if self.kind == "synthetic" and not self.pattern:
            raise ConfigError("synthetic price source requires a pattern")
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
        if self.kind == "synthetic":
            _check_synth_params(self.pattern, self.params)


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
    return {
        "battery": asdict(config.battery),
        "economics": asdict(config.economics),
        "prices": asdict(config.prices),
        "swap": asdict(config.swap) if config.swap is not None else None,
        "demand_curve": asdict(config.demand_curve) if config.demand_curve is not None else None,
        "flags": asdict(config.flags),
        "mdc_grid": list(config.mdc_grid),
        "price_grid": list(config.price_grid),
    }


def parse_config(data: dict) -> ScenarioConfig:
    try:
        battery = BatterySpec(**data["battery"])
        economics = EconomicParams(**data["economics"])
        prices = PriceSource(**data["prices"])
        swap = SwapTerms(**data["swap"]) if data.get("swap") else None
        curve = DemandPriceCurve(**data["demand_curve"]) if data.get("demand_curve") else None
        flags = Flags(**data.get("flags", {}))
        mdc_grid = [float(v) for v in data.get("mdc_grid", range(0, 101, 5))]
        price_grid = [float(v) for v in data.get("price_grid", range(0, 201, 10))]
        for name in ("mdc_grid", "price_grid"):
            if any(isinstance(v, bool) for v in data.get(name, ())):
                raise ConfigError(f"{name} must hold numbers, got {data[name]!r}")
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    return ScenarioConfig(battery=battery, economics=economics, prices=prices,
                          swap=swap, demand_curve=curve, flags=flags,
                          mdc_grid=mdc_grid, price_grid=price_grid)


def load_config(source: str) -> ScenarioConfig:
    """Load a config from a JSON file path, or the 'paper-defaults' preset."""
    if source == "paper-defaults":
        return paper_defaults()
    if not os.path.exists(source):
        raise ConfigError(f"config file not found: {source}")
    with open(source, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(data)


def emit_config(config: ScenarioConfig, path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(config), fh, indent=2)
        fh.write("\n")
    return path


def resolve_prices(config: ScenarioConfig) -> HourlyPriceSeries:
    """Materialize the configured price series (file read or synthesis)."""
    src = config.prices
    if src.kind == "file":
        schema = src.schema if src.schema else dict(DEFAULT_SCHEMA)
        return load_price_series(src.path, schema=schema)
    return synth_price_series(src.pattern, days=src.days, seed=src.seed, **src.params)
