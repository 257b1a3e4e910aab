"""Command-line entry point.

Subcommands: simulate, optimize-mdc, sweep-price, optimize-curve-price, eol.
Every run echoes the resolved configuration to ``config.json`` in the output
directory alongside the result files.  Exit codes: 0 success, 2 bad
configuration or usage, 3 data errors (price files), 4 internal solver
failure; failures also leave a machine-readable ``error.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from swapval.config import (
    ConfigError,
    PriceSource,
    ScenarioConfig,
    emit_config,
    load_config,
    resolve_prices,
)
from swapval.lifecycle import check_mdc, eol_analysis, simulate_lifecycle
from swapval.lp import LPError
from swapval.market_data import DEFAULT_SCHEMA, SYNTH_PARAMS, PriceDataError
from swapval.optimizers import (
    MAX_GRID_POINTS,
    DemandPriceCurve,
    SweepError,
    _refine_spacing,
    _validate_grid,
    _worker_count,
    optimize_mdc,
    optimize_mdc_each,
    optimize_price_for_curves,
    refine_mdc,
    sweep_swap_price,
)
from swapval.report import (
    emit_curve_optima,
    emit_eol_sensitivity,
    emit_lifecycle,
    emit_mdc_sweep,
    emit_price_sweep,
    write_json,
)
from swapval.scheduler import ScheduleError, SwapTerms

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_SOLVER = 4


def _parse_grid(text: str) -> list[float]:
    """Parse 'a:b:step' into an inclusive ascending grid."""
    try:
        parts = [float(p) for p in text.split(":")]
        if len(parts) != 3:
            raise ValueError("expected a:b:step")
        a, b, step = parts
        if not all(math.isfinite(p) for p in parts):
            raise ValueError("a, b and step must be finite")
        if step <= 0 or b < a:
            raise ValueError("need step > 0 and b >= a")
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}") from exc
    grid = []
    v = a
    while v <= b + step * 1e-9:
        if len(grid) == MAX_GRID_POINTS:  # also stops a step too small to move v
            raise ConfigError(f"bad grid {text!r}: more than {MAX_GRID_POINTS} points")
        grid.append(round(v, 12))
        v += step
    return grid


def _checked(validate, *args, **kwargs):
    """Run an engine validator, reporting its ValueError as bad configuration."""
    try:
        return validate(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_curve(text: str) -> DemandPriceCurve:
    try:
        k, b = (float(p) for p in text.split(","))
        return DemandPriceCurve(slope=k, intercept=b)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad curve {text!r} (expected k,b with k<0, b>0): {exc}") from exc


def _parse_synth(text: str) -> tuple[str, dict]:
    """``PATTERN:V1:V2...``: the values fill the pattern's parameters in order,
    the required ones first; ``sine`` is ``daily-sine``."""
    name, *values = text.split(":")
    pattern = "daily-sine" if name == "sine" else name
    if pattern not in SYNTH_PARAMS:
        raise ConfigError(f"unknown synth pattern {name!r}")
    required, optional = SYNTH_PARAMS[pattern]
    names = (*required, *optional)
    if not len(required) <= len(values) <= len(names):
        usage = ":".join((pattern, *required)) + "".join(f"[:{o}]" for o in optional)
        raise ConfigError(f"bad synth spec {text!r}: expected {usage}, "
                          f"got {len(values)} values")
    try:
        return pattern, {key: int(value) if key == "split_hour" else float(value)
                         for key, value in zip(names, values)}
    except ValueError as exc:
        raise ConfigError(f"bad synth spec {text!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default="paper-defaults",
                        help="config JSON path or 'paper-defaults'")
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--mu", type=float, help="life-cycle MDC in $/MWh-throughput")
    common.add_argument("--mdc-grid", help="MDC grid as a:b:step")
    common.add_argument("--price-grid", help="swap price grid as a:b:step")
    common.add_argument("--om", type=float, help="fixed O&M in $/kW-year")
    common.add_argument("--no-reserve", action="store_true",
                        help="disable the reserve channel")
    common.add_argument("--seed", type=int, help="seed for synthetic prices")
    common.add_argument("--synth", help="synthetic prices: flat:LVL | "
                        "two-level:LO:HI[:SPLIT] | daily-sine:MEAN:AMP")
    common.add_argument("--days", type=int, help="days of synthetic prices")
    common.add_argument("--price-file", help="hourly price CSV path")
    common.add_argument("--schema-hour", help="CSV column holding the hour index")
    common.add_argument("--schema-lmp", help="CSV column holding the LMP")
    common.add_argument("--schema-reserve", help="CSV column holding the reserve price")
    common.add_argument("--swap-price", type=float, help="swap price override, $/MWh")
    common.add_argument("--swap-cap", type=float, help="daily swap cap override, MWh")
    common.add_argument("--labor", type=float, help="swap labor cost override, $/MWh")

    parser = argparse.ArgumentParser(
        prog="swapval",
        description="Life-cycle valuation and dispatch for a battery swapping station",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", parents=[common],
                   help="one lifecycle at a fixed MDC (--mu)")
    p = sub.add_parser("optimize-mdc", parents=[common],
                       help="sweep the MDC grid for the best life-cycle value")
    p.add_argument("--refine-step", type=float,
                   help="re-sweep around the argmax at this finer step")
    sub.add_parser("sweep-price", parents=[common],
                   help="re-optimize the MDC at each swap price")
    p = sub.add_parser("optimize-curve-price", parents=[common],
                       help="best swap price under demand-price curves")
    p.add_argument("--curve", action="append", default=[],
                   help="demand-price curve as k,b (repeatable)")
    p = sub.add_parser("eol", parents=[common],
                       help="economic/physical EOL sensitivity to fixed O&M")
    p.add_argument("--om-grid", default="0:30:8", help="O&M grid as a:b:step")
    return parser


def _apply_overrides(config: ScenarioConfig, args: argparse.Namespace) -> ScenarioConfig:
    if args.synth and args.price_file:
        raise ConfigError("--synth and --price-file are mutually exclusive")
    if args.mu is not None and not 0 <= args.mu < float("inf"):
        raise ConfigError(f"--mu must be finite and >= 0, got {args.mu}")
    prices = config.prices
    if args.price_file:
        prices = PriceSource(kind="file", path=args.price_file, schema=prices.schema or None)
    elif args.synth or prices.kind == "synthetic":
        pattern, params = (_parse_synth(args.synth) if args.synth
                           else (prices.pattern, prices.params))
        prices = PriceSource(kind="synthetic", pattern=pattern, params=params,
                             days=prices.days if args.days is None else args.days,
                             seed=prices.seed if args.seed is None else args.seed)
    columns = {key: name for key, name in (("hour", args.schema_hour), ("lmp", args.schema_lmp),
                                          ("reserve", args.schema_reserve)) if name}
    if prices.kind == "file" and columns:
        schema = {**(prices.schema or DEFAULT_SCHEMA), **columns}
        prices = dataclasses.replace(prices, schema=schema)

    economics = config.economics
    if args.om is not None:
        economics = _checked(dataclasses.replace, economics, fixed_om_per_kw_year=args.om)

    flags = config.flags
    if args.no_reserve:
        flags = dataclasses.replace(flags, reserve_enabled=False)

    swap = config.swap
    terms = {name: value for name, value in (("swap_price", args.swap_price),
                                             ("daily_swap_cap", args.swap_cap),
                                             ("labor_cost", args.labor)) if value is not None}
    if terms:
        swap = _checked(dataclasses.replace, swap or SwapTerms(0.0, 0.0), **terms)

    mdc_grid = config.mdc_grid if args.mdc_grid is None else _parse_grid(args.mdc_grid)
    price_grid = config.price_grid if args.price_grid is None else _parse_grid(args.price_grid)
    mdc_grid = _checked(_validate_grid, mdc_grid, "mdc")
    price_grid = _checked(_validate_grid, price_grid, "price")
    if getattr(args, "refine_step", None) is not None:
        _checked(_refine_spacing, mdc_grid, args.refine_step)
    for mu in mdc_grid + ([] if args.mu is None else [args.mu]):
        _checked(check_mdc, mu, config.battery, economics)

    return dataclasses.replace(config, economics=economics, prices=prices, swap=swap,
                               flags=flags, mdc_grid=mdc_grid, price_grid=price_grid)


def _cmd_simulate(config: ScenarioConfig, prices, args) -> None:
    if args.mu is None:
        raise ConfigError("simulate requires --mu")
    result = simulate_lifecycle(
        config.battery, config.economics, prices, args.mu,
        swap_policy=config.swap, reserve_enabled=config.flags.reserve_enabled)
    eol = eol_analysis(result, config.battery, config.economics,
                       include_mdc_in_cashflow=config.flags.include_mdc_in_cashflow)
    result.economic_eol_year = eol["economic_eol_year"]
    emit_lifecycle(result, args.out)


def _cmd_optimize_mdc(config: ScenarioConfig, prices, args) -> None:
    sweep = optimize_mdc(config.battery, config.economics, prices, config.swap,
                         config.mdc_grid, reserve_enabled=config.flags.reserve_enabled)
    emit_mdc_sweep(sweep, args.out)
    if args.refine_step is not None:
        refined = refine_mdc(sweep, config.battery, config.economics, prices,
                             config.swap, args.refine_step,
                             reserve_enabled=config.flags.reserve_enabled)
        emit_mdc_sweep(refined, args.out, stem="mdc_sweep_refined")


def _cmd_sweep_price(config: ScenarioConfig, prices, args) -> None:
    # The overrides fold --swap-cap and --labor into config.swap.
    if config.swap is None:
        raise ConfigError("sweep-price needs --swap-cap or a swap block in the config")
    rows = sweep_swap_price(config.battery, config.economics, prices,
                            config.price_grid, config.swap.daily_swap_cap, config.mdc_grid,
                            labor_cost=config.swap.labor_cost,
                            reserve_enabled=config.flags.reserve_enabled)
    emit_price_sweep(rows, args.out)


def _cmd_optimize_curve_price(config: ScenarioConfig, prices, args) -> None:
    curves = [_parse_curve(c) for c in args.curve]
    if not curves and config.demand_curve is not None:
        curves = [config.demand_curve]
    if not curves:
        raise ConfigError("optimize-curve-price needs --curve k,b or a demand_curve "
                          "block in the config")
    labor = (config.swap or SwapTerms(0.0, 0.0)).labor_cost
    optima = optimize_price_for_curves(
        config.battery, config.economics, prices, curves,
        config.price_grid, config.mdc_grid, labor_cost=labor,
        reserve_enabled=config.flags.reserve_enabled)
    emit_curve_optima([(curve.slope, curve.intercept, result)
                       for curve, result in zip(curves, optima)], args.out)


def _cmd_eol(config: ScenarioConfig, prices, args) -> None:
    om_grid = _checked(_validate_grid, _parse_grid(args.om_grid), "om")
    rows = []
    modes = [("with_swap", config.swap), ("no_swap", None)]
    if config.swap is None:
        modes = [("no_swap", None)]
    # A fixed --mu is a one-point grid; otherwise each mode runs at its own mu*.
    grid = config.mdc_grid if args.mu is None else [args.mu]
    sweeps = optimize_mdc_each(config.battery, config.economics, prices,
                               [swap for _, swap in modes], grid,
                               reserve_enabled=config.flags.reserve_enabled)
    for (mode, _), sweep in zip(modes, sweeps):
        result = sweep.best
        for om in om_grid:
            econ = dataclasses.replace(config.economics, fixed_om_per_kw_year=om)
            eol = eol_analysis(result, config.battery, econ,
                               include_mdc_in_cashflow=config.flags.include_mdc_in_cashflow)
            rows.append({
                "om_per_kw_year": om, "mode": mode, "mu": result.mu,
                "economic_eol_year": eol["economic_eol_year"],
                "physical_eol_year": eol["physical_eol_year"],
            })
    emit_eol_sensitivity(rows, args.out)


_COMMANDS = {
    "simulate": _cmd_simulate,
    "optimize-mdc": _cmd_optimize_mdc,
    "sweep-price": _cmd_sweep_price,
    "optimize-curve-price": _cmd_optimize_curve_price,
    "eol": _cmd_eol,
}


def _fail(args, exc: Exception, code: int) -> int:
    record = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    print(json.dumps(record), file=sys.stderr)
    out = getattr(args, "out", None)
    if out:
        try:
            os.makedirs(out, exist_ok=True)
            write_json(os.path.join(out, "error.json"), record)
        except OSError:  # an --out that cannot be created: stderr only
            pass
    return code


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _checked(_worker_count, 1)  # a malformed SWAPVAL_THREADS
        config = load_config(args.config)
        config = _apply_overrides(config, args)
        prices = resolve_prices(config)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {args.out}: {exc}") from exc
        emit_config(config, os.path.join(args.out, "config.json"))
        _COMMANDS[args.command](config, prices, args)
    except ConfigError as exc:
        return _fail(args, exc, EXIT_CONFIG)
    except PriceDataError as exc:
        return _fail(args, exc, EXIT_DATA)
    except (LPError, ScheduleError, SweepError) as exc:
        return _fail(args, exc, EXIT_SOLVER)
    return EXIT_OK


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
