"""Deterministic JSON/CSV emission for results.

Re-running with identical inputs must produce byte-identical files, so
nothing time- or environment-dependent is written and floats use repr
(shortest exact round-trip, never fewer meaningful digits than the value
carries).
"""

from __future__ import annotations

import csv
import json
import os
from typing import Any

from swapval.lifecycle import LifecycleResult
from swapval.optimizers import CurvePriceResult, MdcSweepResult

MDC_SWEEP_COLUMNS = ["mu", "lb_star", "abu", "days_lived",
                     "arbitrage_revenue", "reserve_revenue"]
PRICE_SWEEP_COLUMNS = ["swap_price", "mu_star", "lb_star", "abu", "days_lived"]
CURVE_COLUMNS = ["slope", "intercept", "swap_price", "demand", "mu_star", "lb_star"]
DAILY_LOG_COLUMNS = ["day", "soh", "throughput", "sb_star", "soc_end"]
CASHFLOW_COLUMNS = ["year", "days", "operating_cash", "om_cost",
                    "net_profit", "discounted_net"]
EOL_COLUMNS = ["om_per_kw_year", "mode", "mu", "economic_eol_year", "physical_eol_year"]


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def write_table(path: str, columns: list[str], rows: list[dict]) -> str:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(c)) for c in columns])
    return path


def write_json(path: str, payload: dict) -> str:
    """Write ``payload`` as JSON; a NaN or infinity raises ValueError, since
    JSON has no such values, and leaves no file."""
    text = json.dumps(payload, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return path


def lifecycle_payload(result: LifecycleResult) -> dict:
    return {
        "mu": result.mu,
        "lb_star": result.lb_star,
        "abu": result.abu,
        "days_lived": result.days_lived,
        "physical_eol_year": result.physical_eol_year,
        "economic_eol_year": result.economic_eol_year,
        "horizon_capped": result.horizon_capped,
        "cumulative_throughput": result.cumulative_throughput,
        "total_budget": result.total_budget,
        "final_soh": result.final_soh,
        "discounted_energy_revenue": result.discounted_energy_revenue,
        "discounted_swap_revenue": result.discounted_swap_revenue,
        "discounted_reserve_revenue": result.discounted_reserve_revenue,
        "yearly": result.yearly,
    }


def emit_lifecycle(result: LifecycleResult, out_dir: str) -> list[str]:
    paths = [write_json(os.path.join(out_dir, "lifecycle.json"), lifecycle_payload(result))]
    soh_rows = [{"day": int(d), "soh": float(s)}
                for d, s in enumerate(result.soh_series)]
    paths.append(write_table(os.path.join(out_dir, "soh.csv"), ["day", "soh"], soh_rows))
    paths.append(write_table(os.path.join(out_dir, "cashflow.csv"),
                             CASHFLOW_COLUMNS, result.yearly))
    if result.daily_log is not None:
        log = result.daily_log
        rows = [
            {"day": int(log.day[i]), "soh": float(log.soh[i]),
             "throughput": float(log.throughput[i]), "sb_star": float(log.sb_star[i]),
             "soc_end": float(log.soc_end[i])}
            for i in range(len(log.day))
        ]
        paths.append(write_table(os.path.join(out_dir, "daily_log.csv"),
                                 DAILY_LOG_COLUMNS, rows))
    return paths


def emit_mdc_sweep(result: MdcSweepResult, out_dir: str,
                   stem: str = "mdc_sweep") -> list[str]:
    return [
        write_table(os.path.join(out_dir, f"{stem}.csv"), MDC_SWEEP_COLUMNS, result.grid),
        write_json(os.path.join(out_dir, f"{stem}.json"),
                   {"mu_star": result.mu_star, "lb_at_star": result.lb_at_star,
                    "grid": result.grid}),
    ]


def emit_price_sweep(rows: list[dict], out_dir: str) -> list[str]:
    return [
        write_table(os.path.join(out_dir, "price_sweep.csv"), PRICE_SWEEP_COLUMNS, rows),
        write_json(os.path.join(out_dir, "price_sweep.json"), {"rows": rows}),
    ]


def emit_curve_optima(results: list[tuple[float, float, CurvePriceResult]],
                      out_dir: str) -> list[str]:
    """One row per (slope, intercept, candidate price); optima flagged in JSON."""
    rows = []
    optima = []
    for slope, intercept, res in results:
        for row in res.rows:
            rows.append({"slope": slope, "intercept": intercept, **row})
        optima.append({
            "slope": slope, "intercept": intercept,
            "price_star": res.price_star, "demand_star": res.demand_star,
            "mu_star": res.mu_star, "lb_star": res.lb_star,
        })
    return [
        write_table(os.path.join(out_dir, "curve_optima.csv"), CURVE_COLUMNS, rows),
        write_json(os.path.join(out_dir, "curve_optima.json"), {"optima": optima}),
    ]


def emit_eol_sensitivity(rows: list[dict], out_dir: str) -> list[str]:
    return [write_table(os.path.join(out_dir, "eol_sensitivity.csv"), EOL_COLUMNS, rows)]

