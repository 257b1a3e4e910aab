"""Deterministic JSON/CSV emission for results.

Re-running with identical inputs must produce byte-identical files, so
nothing time- or environment-dependent is written and floats use repr
(shortest exact round-trip, never fewer meaningful digits than the value
carries).
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
from typing import Any

from swapval.lifecycle import LifecycleResult
from swapval.optimizers import CurvePriceResult, MdcSweepResult

# cashflow.csv's columns: every yearly key but mdc_cost, which only lifecycle.json holds.
CASHFLOW_COLUMNS = ["year", "days", "operating_cash", "om_cost",
                    "net_profit", "discounted_net"]


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def write_table(path: str, rows: list[dict]) -> str:
    """``rows`` as CSV under the first row's keys, in order; KeyError if a row lacks one."""
    columns = list(rows[0])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row[c]) for c in columns])
    return path


def write_json(path: str, payload: dict) -> str:
    """Write ``payload`` as JSON; a NaN or infinity raises ValueError, since
    JSON has no such values, and leaves no file."""
    text = json.dumps(payload, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return path


def emit_lifecycle(result: LifecycleResult, out_dir: str) -> list[str]:
    """Write lifecycle.json (every field but the daily log and the day counts)
    and the daily log's CSVs."""
    payload = {field.name: getattr(result, field.name)
               for field in dataclasses.fields(result) if field.name not in ("daily_log", "stats")}
    log = result.daily_log
    columns = ("day", "soh", "throughput", "sb_star", "soc_end")
    days = [dict(zip(columns, values))
            for values in zip(*(getattr(log, name).tolist() for name in columns))]
    return [
        write_json(os.path.join(out_dir, "lifecycle.json"), payload),
        write_table(os.path.join(out_dir, "soh.csv"),
                    [{"day": row["day"], "soh": row["soh"]} for row in days]),
        write_table(os.path.join(out_dir, "cashflow.csv"),
                    [{c: row[c] for c in CASHFLOW_COLUMNS} for row in result.yearly]),
        write_table(os.path.join(out_dir, "daily_log.csv"), days),
    ]


def emit_mdc_sweep(result: MdcSweepResult, out_dir: str,
                   stem: str = "mdc_sweep") -> list[str]:
    return [
        write_table(os.path.join(out_dir, f"{stem}.csv"), result.grid),
        write_json(os.path.join(out_dir, f"{stem}.json"),
                   {"mu_star": result.mu_star, "lb_at_star": result.lb_at_star,
                    "grid": result.grid}),
    ]


def emit_price_sweep(rows: list[dict], out_dir: str) -> list[str]:
    return [
        write_table(os.path.join(out_dir, "price_sweep.csv"), rows),
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
        write_table(os.path.join(out_dir, "curve_optima.csv"), rows),
        write_json(os.path.join(out_dir, "curve_optima.json"), {"optima": optima}),
    ]


def emit_eol_sensitivity(rows: list[dict], out_dir: str) -> list[str]:
    return [write_table(os.path.join(out_dir, "eol_sensitivity.csv"), rows)]

