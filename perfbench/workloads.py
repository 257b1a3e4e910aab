"""The benchmark's workloads: CLI studies, their seeded inputs, their outputs.

Each workload is one `swapval` CLI study on the paper-defaults battery and
economics.  `prepare` runs inside a pass process (it needs `swapval` to write
price files); `extract_checks` runs in run.py and reads only the files
the study wrote.  Every input is generated from the input seed, so the
program sees nothing but generated files and flags.
"""

from __future__ import annotations

import csv
import json
import os

# Prices of the generated inputs: the paper-defaults synthetic year is a
# daily sine of mean 40 and amplitude 30 $/MWh.
SINE_MEAN = 40.0
SINE_AMPLITUDE = 30.0
# Reserve price of the lifecycle-busy CSV, $/MW-h, so the reserve columns of
# the daily LP are live.
RESERVE_LEVEL = 5.0

WORKLOADS = ("lifecycle-busy", "mdc-sweep", "curve-sweep")

# Relative tolerance on lb_star and lb_at_star.  The other checked fields,
# days_lived, mu_star and price_star, must match exactly.
REL_TOL = 1e-6
REL_FIELDS = ("lb_star", "lb_at_star")


def _tiny_config(work_dir: str) -> str:
    """A paper-defaults config whose lifecycles end within a simulated year.

    Used only by the self-test: a short cycle life and a fast calendar fade
    keep every lifecycle to a few hundred (mostly idle-memo) days.
    """
    from swapval.config import config_to_dict, paper_defaults

    data = config_to_dict(paper_defaults())
    data["battery"]["cycle_life"] = 20.0
    data["battery"]["calendar_fade_per_year"] = 0.2
    path = os.path.join(work_dir, "tiny_config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def prepare(workload: str, input_seed: int, work_dir: str, tiny: bool = False) -> list[str]:
    """Generate the workload's inputs under `work_dir` and return its CLI argv.

    The returned argv lacks `--out`, which the caller appends.  `tiny` shrinks
    the study for the self-test (two-day price patterns, short lifecycles and
    coarse grids); the benchmark proper never sets it.
    """
    from swapval.market_data import synth_price_series, write_series

    config = _tiny_config(work_dir) if tiny else "paper-defaults"
    sine = f"daily-sine:{SINE_MEAN:g}:{SINE_AMPLITUDE:g}"
    if workload == "lifecycle-busy":
        series = synth_price_series("daily-sine", days=2 if tiny else 365, seed=input_seed,
                                    reserve_level=RESERVE_LEVEL,
                                    mean=SINE_MEAN, amplitude=SINE_AMPLITUDE)
        path = os.path.join(work_dir, "prices.csv")
        write_series(series, path)
        return ["simulate", "--config", config, "--mu", "35", "--price-file", path]
    if workload == "mdc-sweep":
        argv = ["optimize-mdc", "--config", config, "--seed", str(input_seed),
                "--mdc-grid", "0:100:50" if tiny else "0:100:10"]
        return argv + (["--days", "2"] if tiny else [])
    if workload == "curve-sweep":
        return ["optimize-curve-price", "--config", config,
                "--curve=-10,180", "--curve=-40,180",
                "--price-grid", "160:200:40" if tiny else "100:200:20",
                "--mdc-grid", "60:100:40" if tiny else "60:100:20",
                "--synth", sine, "--days", "2" if tiny else "28",
                "--seed", str(input_seed)]
    raise ValueError(f"unknown workload {workload!r}")


def extract_checks(workload: str, out_dir: str) -> dict[str, dict]:
    """Read the values the correctness gate compares, keyed by grid point."""
    if workload == "lifecycle-busy":
        with open(os.path.join(out_dir, "lifecycle.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        return {f"mu={doc['mu']!r}": {"lb_star": doc["lb_star"],
                                      "days_lived": doc["days_lived"]}}
    if workload == "mdc-sweep":
        with open(os.path.join(out_dir, "mdc_sweep.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        checks = {"argmax": {"mu_star": doc["mu_star"], "lb_at_star": doc["lb_at_star"]}}
        for row in doc["grid"]:
            checks[f"mu={row['mu']!r}"] = {"lb_star": row["lb_star"],
                                          "days_lived": row["days_lived"]}
        return checks
    if workload == "curve-sweep":
        with open(os.path.join(out_dir, "curve_optima.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        checks = {}
        for opt in doc["optima"]:
            checks[f"curve=({opt['slope']!r},{opt['intercept']!r})"] = {
                "price_star": opt["price_star"], "mu_star": opt["mu_star"],
                "lb_star": opt["lb_star"]}
        with open(os.path.join(out_dir, "curve_optima.csv"), newline="",
                  encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                point = (f"curve=({float(row['slope'])!r},{float(row['intercept'])!r}) "
                         f"price={float(row['swap_price'])!r}")
                checks[point] = {"mu_star": float(row["mu_star"]),
                                 "lb_star": float(row["lb_star"])}
        return checks
    raise ValueError(f"unknown workload {workload!r}")


def compare(workload: str, seed: int, got: dict[str, dict],
            reference: dict[str, dict]) -> list[str]:
    """Return one message per value that misses its reference, naming the point."""
    misses = []
    for point in sorted(set(reference) | set(got)):
        if point not in got or point not in reference:
            where = "output" if point not in got else "reference"
            misses.append(f"{workload} seed {seed} {point}: missing from the {where}")
            continue
        for field, ref in reference[point].items():
            value = got[point].get(field)
            if field in REL_FIELDS:
                ok = value is not None and abs(value - ref) <= REL_TOL * max(abs(ref), 1.0)
            else:
                ok = value == ref
            if not ok:
                misses.append(f"{workload} seed {seed} {point}: {field} {value!r} "
                              f"!= reference {ref!r}")
    return misses
