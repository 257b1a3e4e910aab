"""Hourly price series: CSV ingestion, validation, and synthetic generators.

A series holds aligned hourly energy (LMP) and reserve prices for one
representative stretch of whole days.  The lifecycle engine tiles the series
day-wise across the battery lifetime, so a single year (8760 rows) stands in
for every operating year.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_SCHEMA = {
    "hour": "hour",
    "lmp": "lmp_usd_per_mwh",
    "reserve": "reserve_usd_per_mw",
}


class PriceDataError(ValueError):
    """Raised for malformed price files or invalid series content.

    ``row`` is the 1-based data row (header excluded) when the problem is
    attributable to a single row, else None.
    """

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


@dataclass
class HourlyPriceSeries:
    """Aligned hourly LMP and reserve prices covering whole days.

    Values are immutable by convention after construction; share freely
    across threads.  Hour indices are implicit: entry h is hour h, counted
    from 0, and the series length is a positive multiple of 24.
    """

    lmp: np.ndarray
    reserve_price: np.ndarray

    def __post_init__(self):
        self.lmp = np.asarray(self.lmp, dtype=float)
        self.reserve_price = np.asarray(self.reserve_price, dtype=float)
        validate_series(self)

    @property
    def n_hours(self) -> int:
        return len(self.lmp)

    @property
    def n_days(self) -> int:
        return len(self.lmp) // 24


def validate_series(series: HourlyPriceSeries) -> None:
    """Check the series invariants, raising PriceDataError on violation."""
    n = len(series.lmp)
    if n == 0 or n % 24 != 0:
        raise PriceDataError(f"series length {n} is not a positive multiple of 24")
    if len(series.reserve_price) != n:
        raise PriceDataError("lmp and reserve_price lengths differ")
    if not np.all(np.isfinite(series.lmp)):
        row = int(np.flatnonzero(~np.isfinite(series.lmp))[0]) + 1
        raise PriceDataError("non-finite lmp", row=row)
    if not np.all(np.isfinite(series.reserve_price)):
        row = int(np.flatnonzero(~np.isfinite(series.reserve_price))[0]) + 1
        raise PriceDataError("non-finite reserve price", row=row)
    if np.any(series.reserve_price < 0):
        row = int(np.flatnonzero(series.reserve_price < 0)[0]) + 1
        raise PriceDataError(
            f"negative reserve price {series.reserve_price[row - 1]}", row=row
        )


def _parse_number(cell: str, what: str, row: int) -> float:
    # Plain decimal notation only: no thousands separators, no underscores.
    text = cell.strip()
    if not text or "_" in text or "," in text:
        raise PriceDataError(f"non-numeric {what} {cell!r}", row=row)
    try:
        value = float(text)
    except ValueError:
        raise PriceDataError(f"non-numeric {what} {cell!r}", row=row) from None
    if not math.isfinite(value):
        raise PriceDataError(f"non-finite {what} {cell!r}", row=row)
    return value


def _floats(columns) -> np.ndarray | None:
    """The cells as floats, each stripped and read by ``float`` as in ``_parse_number``;
    None if ``float`` rejects one or one holds an underscore, which it reads."""
    if any("_" in "".join(column) for column in columns):
        return None
    try:
        return np.array([[float(cell) for cell in map(str.strip, column)] for column in columns])
    except ValueError:
        return None


def check_price_schema(schema) -> None:
    """Reject a column map ``load_price_series`` cannot read a CSV with: it maps
    'hour' and 'lmp' to column names, and may map 'reserve' to one or to None."""
    if not isinstance(schema, dict):
        raise PriceDataError(f"price schema must be an object, got {schema!r}")
    for key, name in schema.items():
        if key not in DEFAULT_SCHEMA:  # a misspelt 'reserve' would zero every reserve price
            raise PriceDataError(f"price schema takes no key {key!r} (expected hour, lmp, reserve)")
        if not isinstance(name, str) and not (key == "reserve" and name is None):
            raise PriceDataError(f"price schema {key!r} must be a column name, got {name!r}")
    if not schema.get("hour") or not schema.get("lmp"):
        raise PriceDataError("schema must map 'hour' and 'lmp' columns")


def load_price_series(path: str | os.PathLike, schema: dict | None = None) -> HourlyPriceSeries:
    """Read and validate an hourly price CSV.

    Args:
        path: CSV file with a header row, one row per hour.
        schema: column-name map with keys 'hour', 'lmp' and optionally
            'reserve'.  Defaults to DEFAULT_SCHEMA.  If 'reserve' is absent
            or maps to None, reserve prices default to 0.

    Returns:
        A validated HourlyPriceSeries.

    Raises:
        PriceDataError: a path that is not a str or os.PathLike, a malformed
            schema, a missing or unreadable file, missing columns,
            duplicate/missing hours, non-numeric cells, negative reserve
            prices, or a row count that is not a multiple of 24.  Row
            numbers are 1-based data rows (header excluded).
    """
    if not isinstance(path, (str, os.PathLike)):  # an int would name a file descriptor
        raise PriceDataError(f"price file path must be a str or os.PathLike, "
                             f"got {type(path).__name__}")
    schema = DEFAULT_SCHEMA if schema is None else schema
    check_price_schema(schema)
    hour_col, lmp_col = schema["hour"], schema["lmp"]
    reserve_col = schema.get("reserve") or None

    names = [hour_col, lmp_col] + ([reserve_col] if reserve_col else [])
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise PriceDataError("empty file (no header row)")
            for col in names:
                if col not in header:
                    raise PriceDataError(f"missing column {col!r} (found {header})")
            rows = [row for row in reader if row]  # blank lines are skipped
    except FileNotFoundError:
        raise PriceDataError(f"price file not found: {path}") from None
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise PriceDataError(f"cannot read price file {path}: {exc}") from exc
    # A column's cells: its last header match's, as in csv.DictReader, or "".
    last = {col: len(header) - 1 - header[::-1].index(col) for col in names}
    cells = [[row[last[col]] if last[col] < len(row) else "" for row in rows] for col in names]
    hour_cells, lmp_cells, reserve_cells = cells if reserve_col else (*cells, ["0"] * len(rows))

    # In bulk when every cell and row passes, else cell by cell to name the bad one.
    n = len(rows)
    values = _floats((hour_cells, lmp_cells, reserve_cells))
    if values is not None and n and n % 24 == 0 and np.isfinite(values).all() \
            and np.array_equal(values[0], np.arange(n)) and (values[2] >= 0).all():
        return HourlyPriceSeries(lmp=values[1], reserve_price=values[2])

    hours, lmp, reserve = [], [], []
    for i, (hour, price, reserve_price) in enumerate(
            zip(hour_cells, lmp_cells, reserve_cells), start=1):
        raw_hour = _parse_number(hour, "hour", i)
        if raw_hour != int(raw_hour):
            raise PriceDataError(f"non-integer hour {hour!r}", row=i)
        hours.append(int(raw_hour))
        lmp.append(_parse_number(price, "lmp", i))
        r = _parse_number(reserve_price, "reserve price", i)
        if r < 0:
            raise PriceDataError(f"negative reserve price {r}", row=i)
        reserve.append(r)

    if n == 0 or n % 24 != 0:
        raise PriceDataError(f"row count {n} not a multiple of 24")
    for i, h in enumerate(hours, start=1):
        if h != i - 1:
            if h in hours[: i - 1]:
                raise PriceDataError(f"duplicate hour {h}", row=i)
            raise PriceDataError(f"hour {h} out of order (expected {i - 1})", row=i)

    return HourlyPriceSeries(lmp=np.array(lmp), reserve_price=np.array(reserve))


def write_series(series: HourlyPriceSeries, path: str | os.PathLike,
                 schema: dict | None = None) -> None:
    """Write a series as CSV, numerically exact on round-trip via repr floats."""
    schema = dict(DEFAULT_SCHEMA if schema is None else schema)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([schema["hour"], schema["lmp"], schema.get("reserve", "reserve_usd_per_mw")])
        for h in range(series.n_hours):
            writer.writerow([h, repr(float(series.lmp[h])), repr(float(series.reserve_price[h]))])


# Each synthetic pattern's required and optional parameters; every pattern
# also takes ``reserve_level``.
SYNTH_PARAMS = {
    "flat": (("level",), ()),
    "two-level": (("low", "high"), ("split_hour",)),
    "daily-sine": (("mean", "amplitude"), ()),
}


def check_synth_source(pattern: str, params) -> None:
    """Reject a synthetic price source ``synth_price_series`` cannot build."""
    if pattern not in SYNTH_PARAMS:
        raise PriceDataError(f"unknown synthetic pattern {pattern!r} "
                             f"(expected one of {', '.join(SYNTH_PARAMS)})")
    if not isinstance(params, dict):
        raise PriceDataError(f"synthetic params must be an object, got {params!r}")
    required, optional = SYNTH_PARAMS[pattern]
    for name in required:
        if name not in params:
            raise PriceDataError(f"synthetic pattern {pattern!r} needs parameter {name!r}")
    known = (*required, *optional, "reserve_level")
    for name in params:
        if name not in known:  # a misspelt optional parameter would be ignored
            raise PriceDataError(f"synthetic pattern {pattern!r} takes no parameter {name!r} "
                                 f"(expected {', '.join(known)})")
    for name in known:
        value = params.get(name, 0.0)
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise PriceDataError(f"synthetic parameter {name!r} must be a finite number, "
                                 f"got {value!r}")
    for name in ("amplitude", "reserve_level"):
        if params.get(name, 0.0) < 0:
            raise PriceDataError(f"synthetic parameter {name!r} must be >= 0, got {params[name]!r}")
    split = params.get("split_hour", 12)
    if split != int(split) or not 0 <= split <= 24:
        raise PriceDataError(
            f"synthetic parameter 'split_hour' must be an integer in [0, 24], got {split!r}")


def synth_price_series(pattern: str, days: int, seed: int = 0,
                       reserve_level: float = 0.0, **params) -> HourlyPriceSeries:
    """Generate a deterministic synthetic price series.

    Patterns (``SYNTH_PARAMS``; ``check_synth_source`` states the rules):
        'flat':       level
        'two-level':  low, high, split_hour (hours < split take low)
        'daily-sine': mean, amplitude; peak at hour 18, trough at hour 6,
                      with a seeded +/-10% per-day amplitude jitter so the
                      synthetic year is not 365 identical days.

    reserve_price is ``reserve_level`` (>= 0) for every hour.
    """
    if days < 1:
        raise PriceDataError(f"days must be >= 1, got {days}")
    check_synth_source(pattern, {**params, "reserve_level": reserve_level})
    n = 24 * days

    if pattern == "flat":
        lmp = np.full(n, float(params["level"]))
    elif pattern == "two-level":
        low, high = float(params["low"]), float(params["high"])
        day = np.where(np.arange(24) < int(params.get("split_hour", 12)), low, high)
        lmp = np.tile(day, days)
    else:
        mean, amplitude = float(params["mean"]), float(params["amplitude"])
        rng = np.random.default_rng(seed)
        jitter = rng.uniform(0.9, 1.1, size=days)
        hours = np.arange(24)
        shape = np.sin(2.0 * np.pi * (hours - 12.0) / 24.0)
        lmp = (mean + amplitude * np.outer(jitter, shape)).ravel()

    return HourlyPriceSeries(lmp=lmp, reserve_price=np.full(n, float(reserve_level)))
