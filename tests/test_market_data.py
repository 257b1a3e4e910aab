import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapval.market_data import (
    HourlyPriceSeries,
    PriceDataError,
    load_price_series,
    synth_price_series,
    validate_series,
    write_series,
)


def write_csv(path, rows, header="hour,lmp_usd_per_mwh,reserve_usd_per_mw"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return str(path)


def test_well_formed_full_year(tmp_path):
    rows = [f"{h},{20 + (h % 24)},1.5" for h in range(8760)]
    series = load_price_series(write_csv(tmp_path / "y.csv", rows))
    assert series.n_hours == 8760
    assert series.n_days == 365
    assert series.lmp[25] == 21.0


def test_row_count_not_multiple_of_24(tmp_path):
    rows = [f"{h},50,0" for h in range(25)]
    with pytest.raises(PriceDataError, match="not a multiple of 24"):
        load_price_series(write_csv(tmp_path / "bad.csv", rows))


def test_negative_lmp_accepted_and_round_trips(tmp_path):
    rows = [f"{h},50,0" for h in range(24)]
    rows[3] = "3,-12.5,0"
    path = write_csv(tmp_path / "neg.csv", rows)
    series = load_price_series(path)
    assert series.lmp[3] == -12.5
    out = tmp_path / "copy.csv"
    write_series(series, out)
    again = load_price_series(out)
    assert np.array_equal(series.lmp, again.lmp)
    assert np.array_equal(series.reserve_price, again.reserve_price)


def test_negative_reserve_rejected_with_row(tmp_path):
    rows = [f"{h},50,0" for h in range(24)]
    rows[7] = "7,50,-1"
    with pytest.raises(PriceDataError, match="row 8"):
        load_price_series(write_csv(tmp_path / "r.csv", rows))


def test_non_numeric_cell_reports_row(tmp_path):
    rows = [f"{h},50,0" for h in range(24)]
    rows[5] = "5,abc,0"
    with pytest.raises(PriceDataError, match="row 6"):
        load_price_series(write_csv(tmp_path / "n.csv", rows))


def test_duplicate_hour_reports_row(tmp_path):
    rows = [f"{h},50,0" for h in range(24)]
    rows[9] = "8,50,0"
    with pytest.raises(PriceDataError, match="row 10"):
        load_price_series(write_csv(tmp_path / "d.csv", rows))


def test_missing_file():
    with pytest.raises(PriceDataError, match="not found"):
        load_price_series("/does/not/exist.csv")


def test_missing_column(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text("hour,price\n0,1\n")
    with pytest.raises(PriceDataError, match="lmp_usd_per_mwh"):
        load_price_series(str(path))


def test_schema_override_without_reserve(tmp_path):
    path = tmp_path / "alt.csv"
    path.write_text("t,price\n" + "\n".join(f"{h},{h}" for h in range(24)) + "\n")
    series = load_price_series(str(path), schema={"hour": "t", "lmp": "price"})
    assert series.lmp[23] == 23.0
    assert np.all(series.reserve_price == 0.0)


def test_misspelt_schema_key_rejected(tmp_path):
    """A misspelt 'reserve' key would read every reserve price as 0."""
    rows = [f"{h},50,5" for h in range(24)]
    schema = {"hour": "hour", "lmp": "lmp_usd_per_mwh", "reserv": "reserve_usd_per_mw"}
    with pytest.raises(PriceDataError, match="'reserv'"):
        load_price_series(write_csv(tmp_path / "r.csv", rows), schema=schema)


def test_integer_path_rejected(tmp_path):
    """An int names a file descriptor, which ``open`` would read and then close."""
    fd = os.open(write_csv(tmp_path / "p.csv", [f"{h},50,0" for h in range(24)]), os.O_RDONLY)
    try:
        with pytest.raises(PriceDataError, match="str or os.PathLike, got int"):
            load_price_series(fd)
        os.fstat(fd)  # still open
    finally:
        os.close(fd)


def test_underscore_number_rejected(tmp_path):
    rows = [f"{h},50,0" for h in range(24)]
    rows[0] = "0,1_000,0"
    with pytest.raises(PriceDataError, match="row 1"):
        load_price_series(write_csv(tmp_path / "u.csv", rows))


# One bad cell or row of each kind, at data row 4 unless the kind is about the
# whole file, and the message of the cell-by-cell parse, which runs whenever the
# bulk parse does not accept every cell and row.
BAD_ROWS = {
    "empty": ("3,,0", "row 4: non-numeric lmp ''"),
    "blank": ("3, ,0", "row 4: non-numeric lmp ' '"),
    "underscore": ("3,1_000,0", "row 4: non-numeric lmp '1_000'"),
    "comma": ('3,"1,5",0', "row 4: non-numeric lmp '1,5'"),
    "word": ("x,50,0", "row 4: non-numeric hour 'x'"),
    "nan": ("3,nan,0", "row 4: non-finite lmp 'nan'"),
    "infinite-reserve": ("3,50,inf", "row 4: non-finite reserve price 'inf'"),
    "fractional-hour": ("3.5,50,0", "row 4: non-integer hour '3.5'"),
    "negative-reserve": ("3,50,-1", "row 4: negative reserve price -1.0"),
    "duplicate-hour": ("2,50,0", "row 4: duplicate hour 2"),
    "skipped-hour": ("30,50,0", "row 4: hour 30 out of order (expected 3)"),
    "short-row": ("3,50", "row 4: non-numeric reserve price ''"),
}


@pytest.mark.parametrize("kind", list(BAD_ROWS))
def test_each_bad_cell_kind_is_named(tmp_path, kind):
    row, message = BAD_ROWS[kind]
    rows = [f"{h},50,0" for h in range(24)]
    rows[3] = row
    with pytest.raises(PriceDataError) as exc:
        load_price_series(write_csv(tmp_path / "bad.csv", rows))
    assert str(exc.value) == message


@pytest.mark.parametrize("rows,message", [
    ([f"{h + 1},50,0" for h in range(24)], "row 1: hour 1 out of order (expected 0)"),
    ([f"{h},50,0" for h in range(25)], "row count 25 not a multiple of 24"),
    ([], "row count 0 not a multiple of 24"),
], ids=["hours-from-1", "25-rows", "no-rows"])
def test_bad_hours_or_row_count_is_named(tmp_path, rows, message):
    with pytest.raises(PriceDataError) as exc:
        load_price_series(write_csv(tmp_path / "bad.csv", rows))
    assert str(exc.value) == message


def test_well_formed_file_is_read_in_bulk(tmp_path, monkeypatch):
    """Padded cells, blank lines and other columns take the bulk parse, which
    reads each cell as the cell-by-cell parse does."""
    import swapval.market_data as market_data

    rows = [f" {h} ,{-12.5 + h / 3!r},spare, {h % 5 * 0.1!r}" for h in range(48)]
    rows.insert(10, "")
    path = write_csv(tmp_path / "ok.csv", rows,
                     header="hour,lmp_usd_per_mwh,note,reserve_usd_per_mw")
    want = load_price_series(path)
    assert want.lmp.tolist() == [-12.5 + h / 3 for h in range(48)]
    assert want.reserve_price.tolist() == [h % 5 * 0.1 for h in range(48)]
    monkeypatch.setattr(market_data, "_parse_number", None)  # the cell path would fail
    got = load_price_series(path)
    assert got.lmp.tobytes() == want.lmp.tobytes()
    assert got.reserve_price.tobytes() == want.reserve_price.tobytes()


def test_flat_pattern():
    series = synth_price_series("flat", days=1, level=50.0)
    assert series.n_hours == 24
    assert np.all(series.lmp == 50.0)
    assert np.all(series.reserve_price == 0.0)


def test_two_level_split():
    series = synth_price_series("two-level", days=1, low=10.0, high=90.0, split_hour=12)
    assert np.all(series.lmp[:12] == 10.0)
    assert np.all(series.lmp[12:] == 90.0)


def test_daily_sine_deterministic():
    a = synth_price_series("daily-sine", days=2, seed=7, mean=40.0, amplitude=30.0)
    b = synth_price_series("daily-sine", days=2, seed=7, mean=40.0, amplitude=30.0)
    assert np.array_equal(a.lmp, b.lmp)
    assert np.array_equal(a.reserve_price, b.reserve_price)
    c = synth_price_series("daily-sine", days=2, seed=8, mean=40.0, amplitude=30.0)
    assert not np.array_equal(a.lmp, c.lmp)


def test_non_positive_days_rejected():
    with pytest.raises(PriceDataError):
        synth_price_series("flat", days=0, level=1.0)


@settings(max_examples=60, deadline=None)
@given(
    pattern=st.sampled_from(["flat", "two-level", "daily-sine"]),
    days=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_synthetic_series_always_valid(pattern, days, seed):
    kwargs = {
        "flat": {"level": 17.5},
        "two-level": {"low": -5.0, "high": 60.0, "split_hour": 9},
        "daily-sine": {"mean": 40.0, "amplitude": 25.0},
    }[pattern]
    series = synth_price_series(pattern, days=days, seed=seed, **kwargs)
    validate_series(series)  # raises on any invariant violation
    assert series.n_days == days


def test_round_trip_exact(tmp_path, rng):
    lmp = rng.uniform(-50, 150, size=48)
    reserve = rng.uniform(0, 30, size=48)
    series = HourlyPriceSeries(lmp=lmp, reserve_price=reserve)
    path = tmp_path / "rt.csv"
    write_series(series, path)
    again = load_price_series(path)
    assert np.array_equal(series.lmp, again.lmp)
    assert np.array_equal(series.reserve_price, again.reserve_price)
