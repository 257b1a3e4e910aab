import os

import numpy as np
import pytest

import swapval
from swapval.lifecycle import EconomicParams
from swapval.market_data import synth_price_series

from _generators import reference_battery, small_battery

# Python subprocesses started by tests import the same swapval as the tests.
_SWAPVAL_ROOT = os.path.dirname(os.path.dirname(swapval.__file__))
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SWAPVAL_ROOT, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def battery():
    return reference_battery()


@pytest.fixture
def tiny_battery():
    return small_battery()


@pytest.fixture
def econ():
    return EconomicParams(discount_rate=0.07, fixed_om_per_kw_year=16.0,
                          horizon_cap_years=30)


@pytest.fixture
def flat_zero_series():
    return synth_price_series("flat", days=1, level=0.0)


@pytest.fixture
def two_level_series():
    return synth_price_series("two-level", days=1, low=10.0, high=90.0, split_hour=12)


@pytest.fixture
def sine_year():
    return synth_price_series("daily-sine", days=365, seed=0, mean=40.0, amplitude=30.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
