"""Ground-truth checks: big-integer factorials, divided by the base or converted to digits."""

import math
import random

import pytest

from factzeros.oracle import CapacityError, OracleConfig, factorial_trailing_zeros
from factzeros.zcount import z_base
from reference import trailing_zero_digits


@pytest.mark.parametrize(
    "b, n, expected",
    [(10, 10, 2), (7, 0, 0), (4, 12, 5), (10, 25, 6), (12, 12, 5)],
)
def test_factorial_trailing_zeros_known_values(b, n, expected):
    assert factorial_trailing_zeros(b, n) == expected


def test_division_count_matches_plain_loop():
    """The batched division schedule equals one-at-a-time division."""
    rng = random.Random(20240817)
    for _ in range(150):
        b = rng.randint(2, 64)
        n = rng.randint(0, 300)
        x = math.factorial(n)
        e = 0
        while x % b == 0:
            x //= b
            e += 1
        assert factorial_trailing_zeros(b, n) == e


def test_division_count_matches_digit_count():
    """100 random pairs: divisibility route equals base-conversion route."""
    rng = random.Random(1729)
    for _ in range(100):
        b = rng.randint(2, 36)
        n = rng.randint(0, 500)
        assert factorial_trailing_zeros(b, n) == trailing_zero_digits(b, n)


def test_oracle_agrees_with_closed_form_sample():
    for b in (2, 3, 10, 16, 36):
        for n in range(0, 400):
            assert factorial_trailing_zeros(b, n) == z_base(b, n)


def test_capacity_bound_enforced():
    cfg = OracleConfig(n_max=50)
    assert factorial_trailing_zeros(10, 50, cfg) == 12
    with pytest.raises(CapacityError):
        factorial_trailing_zeros(10, 51, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(n_max=0)
    assert OracleConfig().n_max == 2000


def test_oracle_rejects_bad_arguments():
    with pytest.raises(ValueError):
        factorial_trailing_zeros(1, 5)
    with pytest.raises(ValueError):
        factorial_trailing_zeros(10, -1)


@pytest.mark.parametrize(
    "b, n_max, expected",
    [
        (2, 16, {0, 1, 3, 4, 7, 8, 10, 11, 15}),
        (2, 1, {0}),
        (10, 30, {0, 1, 2, 3, 4, 6, 7}),
    ],
)
def test_image_scan_known_values(b, n_max, expected):
    """The counts attained by 0!, 1!, ..., n_max!, read off the factorials."""
    assert {factorial_trailing_zeros(b, n) for n in range(n_max + 1)} == expected
