"""Ground-truth checks: big-integer factorials, divided by the base or converted to digits.

The oracle carries n!/b**e along n; two routes that share none of its code pin
it: plain division of math.factorial(n), and conversion of n! to base-b digits.
"""

import math
import random

import pytest

from factzeros.oracle import N_MAX, CapacityError, _zeros_along, factorial_trailing_zeros
from factzeros.zcount import z_base
from reference import trailing_zero_digits


@pytest.mark.parametrize(
    "b, n, expected",
    [(10, 10, 2), (7, 0, 0), (4, 12, 5), (10, 25, 6), (12, 12, 5)],
)
def test_factorial_trailing_zeros_known_values(b, n, expected):
    assert factorial_trailing_zeros(b, n) == expected


def plain_division_count(b, n):
    """Largest e with b**e dividing n!, dividing math.factorial(n) by b one step at a time."""
    x = math.factorial(n)
    e = 0
    while x % b == 0:
        x //= b
        e += 1
    return e


def test_stream_matches_plain_division():
    """Along n, the carried n!/b**e gives the counts of one-at-a-time division of n!."""
    rng = random.Random(20240817)
    bases = [2**61 - 1, 2**64 - 59, 2**63, 3**40, 360, 9699690]
    bases += [rng.randrange(2, 2**64) for _ in range(6)] + [rng.randint(2, 64) for _ in range(6)]
    for b in bases:
        n_max = rng.randint(150, 300)
        expected = [plain_division_count(b, n) for n in range(n_max + 1)]
        assert list(_zeros_along(b, n_max)) == expected, b


def test_division_count_matches_plain_loop():
    """A point query, the stream run to n, equals one-at-a-time division of n!."""
    rng = random.Random(314159)
    for _ in range(60):
        b = rng.choice([rng.randint(2, 64), rng.randrange(2, 2**64)])
        n = rng.randint(0, 300)
        assert factorial_trailing_zeros(b, n) == plain_division_count(b, n)


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


def test_stream_matches_digit_count_at_the_bound():
    for b in range(2, 37):
        assert factorial_trailing_zeros(b, N_MAX) == trailing_zero_digits(b, N_MAX)


def test_capacity_bound_enforced():
    assert N_MAX == 2000
    assert factorial_trailing_zeros(10, N_MAX) == 499
    with pytest.raises(CapacityError):
        factorial_trailing_zeros(10, N_MAX + 1)


def test_oracle_rejects_bad_arguments():
    for b in (1, 0, -10):  # base 1 divides every rest: it must never reach the division loop
        with pytest.raises(ValueError, match="base must be >= 2"):
            factorial_trailing_zeros(b, 5)
        with pytest.raises(ValueError, match="base must be >= 2"):
            next(_zeros_along(b, 5))
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
