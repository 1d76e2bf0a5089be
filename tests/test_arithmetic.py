"""Integer primitives: factorization, valuation, digit sums, carry runs."""

from collections import Counter
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factzeros.arithmetic import (
    PrimeFactorization,
    digit_sum,
    factorize,
    is_prime,
    trailing_max_digits,
    valuation,
)
from reference import digits

SMALL_PRIMES = [2, 3, 5, 7]


@pytest.mark.parametrize(
    "b, expected",
    [
        (10, ((2, 1), (5, 1))),
        (8, ((2, 3),)),
        (360, ((2, 3), (3, 2), (5, 1))),
        (2, ((2, 1),)),
        (97, ((97, 1),)),
    ],
)
def test_factorize_known_values(b, expected):
    assert factorize(b).factors == expected


def test_factorize_reconstructs_value():
    for b in range(2, 500):
        f = factorize(b)
        assert f.value == b
        assert all(is_prime(p) for p in f.primes)


def test_factorize_large_semiprime():
    # both factors beyond the trial-division limit, forces the rho path
    p, q = 10000019, 10000079
    f = factorize(p * q)
    assert f.factors == ((p, 1), (q, 1))


def test_factorize_large_prime():
    m61 = 2**61 - 1
    assert factorize(m61).factors == ((m61, 1),)


@pytest.mark.parametrize(
    "b, expected",
    [
        (1031**6, ((1031, 6),)),
        (65537**3, ((65537, 3),)),
        (1000003**3, ((1000003, 3),)),
        (
            1031 * 1033 * 1039 * 1049 * 1051 * 1061,
            ((1031, 1), (1033, 1), (1039, 1), (1049, 1), (1051, 1), (1061, 1)),
        ),
        (1009 * 999983**2, ((1009, 1), (999983, 2))),
        (2**32 * 4294967291, ((2, 32), (4294967291, 1))),
        (2**61 - 1, ((2**61 - 1, 1),)),
        (2**64 - 59, ((2**64 - 59, 1),)),
        (4294967279 * 4294967291, ((4294967279, 1), (4294967291, 1))),
        (2**63, ((2, 63),)),
        (3**40, ((3, 40),)),
    ],
    ids=[
        "1031^6", "65537^3", "1000003^3", "1031..1061", "1009*999983^2",
        "2^32*4294967291", "2^61-1", "2^64-59", "semiprime64", "2^63", "3^40",
    ],
)
def test_factorize_beyond_trial_division(b, expected):
    """Cofactors past the trial primes: prime powers, many primes, 64-bit sizes."""
    f = factorize(b)
    assert f.factors == expected
    assert f.value == b
    assert all(is_prime(p) for p in f.primes)


def _next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=2, max_value=2**32 - 6), min_size=1, max_size=6))
def test_factorize_products_of_primes_below_2_32(starts):
    primes = []
    for s in starts:
        p = _next_prime(s)
        if prod(primes) * p >= 2**64:
            break
        primes.append(p)
    b = prod(primes)
    if b < 2:
        return
    assert factorize(b).factors == tuple(sorted(Counter(primes).items()))


def test_is_prime_rejects_strong_pseudoprime_to_2_through_37():
    # 399165290221 * 798330580441 passes every witness up to 37; 41 exposes it
    assert not is_prime(318665857834031151167461)
    assert not is_prime(399165290221 * 798330580441)
    assert is_prime(399165290221) and is_prime(798330580441)


def test_is_prime_refuses_the_unproven_range():
    bound = 3317044064679887385961981
    with pytest.raises(ValueError):
        is_prime(bound)
    with pytest.raises(ValueError):
        is_prime(2**89 - 1)
    assert is_prime(2**61 - 1)


@pytest.mark.parametrize("bad", [-4, 0, 1, 2**64, 2**64 + 10])
def test_factorize_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        factorize(bad)


def test_factorization_type_rejects_bad_shapes():
    with pytest.raises(ValueError):
        PrimeFactorization(((4, 1),))  # not prime
    with pytest.raises(ValueError):
        PrimeFactorization(((5, 1), (3, 1)))  # not increasing
    with pytest.raises(ValueError):
        PrimeFactorization(((3, 0),))  # exponent too small


@pytest.mark.parametrize(
    "p, n, expected",
    [(2, 48, 4), (5, 7, 0), (3, 81, 4), (2, 1, 0), (7, 7**5, 5)],
)
def test_valuation_known_values(p, n, expected):
    assert valuation(p, n) == expected


def test_valuation_rejects_zero():
    with pytest.raises(ValueError):
        valuation(2, 0)


@given(st.sampled_from(SMALL_PRIMES), st.integers(min_value=1, max_value=10**9))
def test_valuation_counts_low_zero_digits(p, n):
    d = digits(n, p)
    run = 0
    while run < len(d) and d[run] == 0:
        run += 1
    assert valuation(p, n) == run
    assert (n // p ** valuation(p, n)) % p != 0


@pytest.mark.parametrize(
    "n, p, expected",
    [(11, 2, (1, 1, 0, 1)), (0, 7, (0,)), (80, 3, (2, 2, 2, 2))],
)
def test_digits_known_values(n, p, expected):
    assert tuple(digits(n, p)) == expected


@given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=2, max_value=36))
def test_digits_round_trip(n, p):
    d = digits(n, p)
    assert sum(x * p**i for i, x in enumerate(d)) == n
    assert all(0 <= x < p for x in d)
    if n:
        assert d[-1] != 0


@pytest.mark.parametrize("n, p, expected", [(11, 2, 3), (0, 5, 0), (80, 3, 8)])
def test_digit_sum_known_values(n, p, expected):
    assert digit_sum(n, p) == expected


def test_digit_sum_matches_expansion():
    for p in (2, 3, 5, 7, 10):
        for n in range(0, 2000):
            assert digit_sum(n, p) == sum(digits(n, p))


@pytest.mark.parametrize("n, p, expected", [(15, 2, 4), (12, 2, 0), (24, 5, 2)])
def test_trailing_max_digits_known_values(n, p, expected):
    assert trailing_max_digits(n, p) == expected


@given(st.sampled_from(SMALL_PRIMES), st.integers(min_value=0, max_value=10**9))
def test_trailing_run_equals_successor_valuation(p, n):
    assert trailing_max_digits(n, p) == valuation(p, n + 1)


def _carry(d: list[int], t: int) -> list[int]:
    """The carry law: zero the low run of t maximal digits and raise the digit above it."""
    return [0] * t + [d[t] + 1 if t < len(d) else 1] + d[t + 1 :]


@pytest.mark.parametrize(
    "base, d, expected",
    [
        (2, (1, 1, 1, 1), (0, 0, 0, 0, 1)),
        (5, (4, 4), (0, 0, 1)),
        (5, (3, 1), (4, 1)),
        (7, (0,), (1,)),
    ],
)
def test_successor_known_values(base, d, expected):
    n = sum(x * base**i for i, x in enumerate(d))
    assert _carry(list(d), trailing_max_digits(n, base)) == list(expected) == digits(n + 1, base)


@settings(max_examples=300)
@given(st.sampled_from(SMALL_PRIMES), st.integers(min_value=0, max_value=10**12))
def test_successor_matches_direct_expansion(p, n):
    assert _carry(digits(n, p), trailing_max_digits(n, p)) == digits(n + 1, p)


def test_successor_grid():
    """The carry law, with the run length from trailing_max_digits, on a dense range."""
    for p in SMALL_PRIMES:
        for n in range(0, 3000):
            assert _carry(digits(n, p), trailing_max_digits(n, p)) == digits(n + 1, p)
