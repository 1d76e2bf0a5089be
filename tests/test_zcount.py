"""Trailing-zero counting functions and the scaling identity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factzeros.arithmetic import PrimeFactorization
from factzeros.zcount import (
    BaseSpec,
    z_base,
    z_prime,
    z_prime_digitsum,
    z_prime_legendre,
    z_prime_power,
    z_shift,
)
from reference import binding_components

PRIMES = [2, 3, 5, 7, 13]


def test_base_spec_construction():
    spec = BaseSpec.of(12)
    assert spec.base == 12
    assert spec.factorization.factors == ((2, 2), (3, 1))
    assert BaseSpec.of(spec) is spec


@pytest.mark.parametrize(
    "b, expected",
    [
        (10, ((5, 1),)),
        (12, ((2, 2), (3, 1))),
        (360, ((2, 3), (3, 2), (5, 1))),
        (30030, ((13, 1),)),
        (9699690, ((19, 1),)),
        (18, ((3, 2),)),
        (2**5 * 3**2 * 5**2 * 7, ((2, 5), (5, 2), (7, 1))),
    ],
)
def test_base_spec_live_parts_known_values(b, expected):
    assert BaseSpec.of(b).live_parts == expected


def test_base_spec_rejects_mismatched_factorization():
    from factzeros.arithmetic import factorize

    with pytest.raises(ValueError):
        BaseSpec(10, factorize(12))


@pytest.mark.parametrize("p, n, expected", [(5, 25, 6), (5, 24, 4), (2, 0, 0)])
def test_z_prime_legendre_known_values(p, n, expected):
    assert z_prime_legendre(p, n) == expected


@pytest.mark.parametrize("p, n, expected", [(2, 12, 10), (3, 12, 5), (7, 6, 0)])
def test_z_prime_digitsum_known_values(p, n, expected):
    assert z_prime_digitsum(p, n) == expected


def test_z_prime_routes_agree_small_grid():
    for p in PRIMES:
        for n in range(0, 5000):
            assert z_prime_legendre(p, n) == z_prime_digitsum(p, n)


@given(st.sampled_from(PRIMES), st.integers(min_value=0, max_value=10**15))
def test_z_prime_routes_agree_random(p, n):
    assert z_prime_legendre(p, n) == z_prime_digitsum(p, n)


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=20_000).flatmap(
    lambda bits: st.integers(min_value=2 ** (bits - 1), max_value=2**bits - 1)
))
def test_z_2_popcount_matches_legendre(n):
    assert z_prime_digitsum(2, n) == z_prime_legendre(2, n)


def test_z_prime_counts_factors_directly():
    """Reference count: add valuations of 1..n one by one."""
    for p in (2, 3, 5):
        total = 0
        for n in range(1, 800):
            m = n
            while m % p == 0:
                total += 1
                m //= p
            assert z_prime(p, n) == total


@pytest.mark.parametrize(
    "p, r, n, expected",
    [(2, 2, 12, 5), (2, 3, 64, 21), (3, 1, 12, 5)],
)
def test_z_prime_power_known_values(p, r, n, expected):
    assert z_prime_power(p, r, n) == expected


def test_z_prime_power_r1_degenerates():
    for p in (2, 5):
        for n in range(0, 300):
            assert z_prime_power(p, 1, n) == z_prime(p, n)


@pytest.mark.parametrize("b, n, expected", [(10, 10, 2), (12, 12, 5), (36, 0, 0)])
def test_z_base_known_values(b, n, expected):
    assert z_base(b, n) == expected


def test_z_base_monotone():
    for b in (2, 6, 10, 12, 30):
        prev = 0
        for n in range(0, 2500):
            cur = z_base(b, n)
            assert cur >= prev
            prev = cur


def test_z_base_rejects_bad_inputs():
    with pytest.raises(ValueError):
        z_base(10, -1)
    with pytest.raises(ValueError):
        z_base(1, 5)


@given(
    st.dictionaries(
        st.sampled_from([2, 3, 5, 7, 11, 13, 101, 2**61 - 1]),
        st.integers(min_value=1, max_value=6),
        min_size=1,
        max_size=6,
    ),
    st.integers(min_value=0, max_value=10**40),
)
def test_z_base_is_minimum_over_all_parts(parts, n):
    """Reference: every part, Legendre sums; no part is skipped."""
    f = PrimeFactorization(tuple(sorted(parts.items())))
    spec = BaseSpec(f.value, f)
    assert z_base(spec, n) == min(z_prime_legendre(p, n) // r for p, r in f.factors)


@pytest.mark.parametrize(
    "b, n, expected",
    [(10, 10, {(5, 1)}), (12, 12, {(2, 2), (3, 1)}), (8, 100, {(2, 3)})],
)
def test_binding_components_known_values(b, n, expected):
    assert binding_components(b, n) == expected


def test_binding_components_achieve_minimum():
    for b in (10, 12, 36, 60):
        spec = BaseSpec.of(b)
        for n in range(0, 500):
            z = z_base(spec, n)
            comps = binding_components(spec, n)
            assert comps
            for p, r in spec.factorization.factors:
                val = z_prime_power(p, r, n)
                assert val >= z
                assert ((p, r) in comps) == (val == z)


@pytest.mark.parametrize("p, l, n, expected", [(2, 3, 2, 10), (5, 1, 2, 6)])
def test_z_shift_known_values(p, l, n, expected):
    assert z_shift(p, l, n) == expected


def test_z_shift_zero_power():
    for p in (2, 3, 5):
        for l in range(1, 50):
            assert z_shift(p, l, 0) == z_prime(p, l)


def test_z_shift_equals_direct_evaluation():
    for p in (2, 3, 5):
        for l in range(1, 40):
            for n in range(0, 8):
                assert z_shift(p, l, n) == z_prime(p, l * p**n)


@given(
    st.sampled_from([2, 3, 5]),
    st.integers(min_value=1, max_value=100),
    st.integers(min_value=0, max_value=12),
)
def test_z_shift_identity_random(p, l, n):
    assert z_shift(p, l, n) == z_prime(p, l * p**n)
