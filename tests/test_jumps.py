"""Jump locations and amplitudes for prime, prime-power, and composite bases."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from factzeros.arithmetic import digit_sum, factorize, valuation
from factzeros.jumps import (
    ZDecomposition,
    decompose_z,
    digit_sum_delta,
    is_stationary_prime_power,
    jump_amplitude_prime,
    jump_amplitude_prime_power,
    jump_stream,
)
from factzeros.zcount import z_base, z_prime, z_prime_legendre, z_prime_power
from reference import jump_amplitude_base

PP_GRID = [(2, 2), (2, 3), (3, 2), (5, 2)]


@pytest.mark.parametrize("p, n, expected", [(2, 15, -3), (2, 12, 1), (5, 24, -7)])
def test_digit_sum_delta_known_values(p, n, expected):
    assert digit_sum_delta(p, n) == expected


def test_digit_sum_delta_matches_direct_difference():
    for p in (2, 3, 5, 7):
        for n in range(0, 3000):
            assert digit_sum_delta(p, n) == digit_sum(n + 1, p) - digit_sum(n, p)


@pytest.mark.parametrize("p, n, expected", [(2, 15, 4), (2, 12, 0), (5, 24, 2)])
def test_jump_amplitude_prime_known_values(p, n, expected):
    assert jump_amplitude_prime(p, n) == expected


def test_jump_amplitude_prime_matches_difference():
    for p in (2, 3, 5, 7):
        for n in range(0, 3000):
            amp = jump_amplitude_prime(p, n)
            assert amp == z_prime(p, n + 1) - z_prime(p, n)
            assert amp == valuation(p, n + 1)


@pytest.mark.parametrize(
    "p, r, n, alpha, beta",
    [(2, 2, 11, 4, 0), (2, 3, 63, 19, 0), (3, 1, 12, 5, 0), (2, 3, 12, 3, 1)],
)
def test_decompose_z_known_values(p, r, n, alpha, beta):
    d = decompose_z(p, r, n)
    assert (d.alpha, d.beta, d.modulus) == (alpha, beta, r)
    assert d.value == z_prime(p, n)


def test_decomposition_type_checks_range():
    with pytest.raises(ValueError):
        ZDecomposition(1, 3, 2)  # beta out of [0, r)
    with pytest.raises(ValueError):
        ZDecomposition(-1, 0, 2)


@pytest.mark.parametrize(
    "p, r, n, expected",
    [(2, 2, 12, True), (2, 2, 11, False), (2, 3, 63, False)],
)
def test_stationarity_known_values(p, r, n, expected):
    assert is_stationary_prime_power(p, r, n) is expected


@pytest.mark.parametrize(
    "p, r, n, expected",
    [(2, 3, 63, 2), (2, 2, 11, 1), (2, 2, 12, 0)],
)
def test_jump_amplitude_prime_power_known_values(p, r, n, expected):
    assert jump_amplitude_prime_power(p, r, n) == expected


def test_jump_amplitude_prime_power_rejects_r1():
    with pytest.raises(ValueError):
        jump_amplitude_prime_power(2, 1, 5)


def test_prime_power_laws_match_direct_differences():
    for p, r in PP_GRID:
        for n in range(0, 3000):
            diff = z_prime_power(p, r, n + 1) - z_prime_power(p, r, n)
            assert jump_amplitude_prime_power(p, r, n) == diff
            assert is_stationary_prime_power(p, r, n) == (diff == 0)


@given(
    st.sampled_from(PP_GRID),
    st.integers(min_value=0, max_value=10**9),
)
def test_prime_power_amplitude_random(pr, n):
    p, r = pr
    diff = z_prime_power(p, r, n + 1) - z_prime_power(p, r, n)
    assert jump_amplitude_prime_power(p, r, n) == diff


@pytest.mark.parametrize("b, n, expected", [(10, 24, 2), (10, 12, 0), (21, 9, 0)])
def test_jump_amplitude_base_known_values(b, n, expected):
    assert jump_amplitude_base(b, n) == expected


def test_jump_amplitude_base_coprime_is_zero():
    import math

    for b in (10, 12, 30):
        for n in range(0, 400):
            if math.gcd(n + 1, b) == 1:
                assert jump_amplitude_base(b, n) == 0


def test_jump_stream_known_values():
    assert [(r.location, r.composite_amplitude) for r in jump_stream(2, 0, 8)] == [
        (2, 1),
        (4, 2),
        (6, 1),
        (8, 3),
    ]
    assert [(r.location, r.composite_amplitude) for r in jump_stream(10, 0, 10)] == [
        (5, 1),
        (10, 1),
    ]
    assert list(jump_stream(7, 5, 5)) == []
    assert list(jump_stream(7, 5, 6)) == []


def test_jump_stream_rejects_reversed_range():
    # refused at the call, before any record is read
    for n_hi in (4, 3):
        with pytest.raises(ValueError, match="reversed"):
            jump_stream(10, 5, n_hi)


def test_jump_stream_rejects_negative_start():
    with pytest.raises(ValueError):
        jump_stream(10, -1, 3)


def test_jump_stream_matches_exhaustive_scan():
    for b in (2, 6, 10, 12, 16, 30):
        expected = [
            (n + 1, jump_amplitude_base(b, n))
            for n in range(0, 3000)
            if jump_amplitude_base(b, n) > 0
        ]
        got = [(r.location, r.composite_amplitude) for r in jump_stream(b, 0, 3000)]
        assert got == expected


@pytest.mark.parametrize("b", [10, 12, 18, 360, 30030, 9699690])
@pytest.mark.parametrize("lo", [0, 10**15 + 17])
def test_jump_stream_matches_legendre_scan_over_all_parts(b, lo):
    """Reference: every part of b, Legendre sums at every n of the window."""
    factors = factorize(b).factors
    hi = lo + 2000
    parts = {(p, r): [z_prime_legendre(p, n) // r for n in range(lo, hi + 1)] for p, r in factors}
    total = [min(col[i] for col in parts.values()) for i in range(hi - lo + 1)]
    expected = [
        (lo + i, total[i] - total[i - 1], {pr: col[i] - col[i - 1] for pr, col in parts.items()})
        for i in range(1, hi - lo + 1)
        if total[i] > total[i - 1]
    ]
    got = [(r.location, r.composite_amplitude, r.per_component) for r in jump_stream(b, lo, hi)]
    assert got == expected


def test_jump_records_are_consistent():
    for b in (12, 30):
        for rec in jump_stream(b, 0, 1500):
            assert rec.composite_amplitude == z_base(b, rec.location) - z_base(
                b, rec.location - 1
            )
            for (p, r), amp in rec.per_component.items():
                direct = z_prime_power(p, r, rec.location) - z_prime_power(
                    p, r, rec.location - 1
                )
                assert amp == direct


def test_jump_stream_restartable():
    """Splitting the range at any point yields the same records."""
    whole = [(r.location, r.composite_amplitude) for r in jump_stream(12, 0, 600)]
    for cut in (0, 1, 37, 300, 599, 600):
        left = [(r.location, r.composite_amplitude) for r in jump_stream(12, 0, cut)]
        right = [(r.location, r.composite_amplitude) for r in jump_stream(12, cut, 600)]
        assert left + right == whole
