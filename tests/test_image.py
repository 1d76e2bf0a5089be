"""Membership, gaps, non-attained families, and exact density counts."""

import time
from bisect import bisect_right
from fractions import Fraction
from itertools import takewhile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import factzeros.arithmetic as arithmetic
import factzeros.image as image
import factzeros.zcount as zcount
from factzeros.image import (
    MembershipResult,
    PreconditionError,
    VerificationError,
    density_exact,
    density_paper_formula,
    family_cor2,
    family_cor3,
    family_prop3a,
    family_prop3b,
    family_prop7,
    family_prop8,
    gaps_by_membership,
    gaps_up_to,
    in_image,
    min_arg_reaching,
)
from factzeros.zcount import z_base, z_prime
from reference import attained_by_scan, density_by_scan, gaps_by_jump_walk


@pytest.mark.parametrize("b, z, expected", [(10, 5, 25), (2, 3, 4), (7, 0, 0)])
def test_min_arg_reaching_known_values(b, z, expected):
    assert min_arg_reaching(b, z) == expected


def test_min_arg_reaching_is_minimal():
    for b in (2, 10, 12):
        for z in range(0, 60):
            n = min_arg_reaching(b, z)
            assert z_base(b, n) >= z
            assert n == 0 or z_base(b, n - 1) < z


def test_in_image_known_values():
    assert not in_image(2, 2).member
    assert not in_image(10, 5).member
    hit = in_image(2, 3)
    assert hit.member and hit.witness == 4 and hit.bracket is None


def test_non_member_bracket_contents():
    res = in_image(10, 5)
    assert res.bracket == (25, 4, 6)
    n_star, below, above = res.bracket
    assert z_base(10, n_star - 1) == below < 5 < above == z_base(10, n_star)


def test_member_witness_is_minimal():
    for b in (2, 10):
        for z in range(0, 40):
            res = in_image(b, z)
            if res.member:
                assert z_base(b, res.witness) == z
                assert res.witness == 0 or z_base(b, res.witness - 1) < z


@settings(max_examples=200)
@given(st.sampled_from([2, 3, 4, 6, 10, 12, 16]), st.integers(min_value=0, max_value=10**6))
def test_membership_invariants_random(b, z):
    res = in_image(b, z)
    if res.member:
        assert z_base(b, res.witness) == z
    else:
        n_star, below, above = res.bracket
        assert below < z < above
        assert z_base(b, n_star - 1) == below
        assert z_base(b, n_star) == above


def test_membership_result_shape_is_checked():
    with pytest.raises(ValueError):
        MembershipResult(3, True)  # member without witness
    with pytest.raises(ValueError):
        MembershipResult(3, False)  # non-member without bracket


@pytest.mark.parametrize(
    "b, z_max, expected",
    [
        (2, 15, [2, 5, 6, 9, 12, 13, 14]),
        (10, 0, []),
        (5, 5, [5]),
    ],
)
def test_gaps_known_values(b, z_max, expected):
    assert gaps_up_to(b, z_max) == gaps_by_membership(b, z_max) == expected


def test_gap_routes_agree():
    for b in (2, 3, 4, 6, 10, 12, 16):
        assert gaps_up_to(b, 300) == gaps_by_membership(b, 300)


def test_gaps_complement_scan():
    """A gap is exactly a value missing from the direct value scan."""
    for b in (2, 10):
        attained = {z_base(b, n) for n in range(0, min_arg_reaching(b, 101) + 1)}
        gaps = set(gaps_up_to(b, 100))
        assert gaps == set(range(0, 101)) - attained


def test_gaps_match_jump_walk_below_200():
    for b in range(2, 200):
        assert gaps_up_to(b, 1500) == gaps_by_jump_walk(b, 1500), b


@st.composite
def prime_power_parts(draw):
    """Parts of a base: prime powers alone, parts that are dropped and tie, 64-bit primes.

    A 64-bit prime p**s comes with small parts of exponent at most s, all dropped;
    a small live part beside it would make the jump walk run for about p steps.
    """
    small = st.sampled_from([2, 3, 5, 7, 11, 13])
    parts = draw(st.dictionaries(small, st.integers(1, 5), min_size=1, max_size=4))
    big = draw(st.sampled_from([None, None, 2**61 - 1, 2**64 - 59]))
    if big is not None:
        s = draw(st.integers(1, 5))
        parts = {p: min(r, s) for p, r in parts.items()} | {big: s}
    return parts


@settings(max_examples=150, deadline=None)
@given(prime_power_parts(), st.integers(min_value=0, max_value=2000))
def test_gaps_match_jump_walk_property(parts, z_max):
    f = arithmetic.PrimeFactorization(tuple(sorted(parts.items())))
    spec = zcount.BaseSpec(f.value, f)
    assert gaps_up_to(spec, z_max) == gaps_by_jump_walk(spec, z_max)


# --- families ---------------------------------------------------------------


@pytest.mark.parametrize(
    "p, n, expected",
    [(2, 3, [6, 5]), (2, 2, [2]), (3, 2, [3]), (5, 2, [5])],
)
def test_prop3a_known_values(p, n, expected):
    assert family_prop3a(p, n) == expected


@pytest.mark.parametrize(
    "p, n, k, expected",
    [(2, 2, 2, [9]), (2, 3, 1, [6, 5]), (2, 2, 1, [2])],
)
def test_prop3b_known_values(p, n, k, expected):
    assert family_prop3b(p, n, k) == expected


def test_prop3b_with_k1_matches_prop3a_in_base_2():
    # only at p = 2 do the two formulas collapse to the same values
    for n in range(2, 7):
        assert family_prop3b(2, n, 1) == family_prop3a(2, n)


@pytest.mark.parametrize("family, args", [(family_prop3a, (2, 1)), (family_prop3b, (2, 1, 1))])
def test_prop3_rejects_small_n(family, args):
    with pytest.raises(ValueError):
        family(*args)


def test_prop7_known_values():
    assert family_prop7(2, 3, 2) == [20]
    assert family_prop7(3, 2, 2) == [19]
    with pytest.raises(PreconditionError):
        family_prop7(2, 2, 2)  # power sum 15 is odd


def test_cor2_known_values():
    assert family_cor2(3, 2) == [19]
    assert family_cor2(5, 2) == [77]
    assert family_cor2(3, 3) == [181, 180]
    with pytest.raises(ValueError):
        family_cor2(2, 3)  # needs an odd prime


def test_cor2_delegates_to_prop7():
    for p in (3, 5, 7):
        for k in (2, 3):
            assert family_cor2(p, k) == family_prop7(p, 2, k)


def test_cor3_known_values():
    assert family_cor3(3) == [20]
    assert family_cor3(5) == [209714, 209713, 209712]
    assert family_cor3(3, as_printed=True) == [62]
    assert family_cor3(5, as_printed=True) == [2**20 - 2, 2**20 - 3, 2**20 - 4]


def test_cor3_as_printed_cannot_be_verified():
    with pytest.raises(ValueError):
        family_cor3(3, as_printed=True, verify=True)
    with pytest.raises(ValueError):
        family_cor3(9)  # not prime


def test_prop8_known_values():
    assert family_prop8(5, 2, 2, 2) == [155]
    assert family_prop8(7, 3, 3, 2) == [19607]
    with pytest.raises(PreconditionError):
        family_prop8(5, 2, 3, 2)  # 2 does not divide 3
    with pytest.raises(PreconditionError):
        family_prop8(5, 2, 6, 2)  # l must stay below p


@pytest.mark.parametrize(
    "family, args",
    [
        (family_prop3a, (2, 10**6)),
        (family_prop3b, (3, 4000, 4000)),
        (family_prop7, (3, 2, 10**5)),
        (family_cor2, (5, 10**5)),
        (family_cor3, (100003,)),
        (family_prop8, (7, 2, 4, 10**5)),
    ],
)
def test_families_refuse_values_above_the_size_cap(family, args):
    with pytest.raises(ValueError, match="cap"):
        family(*args)
    if family is family_cor3:
        with pytest.raises(ValueError, match="cap"):
            family(*args, as_printed=True)


def test_families_verify_mode_passes():
    assert family_prop3a(2, 4, verify=True) == family_prop3a(2, 4)
    assert family_prop7(2, 3, 4, verify=True) == family_prop7(2, 3, 4)
    assert family_cor3(3, verify=True) == [20]


_EVERY_FAMILY = [
    (family_prop3a, (2, 3)),
    (family_prop3b, (3, 4, 2)),
    (family_prop7, (2, 3, 4)),
    (family_cor2, (5, 3)),
    (family_cor3, (5,)),
    (family_prop8, (7, 2, 4, 3)),
]


def test_families_verify_mode_detects_members(monkeypatch):
    # a family whose run is widened by one value at either end contains an
    # attained value, and verify=True must refuse it
    real = image._run
    for top_shift in (1, 0):  # one more value above the run, or below it
        monkeypatch.setattr(
            image,
            "_run",
            lambda part, l, e, top, length, verify: real(
                part, l, e, top + top_shift, length + 1, verify
            ),
        )
        for family, args in _EVERY_FAMILY:
            with pytest.raises(RuntimeError):
                family(*args, verify=True)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=-1, max_value=1),
    st.integers(min_value=-1, max_value=1),
)
def test_location_check_agrees_with_membership(p, r, l, e, lo_shift, hi_shift):
    """Runs around the jump at l * p**e, one wider or narrower at each end."""
    b, loc = p**r, l * p**e
    lo = z_base(b, loc - 1) + 1 + lo_shift
    hi = z_base(b, loc) - 1 + hi_shift
    assume(lo <= hi)
    values = list(range(lo, hi + 1))
    skipped = all(not in_image(b, v).member for v in values)
    try:
        assert image._run((p, r), l, e, hi + 1, hi - lo + 2, True) == values[::-1]
        proved = True
    except VerificationError:
        proved = False
    assert proved == skipped


def test_family_verification_needs_no_inversion_or_factorization(monkeypatch):
    def forbidden(*args):
        raise AssertionError("family verification inverted the count or factorized a base")

    for module, name in [
        (image, "in_image"),
        (image, "min_arg_reaching"),
        (zcount, "_spec_from_int"),
        (zcount, "factorize"),
        (arithmetic, "factorize"),
    ]:
        monkeypatch.setattr(module, name, forbidden)
    for family, args in _EVERY_FAMILY:
        assert family(*args, verify=True) == family(*args)
    # bases of 2**64 and up, which factorize refuses
    assert len(family_cor3(67, verify=True)) == 65
    assert len(family_prop7(65537, 4, 2, verify=True)) == 1
    start = time.perf_counter()
    assert family_prop3a(3, 400, verify=True) == family_prop3a(3, 400)
    assert time.perf_counter() - start < 1.0


def test_family_prop3a_builds_a_long_run_quickly():
    start = time.perf_counter()
    values = family_prop3a(2, 9000)
    assert time.perf_counter() - start < 1.0
    assert len(values) == 8999
    for k in (1, 2, 4500, 8999):  # the paper's formula, value by value
        assert values[k - 1] == (2**9000 - k * 2 + k - 1) // (2 - 1)


def test_family_values_fail_membership():
    for p in (2, 3, 5):
        for n in range(2, 6):
            for v in family_prop3a(p, n):
                assert not in_image(p, v).member
            for k in range(1, 4):
                for v in family_prop3b(p, n, k):
                    assert not in_image(p, v).member
    for v in family_prop7(3, 2, 3):
        assert not in_image(9, v).member
    for v in family_prop8(7, 2, 4, 3):
        assert not in_image(49, v).member


# --- density ----------------------------------------------------------------


@pytest.mark.parametrize("p, k, expected", [(2, 2, 3), (2, 3, 5), (2, 4, 10)])
def test_paper_formula_known_values(p, k, expected):
    assert density_paper_formula(p, k) == expected


def test_density_known_values():
    r = density_exact(2, 3)
    assert (r.a_exact, r.a_paper_formula, r.divergence) == (3, 3, False)
    assert r.ratio == Fraction(3, 3)

    r = density_exact(2, 15)
    assert (r.a_exact, r.a_paper_formula, r.divergence) == (9, 10, True)
    assert r.ratio == Fraction(9, 15)


def test_density_formula_absent_off_powers():
    r = density_exact(2, 10)
    assert r.a_paper_formula is None
    assert not r.divergence


def test_density_matches_brute_force():
    for p in (2, 3, 5):
        for N in (1, 2, 5, 20, 81, 200):
            bound = min_arg_reaching(p, N + 1)
            attained = {z_prime(p, n) for n in range(0, bound + 1)}
            expected = sum(1 for z in range(0, N + 1) if z in attained)
            assert density_exact(p, N).a_exact == expected


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_density_matches_scan_below_3000(p):
    # density_by_scan(p, N) for every N at once: one scan, counted by bisection
    values = list(takewhile(lambda v: v < 3000, attained_by_scan(p)))
    for N in range(1, 3000):
        assert density_exact(p, N).a_exact == bisect_right(values, N)


@given(st.sampled_from([p for p in range(2, 200) if arithmetic.is_prime(p)]), st.integers(1, 19_999))
@settings(max_examples=100, deadline=None)
def test_density_matches_scan_property(p, N):
    assert density_exact(p, N).a_exact == density_by_scan(p, N)


@pytest.mark.parametrize("p, N", [(2, 15), (3, 80), (7, 2400), (101, 10**4)])
@pytest.mark.parametrize("off", [-1, 1])
def test_density_certificate_rejects_a_count_off_by_one(monkeypatch, p, N, off):
    real_count = image._count_attained
    monkeypatch.setattr(image, "_count_attained", lambda p, N: real_count(p, N) + off)
    with pytest.raises(VerificationError, match="certificate"):
        density_exact(p, N)


def test_density_rejects_bad_inputs():
    with pytest.raises(ValueError):
        density_exact(4, 10)  # not prime
    with pytest.raises(ValueError):
        density_exact(2, 0)
