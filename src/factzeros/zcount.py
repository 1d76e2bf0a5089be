"""Trailing-zero counts of n! in a fixed base, via exact closed forms.

Z(b, n) is the number of trailing zero digits of n! written in base b,
equivalently the largest e with b**e dividing n!.  For a prime p it is the
classical Legendre count of factors of p in n!; prime powers divide that by
the exponent, and composite bases take the minimum over their prime-power
parts.

Two independent formulas are provided for the prime case.  The digit-sum
form is the default everywhere (one pass over the base-p digits); the
floored-sum form is kept as a separate code path so the two can be checked
against each other.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .arithmetic import PrimeFactorization, _check_prime, digit_sum, factorize


class BaseSpec(namedtuple("BaseSpec", "base factorization live_parts")):
    """A base together with its prime factorization.

    live_parts holds the (prime, exponent) parts that can attain the minimum
    in z_base.  A part (p, r) is dropped when a larger prime q has an exponent
    s >= r: floor(n / p**i) >= floor(n / q**i) term by term, so
    Z_p(n) // r >= Z_q(n) // r >= Z_q(n) // s for every n.  It is computed
    from the factorization, never passed in.
    """

    __slots__ = ()

    def __new__(cls, base: int, factorization: PrimeFactorization) -> BaseSpec:
        if factorization.value != base:
            raise ValueError(
                f"factorization {factorization.factors} does not reconstruct {base}"
            )
        # factors ascend by prime: keep a part iff its exponent beats every later one
        live = []
        top = 0
        for p, r in reversed(factorization.factors):
            if r > top:
                live.append((p, r))
                top = r
        return super().__new__(cls, base, factorization, tuple(reversed(live)))

    def __getnewargs__(self) -> tuple[int, PrimeFactorization]:
        return self[:2]  # copy and pickle rebuild through __new__, which derives live_parts

    @classmethod
    def of(cls, b: "int | BaseSpec") -> "BaseSpec":
        """Coerce an integer base (or pass an existing spec through)."""
        if isinstance(b, BaseSpec):
            return b
        return _spec_from_int(b)


@lru_cache(maxsize=1024)
def _spec_from_int(b: int) -> BaseSpec:
    return BaseSpec(b, factorize(b))


def _check_n(n: int) -> int:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return n


def z_prime_legendre(p: int, n: int) -> int:
    """Count of factors of p in n! as the finite sum of floor(n / p**i)."""
    _check_prime(p)
    _check_n(n)
    total = 0
    q = n // p
    while q:
        total += q
        q //= p
    return total


def z_prime_digitsum(p: int, n: int) -> int:
    """Count of factors of p in n! as (n - digit_sum(n, p)) / (p - 1).

    The division is always exact.  For p = 2 the digit sum is n.bit_count().
    """
    _check_prime(p)
    _check_n(n)
    if p == 2:
        return n - n.bit_count()
    return (n - digit_sum(n, p)) // (p - 1)


# default prime route; the floored-sum form stays available for cross-checks
z_prime = z_prime_digitsum


def z_prime_power(p: int, r: int, n: int) -> int:
    """Trailing zeros of n! in base p**r: floor of the prime count over r."""
    if r < 1:
        raise ValueError(f"exponent must be >= 1, got {r}")
    return z_prime(p, n) // r


def z_base(b: "int | BaseSpec", n: int) -> int:
    """Trailing zeros of n! in base b: the minimum over b's prime-power parts.

    Only the parts that can attain the minimum (BaseSpec.live_parts) are
    evaluated.
    """
    spec = BaseSpec.of(b)
    _check_n(n)
    best = None
    for p, r in spec.live_parts:
        z = z_prime_digitsum(p, n) // r
        if best is None or z < best:
            best = z
            if z == 0:
                break
    assert best is not None
    return best


def z_shift(p: int, l: int, n: int) -> int:
    """Prime count for l * p**n without expanding the product.

    Equals l*(p**n - 1)/(p - 1) + z_prime(p, l); scaling l by a power of p
    shifts its digits up, so only the geometric block of new floors is added.
    """
    _check_prime(p)
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    _check_n(n)
    return l * (p**n - 1) // (p - 1) + z_prime(p, l)
