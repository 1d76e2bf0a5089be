"""Exact integer primitives: base factorization, p-adic valuation, digit sums
and carry runs.

Everything here is pure and arbitrary precision.  Digits are read from the low
end, where carries and trailing-digit runs live.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd, isqrt

_TRIAL_LIMIT = 2**10
_MAX_BASE = 2**64

# The least strong pseudoprime to all of 2..41 is 3,317,044,064,679,887,385,961,981
# (2..37 alone pass 318,665,857,834,031,151,167,461 = 399165290221 * 798330580441).
# Below this bound the witness set decides primality exactly.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


@lru_cache(maxsize=1)
def _small_primes() -> tuple[int, ...]:
    """All primes below 2**10, via a byte sieve (built once, on first use)."""
    sieve = bytearray([1]) * _TRIAL_LIMIT
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(_TRIAL_LIMIT) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, _TRIAL_LIMIT, i)))
    return tuple(i for i in range(_TRIAL_LIMIT) if sieve[i])


def _miller_rabin(n: int) -> bool:
    # n odd, > 2, not divisible by any witness
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=4096)
def is_prime(n: int) -> bool:
    """Deterministic primality check, exact for every n below _MR_BOUND.

    Raises ValueError for n >= _MR_BOUND (about 3.3e24), where the fixed
    Miller-Rabin witness set is no longer a proof.
    """
    if n >= _MR_BOUND:
        raise ValueError(f"primality is only decided below {_MR_BOUND}, got {n}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    return _miller_rabin(n)


def _check_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"expected a prime, got {p}")
    return p


def _pollard_rho(n: int) -> int:
    """Nontrivial factor of an odd composite n, by Brent's cycle method.

    Deterministic: the polynomial offset c is tried in a fixed order, so the
    same n always yields the same factor.
    """
    for c in range(1, 100):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # backtrack one step at a time from the last saved position
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # pragma: no cover


def _factor_tail(m: int, out: dict[int, int]) -> None:
    # m has no prime factor below _TRIAL_LIMIT
    if m == 1:
        return
    if is_prime(m):
        out[m] = out.get(m, 0) + 1
        return
    d = _pollard_rho(m)
    _factor_tail(d, out)
    _factor_tail(m // d, out)


class PrimeFactorization(namedtuple("PrimeFactorization", "factors")):
    """Multiset of (prime, exponent) pairs, distinct primes in increasing order."""

    __slots__ = ()

    def __new__(cls, factors: tuple[tuple[int, int], ...]) -> PrimeFactorization:
        prev = 1
        for p, r in factors:
            if p <= prev:
                raise ValueError("primes must be distinct and increasing")
            if r < 1:
                raise ValueError(f"exponent must be >= 1, got {r}")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            prev = p
        return super().__new__(cls, factors)

    @property
    def value(self) -> int:
        """The integer this factorization reconstructs."""
        v = 1
        for p, r in self.factors:
            v *= p**r
        return v

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def factorize(b: int) -> PrimeFactorization:
    """Factor a base b with 2 <= b < 2**64.

    Trial division by primes below 2**10, then the cofactor goes to is_prime
    and, while composite, to a deterministic Pollard-rho split.
    """
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    if b >= _MAX_BASE:
        raise ValueError(f"base must be below 2**64, got {b}")
    out: dict[int, int] = {}
    m = b
    for p in _small_primes():
        if p * p > m:
            break
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    if m > 1:
        _factor_tail(m, out)
    return PrimeFactorization(tuple(sorted(out.items())))


def valuation(p: int, n: int) -> int:
    """Largest m with p**m dividing n.  Undefined (rejected) for n = 0."""
    _check_prime(p)
    if n < 1:
        raise ValueError(f"valuation needs n >= 1, got {n}")
    m = 0
    while n % p == 0:
        n //= p
        m += 1
    return m


def digit_sum(n: int, p: int) -> int:
    """Sum of the base-p digits of n."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if p < 2:
        raise ValueError(f"base must be >= 2, got {p}")
    s = 0
    while n:
        n, d = divmod(n, p)
        s += d
    return s


def trailing_max_digits(n: int, p: int) -> int:
    """Length of the run of digits equal to p-1 at the low end of n in base p.

    Returns 0 when the least digit is already below p-1 (in particular for
    n = 0).  If every digit equals p-1 the run is the whole expansion.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if p < 2:
        raise ValueError(f"base must be >= 2, got {p}")
    t = 0
    top = p - 1
    while n % p == top:
        n //= p
        t += 1
    return t
