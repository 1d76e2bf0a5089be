"""Where the trailing-zero count increases, and by how much.

For a prime base the count steps exactly at multiples of p, by the p-adic
valuation of the new point.  For a prime power p**r the step is read off the
euclidean decomposition of the prime count; for a composite base the step is
the difference of z_base across the point.  jump_stream enumerates composite
jumps without scanning every n: only the parts that can attain the minimum
(a part p**r is dropped when a larger prime of the base has an exponent
s >= r, since its count is then never smaller) can move it, and a part p**r
moves only at multiples of p, so candidates are the multiples of the primes
of those parts.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from .arithmetic import _check_prime, trailing_max_digits, valuation
from .zcount import BaseSpec, _check_n, z_prime


class ZDecomposition(namedtuple("ZDecomposition", "alpha beta modulus")):
    """z_prime(p, n) split as alpha * modulus + beta with 0 <= beta < modulus."""

    __slots__ = ()

    def __new__(cls, alpha: int, beta: int, modulus: int) -> ZDecomposition:
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {modulus}")
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        if not 0 <= beta < modulus:
            raise ValueError(f"beta must lie in [0, {modulus}), got {beta}")
        return super().__new__(cls, alpha, beta, modulus)

    @property
    def value(self) -> int:
        return self.alpha * self.modulus + self.beta


class JumpRecord(namedtuple("JumpRecord", "location per_component composite_amplitude")):
    """A point n+1 where z_base increases, with per-part and total amplitudes.

    per_component maps each (prime, exponent) part of the base to its step.
    """

    __slots__ = ()


def digit_sum_delta(p: int, n: int) -> int:
    """digit_sum(n+1, p) - digit_sum(n, p), from the carry run length alone."""
    _check_prime(p)
    _check_n(n)
    return 1 - (p - 1) * trailing_max_digits(n, p)


def jump_amplitude_prime(p: int, n: int) -> int:
    """z_prime(p, n+1) - z_prime(p, n), which is the valuation of n+1 in p."""
    _check_prime(p)
    _check_n(n)
    return valuation(p, n + 1)


def decompose_z(p: int, r: int, n: int) -> ZDecomposition:
    """Euclidean division of z_prime(p, n) by r."""
    if r < 1:
        raise ValueError(f"modulus must be >= 1, got {r}")
    alpha, beta = divmod(z_prime(p, n), r)
    return ZDecomposition(alpha, beta, r)


def is_stationary_prime_power(p: int, r: int, n: int) -> bool:
    """Whether the base p**r count stays flat from n to n+1.

    Flat exactly when the step floor((m + beta) / r) is 0, that is when the
    valuation m of n+1 satisfies m < r - beta, beta being the residue of the
    prime count mod r.
    """
    if r < 2:
        raise ValueError(f"exponent must be >= 2, got {r}")
    return _component_amplitude(p, r, n) == 0


def jump_amplitude_prime_power(p: int, r: int, n: int) -> int:
    """Step of the base p**r count at n+1: floor((m + beta) / r)."""
    if r < 2:
        raise ValueError(f"exponent must be >= 2, got {r}")
    return _component_amplitude(p, r, n)


def _component_amplitude(p: int, r: int, n: int) -> int:
    """floor((m + beta) / r), m the valuation of n+1 and beta = z_prime(p, n) mod r.

    Any r >= 1 is accepted; for r = 1 beta is 0 and the step is m.
    """
    m = valuation(p, n + 1)
    if r == 1:
        return m
    return (m + z_prime(p, n) % r) // r


def jump_stream(b: "int | BaseSpec", n_lo: int, n_hi: int) -> Iterator[JumpRecord]:
    """All jumps of z_base located in (n_lo, n_hi], in increasing order.

    Only the parts in BaseSpec.live_parts can attain the minimum, so
    candidates are the multiples of their primes.  Each of those primes keeps
    a running count, started once at z_prime(p, n_lo) and raised by the
    valuation of every candidate it divides; a record is yielded where the
    minimum rises.  per_component lists every part of the base, dropped ones
    included, and is computed only at the records.  The bounds are checked
    at the call, before the first record is read.
    """
    spec = BaseSpec.of(b)
    if n_lo > n_hi:
        raise ValueError(f"empty range bounds reversed: {n_lo} > {n_hi}")
    _check_n(n_lo)
    return _jump_records(spec, n_lo, n_hi)


def _jump_records(spec: BaseSpec, n_lo: int, n_hi: int) -> Iterator[JumpRecord]:
    primes = [p for p, _ in spec.live_parts]
    exps = [r for _, r in spec.live_parts]
    counts = [z_prime(p, n_lo) for p in primes]
    nxt = [n_lo - n_lo % p + p for p in primes]  # next multiple above n_lo
    live = range(len(primes))
    prev = min(c // r for c, r in zip(counts, exps))
    while True:
        loc = min(nxt)
        if loc > n_hi:
            return
        for i in live:
            if nxt[i] == loc:
                p = primes[i]
                m, v = loc // p, 1  # v becomes v_p(loc); p divides loc here
                while m % p == 0:
                    m //= p
                    v += 1
                counts[i] += v
                nxt[i] = loc + p
        cur = min(c // r for c, r in zip(counts, exps))
        if cur > prev:
            per = {
                (p, r): _component_amplitude(p, r, loc - 1)
                for p, r in spec.factorization.factors
            }
            yield JumpRecord(loc, per, cur - prev)
            prev = cur
