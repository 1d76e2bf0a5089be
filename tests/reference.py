"""Reference routes: slow, independent computations the tests check the package against.

The package keeps one route per quantity.  A second route that exists only to
check the first lives here, beside the tests that use it; nothing under src/
imports this module.
"""

import math
from collections.abc import Iterator
from itertools import count, takewhile

from factzeros.image import min_arg_reaching
from factzeros.jumps import jump_stream
from factzeros.zcount import BaseSpec, _check_n, z_base, z_prime, z_prime_digitsum


def digits(n: int, p: int) -> list[int]:
    """Base-p digits of n >= 0, little-endian; [0] for n = 0."""
    ds = []
    while True:
        n, d = divmod(n, p)
        ds.append(d)
        if not n:
            return ds


def trailing_zero_digits(b: int, n: int) -> int:
    """Trailing zeros of n! in base b, by converting n! to base b digit by digit."""
    ds = digits(math.factorial(n), b)
    return next(i for i, d in enumerate(ds) if d)  # n! >= 1 has a nonzero digit


def jump_amplitude_base(b: int, n: int) -> int:
    """Z_b(n + 1) - Z_b(n), evaluated at both ends."""
    return z_base(b, n + 1) - z_base(b, n)


def binding_components(b: "int | BaseSpec", n: int) -> set[tuple[int, int]]:
    """The (prime, exponent) parts of b that achieve the minimum in z_base.

    Every part is evaluated, not only the live ones: a dropped part can tie.
    """
    spec = BaseSpec.of(b)
    _check_n(n)
    per = [(p, r, z_prime_digitsum(p, n) // r) for p, r in spec.factorization.factors]
    zmin = min(z for _, _, z in per)
    return {(p, r) for p, r, z in per if z == zmin}


def gaps_by_jump_walk(b: "int | BaseSpec", z_max: int) -> list[int]:
    """All z <= z_max never attained in base b, by walking the jump stream.

    Each jump from value v to v+a skips v+1 .. v+a-1; collecting those while
    the running value is below z_max yields every gap.
    """
    spec = BaseSpec.of(b)
    _check_n(z_max)
    gaps: list[int] = []
    if z_max > 0:
        prev = 0
        for rec in jump_stream(spec, 0, min_arg_reaching(spec, z_max)):
            after = prev + rec.composite_amplitude
            gaps.extend(range(prev + 1, min(after - 1, z_max) + 1))
            prev = after
            if prev >= z_max:
                break
    return gaps


def attained_by_scan(p: int) -> Iterator[int]:
    """The values Z_p takes, ascending, by evaluating Z_p along n and keeping each new one.

    Every floor n // p**i depends on n only through n // p, so evaluating Z_p at
    the multiples of p sees every value it takes.
    """
    last = -1
    for n in count(0, p):
        v = z_prime(p, n)
        if v != last:
            yield v
            last = v


def density_by_scan(p: int, N: int) -> int:
    """How many values Z_p takes in [0, N], counted along the scan."""
    return sum(1 for _ in takewhile(lambda v: v <= N, attained_by_scan(p)))
