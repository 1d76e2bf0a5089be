"""Reference routes: slow, independent computations the tests check the package against.

The package keeps one route per quantity.  A second route that exists only to
check the first lives here, beside the tests that use it; nothing under src/
imports this module.
"""

import math
from collections.abc import Iterator
from itertools import count, takewhile

from factzeros.zcount import z_base, z_prime


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
