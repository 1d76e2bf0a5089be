"""Ground truth by brute force: build n! as a big integer and divide.

Nothing here knows the closed forms.  The factorial is an exact product and
the trailing-zero count is obtained by exact division by the base.  This
module is the referee the fast formulas are checked against, so it stays
deliberately naive about everything except raw division speed.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache


class CapacityError(ValueError):
    """Requested n exceeds the configured factorial bound."""


class OracleConfig(namedtuple("OracleConfig", "n_max")):
    """Bound on how large an n! the oracle will materialize."""

    __slots__ = ()

    def __new__(cls, n_max: int = 2000) -> OracleConfig:
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        return super().__new__(cls, n_max)


DEFAULT_CONFIG = OracleConfig()


@lru_cache(maxsize=64)
def _factorial(n: int) -> int:
    return math.factorial(n)


def _count_divisions(b: int, x: int) -> int:
    """Largest e with b**e dividing x, by exact division only.

    Divides out b, b**2, b**4, ... while possible, then retries the smaller
    powers; this is the plain division loop with batched steps, never a
    formula.
    """
    e = 0
    stack: list[tuple[int, int]] = []
    pw, k = b, 1
    while True:
        q, r = divmod(x, pw)
        if r:
            break
        x = q
        e += k
        stack.append((pw, k))
        pw, k = pw * pw, 2 * k
    while stack:
        pw, k = stack.pop()
        q, r = divmod(x, pw)
        if r == 0:
            x = q
            e += k
    return e


def _check_args(b: int, n: int, config: OracleConfig) -> None:
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > config.n_max:
        raise CapacityError(f"n={n} exceeds the configured bound {config.n_max}")


def factorial_trailing_zeros(b: int, n: int, config: OracleConfig = DEFAULT_CONFIG) -> int:
    """Trailing zeros of n! in base b, from the factorial itself."""
    _check_args(b, n, config)
    return _count_divisions(b, _factorial(n))
