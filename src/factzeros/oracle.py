"""Ground truth from the definition: n! carried along n, divided by the base.

Nothing here knows the closed forms.  Along n the oracle keeps
rest = n!/b**e with b not dividing rest: each step multiplies rest by n and
divides b out while the division is exact, and e is the trailing-zero count
of n! in base b.  Only exact products and exact division are used, so the
oracle's agreement with zcount is evidence.  A point query runs the stream up
to its n and stops at N_MAX.
"""

from __future__ import annotations

from collections.abc import Iterator

N_MAX = 2000  # largest n a point query will carry n! to


class CapacityError(ValueError):
    """Requested n exceeds N_MAX."""


def _zeros_along(b: int, n_max: int) -> Iterator[int]:
    """Trailing zeros of 0!, 1!, ..., n_max! in base b, one per n."""
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    rest, e = 1, 0
    yield e
    for n in range(1, n_max + 1):
        rest *= n
        q, r = divmod(rest, b)
        while not r:
            rest, e = q, e + 1
            q, r = divmod(rest, b)
        yield e


def factorial_trailing_zeros(b: int, n: int) -> int:
    """Trailing zeros of n! in base b, from the factorial itself."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > N_MAX:
        raise CapacityError(f"n={n} exceeds the bound N_MAX={N_MAX}")
    for e in _zeros_along(b, n):
        pass
    return e
