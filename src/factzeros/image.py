"""Which trailing-zero counts actually occur, which never do, and how densely.

The count for a fixed base is non-decreasing in n but skips values, so its
image has gaps.  Membership of a target z is decided by inverting the count
with a gallop-plus-bisect search (monotonicity is all that is needed).
Gaps need only the count itself: a part p**r steps by 2 or more only at a
multiple of p**(r+1), so the skipped runs are read off z_base on both sides
of those points alone, one gap at a time.  Each family generator produces
the values skipped by one jump whose location the paper names; verify=True
proves the whole run unattained with two counts at that location.  Density
counts image members up to N by one walk over the attained values and
refuses to answer unless two Legendre sums certify it.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from .arithmetic import _check_prime, is_prime, valuation
from .errors import PreconditionError, VerificationError
from .zcount import BaseSpec, _check_n, z_base, z_prime_legendre, z_shift


class MembershipResult(namedtuple("MembershipResult", "z member witness bracket")):
    """Outcome of asking whether z occurs as a trailing-zero count.

    Members carry the minimal witness n; non-members carry the bracketing
    point (n_star, value below, value above) with value_below < z <
    value_above.
    """

    __slots__ = ()

    def __new__(
        cls, z: int, member: bool, witness: int | None = None, bracket: tuple | None = None
    ) -> MembershipResult:
        if member:
            if witness is None or bracket is not None:
                raise ValueError("a member carries a witness and no bracket")
        else:
            if witness is not None or bracket is None:
                raise ValueError("a non-member carries a bracket and no witness")
            _, below, above = bracket
            if not below < z < above:
                raise ValueError(f"bracket {bracket} does not straddle {z}")
        return super().__new__(cls, z, member, witness, bracket)


class DensityReport(namedtuple("DensityReport", "p N a_exact a_paper_formula ratio")):
    """Exact image count in [0, N] next to the closed-form prediction for it.

    a_paper_formula is None unless N + 1 is a power of p; ratio is a_exact / N as a
    Fraction.  a_exact has passed its Legendre certificate for this report to exist.
    """

    __slots__ = ()

    @property
    def divergence(self) -> bool:
        return self.a_paper_formula is not None and self.a_paper_formula != self.a_exact


def min_arg_reaching(b: "int | BaseSpec", z: int) -> int:
    """Minimal n with z_base(b, n) >= z: gallop to bracket, then bisect."""
    spec = BaseSpec.of(b)
    _check_n(z)
    if z == 0:
        return 0
    hi = 1
    while z_base(spec, hi) < z:
        hi *= 2
    lo = hi // 2  # z_base(lo) < z, by the gallop exit condition
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if z_base(spec, mid) >= z:
            hi = mid
        else:
            lo = mid
    return hi


def in_image(b: "int | BaseSpec", z: int) -> MembershipResult:
    """Decide whether z occurs as a trailing-zero count in base b."""
    spec = BaseSpec.of(b)
    n_star = min_arg_reaching(spec, z)
    reached = z_base(spec, n_star)
    if reached == z:
        return MembershipResult(z, True, witness=n_star)
    return MembershipResult(z, False, bracket=(n_star, z_base(spec, n_star - 1), reached))


def gaps_by_membership(b: "int | BaseSpec", z_max: int) -> list[int]:
    """Gaps up to z_max by querying every z individually (the slow route)."""
    spec = BaseSpec.of(b)
    return [z for z in range(z_max + 1) if not in_image(spec, z).member]


def gaps_up_to(b: "int | BaseSpec", z_max: int) -> list[int]:
    """All z <= z_max never attained in base b, ascending."""
    spec = BaseSpec.of(b)
    _check_n(z_max)
    return list(_gaps(spec, z_max))


def _gaps(spec: BaseSpec, z_max: int) -> Iterator[int]:
    """The gaps up to z_max, ascending, read off z_base at the points where one can open.

    A part p**r steps at n by floor((v_p(n) + beta)/r) with beta < r, so by 2
    or more only where p**(r+1) divides n.  A jump of 2 or more in the minimum
    is such a step of a part that binds at n - 1, and some live part binds
    there (a dropped part never falls below the live part that dominates it).
    So every gap lies strictly between z_base(n - 1) and z_base(n) at a
    multiple n of p**(r+1) for a live part; equal multiples are taken once.
    """
    steps = [p ** (r + 1) for p, r in spec.live_parts]
    nxt = steps
    while True:
        n = min(nxt)
        below = z_base(spec, n - 1)
        if below >= z_max:
            return
        yield from range(below + 1, min(z_base(spec, n), z_max + 1))
        nxt = [m + step if m == n else m for m, step in zip(nxt, steps)]


# ---------------------------------------------------------------------------
# families of non-attained values

# Cap on the bit length of a family's largest value.  A family has fewer
# values than its top value has bits, so this also bounds the count; decimal
# output of ints above about 14,000 bits is refused by the interpreter anyway.
FAMILY_MAX_BITS = 10_000


def _check_size(p: int, exponent: int) -> None:
    """Refuse a family whose top value, below p**exponent, may exceed the cap.

    Runs before any value is built.
    """
    bits = exponent * (p - 1).bit_length()  # (p-1).bit_length() >= log2(p)
    if bits > FAMILY_MAX_BITS:
        raise ValueError(
            f"family values would need about {bits} bits, above the cap of {FAMILY_MAX_BITS}"
        )


def _repunit(p: int, length: int) -> int:
    # 1 + p + ... + p**(length-1)
    return (p**length - 1) // (p - 1)


def _run(part: tuple[int, int], l: int, e: int, top: int, length: int, verify: bool) -> list[int]:
    """The run top - 1, ..., top - length + 1; with verify, proved unattained in base p**r.

    Z never decreases, so Z(L - 1) < min(values) and max(values) < Z(L) at the
    jump L = l * p**e prove it; Z_p(L - 1) = Z_p(L) - v_p(L) = Z_p(L) - e - v_p(l).
    """
    values = [top - h for h in range(1, length)]
    if verify:
        p, r = part
        at = z_shift(p, l, e)
        below, above = (at - e - valuation(p, l)) // r, at // r
        if not (below < values[-1] and values[0] < above):
            raise VerificationError(
                f"the {len(values)} values are not all skipped by the jump at "
                f"{l}*{p}**{e} in base {p}**{r}; family is wrong"
            )
    return values


def family_prop3a(p: int, n: int, *, verify: bool = False) -> list[int]:
    """The n-1 values (p**n - k*p + k - 1)/(p - 1), k = 1..n-1; none occur, base p.

    These sit directly below the count attained at p**n, inside its jump of
    amplitude n.  The k = 1, n = 2 instance says p itself never occurs.
    """
    _check_prime(p)
    if n <= 1:
        raise ValueError(f"need n > 1, got {n}")
    _check_size(p, n)
    # (p**n - 1)/(p - 1) - k is the paper's value k
    return _run((p, 1), 1, n, _repunit(p, n), n, verify)


def family_prop3b(p: int, n: int, k: int, *, verify: bool = False) -> list[int]:
    """The n-1 values ((p**k - 1)/(p - 1)) * p**n - k - h, h = 1..n-1; base p."""
    _check_prime(p)
    if n <= 1:
        raise ValueError(f"need n > 1, got {n}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    _check_size(p, k + n)
    return _run((p, 1), p**k - 1, n, _repunit(p, k) * p**n - k, n, verify)


def family_prop7(p: int, r: int, k: int, *, verify: bool = False) -> list[int]:
    """The k-1 values S/r - h, h = 1..k-1, where S = 1 + p + ... + p**(kr-1).

    Requires r to divide S; the values fall inside the amplitude-k jump of
    the base p**r count at p**(kr).
    """
    _check_prime(p)
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    if k <= 1:
        raise ValueError(f"need k > 1, got {k}")
    _check_size(p, k * r)
    s = _repunit(p, k * r)
    if s % r:
        raise PreconditionError(f"r={r} does not divide the power sum {s}")
    return _run((p, r), 1, k * r, s // r, k, verify)


def family_cor2(p: int, k: int, *, verify: bool = False) -> list[int]:
    """Squared odd prime base: the r = 2 case of family_prop7.

    The power sum has an even number of odd terms, so the divisibility
    requirement holds automatically.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    return family_prop7(p, 2, k, verify=verify)


def family_cor3(q: int, *, as_printed: bool = False, verify: bool = False) -> list[int]:
    """Base 2**q for odd prime q: values (2**(q(q-1)) - 1)/q - h, h = 1..q-2.

    Fermat's little theorem supplies the divisibility, so this is
    family_prop7(2, q, q-1).  as_printed=True instead returns the variant
    2**(q(q-1)) - 1 - h without the division; those values are exposed for
    reference only and cannot be combined with verify.
    """
    if q == 2 or not is_prime(q):
        raise ValueError(f"q must be an odd prime, got {q}")
    _check_size(2, q * (q - 1))
    if as_printed:
        if verify:
            raise ValueError("as-printed values are reference output and cannot be verified")
        top = 2 ** (q * (q - 1)) - 1
        return [top - h for h in range(1, q - 1)]
    return family_prop7(2, q, q - 1, verify=verify)


def family_prop8(p: int, r: int, l: int, k: int, *, verify: bool = False) -> list[int]:
    """The k-1 values (l/r) * (1 + p + ... + p**(kr-1)) - h, h = 1..k-1; base p**r.

    Requires l < p and r | l; the values fall inside the amplitude-k jump at
    l * p**(kr).
    """
    _check_prime(p)
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    if k <= 1:
        raise ValueError(f"need k > 1, got {k}")
    if l < 1:
        raise ValueError(f"need l >= 1, got {l}")
    if l >= p:
        raise PreconditionError(f"l={l} must be below p={p}")
    if l % r:
        raise PreconditionError(f"r={r} does not divide l={l}")
    _check_size(p, k * r + 1)
    return _run((p, r), l, k * r, (l // r) * _repunit(p, k * r), k, verify)


# ---------------------------------------------------------------------------
# image density


def density_paper_formula(p: int, k: int) -> int:
    """Closed-form predicted count for N = p**k - 1, reported for comparison."""
    _check_prime(p)
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return p**k - (p - 1) * k * (k - 1) // 2


def _power_index(p: int, N: int) -> int | None:
    k = valuation(p, N + 1)
    return k if p**k == N + 1 else None  # N >= 1, so k = 0 never passes


def density_exact(p: int, N: int) -> DensityReport:
    """Exact count of attained values in [0, N] for a prime base.

    The attained values are f(m) = Z_p(m*p) = m + Z_p(m), m >= 0, strictly
    increasing, so the count is the a with f(a - 1) <= N < f(a).  A walk over m
    finds a; two Legendre sums then certify that bracket, or this raises.
    """
    _check_prime(p)
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    a = _count_attained(p, N)
    if not (a >= 1 and a - 1 + z_prime_legendre(p, a - 1) <= N < a + z_prime_legendre(p, a)):
        raise VerificationError(
            f"density count {a} for p={p}, N={N} fails its certificate f(a - 1) <= N < f(a)"
        )
    from fractions import Fraction

    k = _power_index(p, N)
    formula = density_paper_formula(p, k) if k is not None else None
    return DensityReport(p, N, a, formula, Fraction(a, N))


def _count_attained(p: int, N: int) -> int:
    """The least m with f(m) > N, adding f(m) - f(m - 1) = 1 + v_p(m) from f(0) = 0."""
    f = 0
    for m in range(1, N + 2):  # f(m) >= m, so the walk ends by m = N + 1
        f += 1
        q = m
        while not q % p:
            q //= p
            f += 1
        if f > N:
            return m
