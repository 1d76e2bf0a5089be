"""The in-process workloads: seeded inputs, the operation each input drives, and
an independent check of every answer.

Operations call the public API through module attributes at call time, so the
tracer's rebinding sees them.  Checks run after the timed phase and go through
the Legendre route (`z_prime_legendre`) and the factorial oracle, never through
the functions being timed.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Bases with their factorizations written out, so checks never depend on the
# library's own factorize.  1 to 8 distinct primes, prime powers, and 64-bit
# primes and a 64-bit semiprime that take the slow factorization paths.
P61 = 2**61 - 1
P64 = 2**64 - 59
SEMI64 = (4294967279, 4294967291)
LOOKUP_POOL: dict[int, tuple[tuple[int, int], ...]] = {
    2: ((2, 1),),
    3: ((3, 1),),
    5: ((5, 1),),
    7: ((7, 1),),
    101: ((101, 1),),
    65537: ((65537, 1),),
    P61: ((P61, 1),),
    P64: ((P64, 1),),
    16: ((2, 4),),
    1024: ((2, 10),),
    2**63: ((2, 63),),
    125: ((5, 3),),
    3**40: ((3, 40),),
    6: ((2, 1), (3, 1)),
    10: ((2, 1), (5, 1)),
    12: ((2, 2), (3, 1)),
    18: ((2, 1), (3, 2)),
    20: ((2, 2), (5, 1)),
    100: ((2, 2), (5, 2)),
    999983 * 1000003: ((999983, 1), (1000003, 1)),
    SEMI64[0] * SEMI64[1]: ((SEMI64[0], 1), (SEMI64[1], 1)),
    30: ((2, 1), (3, 1), (5, 1)),
    360: ((2, 3), (3, 2), (5, 1)),
    1001: ((7, 1), (11, 1), (13, 1)),
    210: ((2, 1), (3, 1), (5, 1), (7, 1)),
    2310: ((2, 1), (3, 1), (5, 1), (7, 1), (11, 1)),
    30030: ((2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1)),
    510510: ((2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (17, 1)),
    9699690: ((2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1)),
}
ORACLE_N_MAX = 2000


def log_uniform(rng: random.Random, max_digits: int) -> int:
    """An integer whose digit count is uniform in 1..max_digits."""
    d = rng.randint(1, max_digits)
    return rng.randrange(10 ** (d - 1) if d > 1 else 0, 10**d)


class Legendre:
    """The independent route: Z_b(n) as a minimum of Legendre sums over b's parts."""

    def __init__(self, fz) -> None:
        self.zp = fz.zcount.z_prime_legendre
        self.oracle = fz.oracle.factorial_trailing_zeros

    def z(self, factors, n: int) -> int:
        return min(self.zp(p, n) // r for p, r in factors)

    def min_reaching(self, factors, z: int) -> int:
        """Least n with Z(n) >= z, by doubling then bisecting on the Legendre count."""
        if z == 0:
            return 0
        hi = 1
        while self.z(factors, hi) < z:
            hi *= 2
        lo = hi // 2
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if self.z(factors, mid) >= z:
                hi = mid
            else:
                lo = mid
        return hi

    def z_base_ok(self, b: int, factors, n: int, got: int) -> bool:
        if got != self.z(factors, n):
            return False
        return n > ORACLE_N_MAX or got == self.oracle(b, n)

    def membership_ok(self, factors, z: int, res) -> bool:
        """A witness must be minimal; a bracket must straddle z at a real step."""
        if res.z != z:
            return False
        if res.member:
            w = res.witness
            return self.z(factors, w) == z and (w == 0 or self.z(factors, w - 1) < z)
        n_star, below, above = res.bracket
        return (
            n_star >= 1
            and below < z < above
            and self.z(factors, n_star) == above
            and self.z(factors, n_star - 1) == below
        )

    def attained(self, factors, z: int) -> bool:
        return self.z(factors, self.min_reaching(factors, z)) == z


# ---------------------------------------------------------------------------


class Lookup:
    """Point queries: z_base(b, n) and in_image(b, z), half each, on a fixed pool."""

    name = "lookup"
    inputs_per_second = 1000

    def __init__(self, fz) -> None:
        self.fz = fz
        self.legendre = Legendre(fz)

    def bases(self) -> dict[int, tuple]:
        return LOOKUP_POOL

    @staticmethod
    def generate(rng: random.Random, count: int) -> list[tuple]:
        pool = list(LOOKUP_POOL)
        ops: list[tuple] = []
        while len(ops) < count:
            block = ["z_base"] * 10 + ["in_image"] * 10
            rng.shuffle(block)
            ops.extend((kind, rng.choice(pool), log_uniform(rng, 60)) for kind in block)
        return ops

    def run(self, op):
        kind, b, x = op
        if kind == "z_base":
            return self.fz.z_base(b, x)
        return self.fz.in_image(b, x)

    def check(self, op, result) -> bool:
        kind, b, x = op
        factors = LOOKUP_POOL[b]
        if kind == "z_base":
            return self.legendre.z_base_ok(b, factors, x, result)
        return self.legendre.membership_ok(factors, x, result)


# ---------------------------------------------------------------------------


def _repunit(p: int, length: int) -> int:
    return (p**length - 1) // (p - 1)


def family_jobs(rng: random.Random) -> list[tuple]:
    """One parameter set per family generator, each meeting its precondition."""
    p = rng.choice((3, 5, 7, 11))
    return [
        ("prop3a", (rng.choice((2, 3, 5, 7)), rng.randint(8, 24))),
        ("prop3b", (rng.choice((2, 3, 5)), rng.randint(4, 12), rng.randint(1, 6))),
        ("prop7", (p, 2, rng.randint(2, 8))),
        ("cor2", (rng.choice((3, 5, 7)), rng.randint(2, 8))),
        ("cor3", (rng.choice((3, 5, 7, 11)),)),
        ("prop8", (p, 2, rng.choice(range(2, p, 2)), rng.randint(2, 6))),
    ]


def family_base(kind: str, params: tuple) -> tuple[tuple[int, int], ...]:
    """The base a family lives in, as (prime, exponent) parts."""
    if kind in ("prop3a", "prop3b"):
        return ((params[0], 1),)
    if kind == "cor2":
        return ((params[0], 2),)
    if kind == "cor3":
        return ((2, params[0]),)
    return ((params[0], params[1]),)  # prop7, prop8: p**r


def family_values(kind: str, params: tuple) -> list[int]:
    """The values each family's closed form promises, computed here from scratch."""
    if kind == "prop3a":
        p, n = params
        return [(p**n - k * p + k - 1) // (p - 1) for k in range(1, n)]
    if kind == "prop3b":
        p, n, k = params
        top = _repunit(p, k) * p**n
        return [top - k - h for h in range(1, n)]
    if kind in ("prop7", "cor2", "cor3"):
        if kind == "cor2":
            p, r, k = params[0], 2, params[1]
        elif kind == "cor3":
            p, r, k = 2, params[0], params[0] - 1
        else:
            p, r, k = params
        top = _repunit(p, k * r) // r
        return [top - h for h in range(1, k)]
    p, r, l, k = params
    top = (l // r) * _repunit(p, k * r)
    return [top - h for h in range(1, k)]


WALK_BASES = {
    10: ((2, 1), (5, 1)),
    12: ((2, 2), (3, 1)),
    30030: LOOKUP_POOL[30030],
}
# density_exact(p, p**k - 1) jobs.  The two heavy ones cost about the same (one
# on the scalar route, one on the numpy route, whose 2**21-element chunks set
# the worker's peak memory) and make up 1/8 of the jobs, so the 90th percentile
# lands inside that class rather than on a boundary between two job sizes.
HEAVY_DENSITY = ((2, 16), (2, 21))
MID_DENSITY = ((2, 19), (3, 12), (5, 8))
LIGHT_DENSITY = ((7, 6),)
# per base: z_max range for gaps_up_to, window range for jump_stream; sized so
# that every gap and jump job costs about as much as a mid density job
GAPS_ZMAX = {10: (4000, 5000), 12: (5000, 6000), 30030: (600, 800)}
JUMPS_WIDTH = {10: (9000, 11000), 12: (5000, 6000), 30030: (3000, 4000)}
# gaps up to this bound are compared in full with the per-z membership route;
# above it they are spot-checked
GAPS_PREFIX_CHECK = 200


class Walk:
    """Enumeration traffic: gap walks, jump streams, exact density, verified families."""

    name = "walk"
    inputs_per_second = 40

    def __init__(self, fz) -> None:
        self.fz = fz
        self.legendre = Legendre(fz)

    def bases(self) -> dict[int, tuple]:
        return {b: LOOKUP_POOL[b] for b in (*WALK_BASES, 2, 3, 5, 7)}

    @staticmethod
    def generate(rng: random.Random, count: int) -> list[tuple]:
        """Blocks of sixteen jobs: fixed kinds and sizes, seeded parameters and order."""
        ops: list[tuple] = []
        while len(ops) < count:
            block: list[tuple] = []
            for b in WALK_BASES:
                block.append(("gaps", b, rng.randint(*GAPS_ZMAX[b])))
                start = rng.randrange(10**12, 10**15)
                block.append(("jumps", b, start, start + rng.randint(*JUMPS_WIDTH[b])))
            block.extend(("density", p, k) for p, k in HEAVY_DENSITY + MID_DENSITY + LIGHT_DENSITY)
            families = rng.sample(family_jobs(rng), 4)
            block.extend(("family", kind, params) for kind, params in families)
            rng.shuffle(block)
            ops.extend(block)
        return ops

    def run(self, op):
        fz = self.fz
        kind = op[0]
        if kind == "gaps":
            return fz.gaps_up_to(op[1], op[2])
        if kind == "jumps":
            return list(fz.jump_stream(op[1], op[2], op[3]))
        if kind == "density":
            p, k = op[1], op[2]
            return fz.density_exact(p, p**k - 1)
        family, params = op[1], op[2]
        return getattr(fz, "family_" + family)(*params, verify=True)

    def check(self, op, result) -> bool:
        kind = op[0]
        lg = self.legendre
        if kind == "gaps":
            b, z_max = op[1], op[2]
            if result != sorted(set(result)) or not all(0 < g <= z_max for g in result):
                return False
            prefix = min(z_max, GAPS_PREFIX_CHECK)
            if [g for g in result if g <= prefix] != self.fz.image.gaps_by_membership(b, prefix):
                return False
            # spot-check membership on a few gaps and a few attained values
            rng = random.Random(z_max)
            gaps = set(result)
            sample = rng.sample(result, min(5, len(result)))
            sample += [v for v in rng.sample(range(z_max + 1), 10) if v not in gaps][:5]
            for v in sample:
                res = self.fz.image.in_image(b, v)
                if res.member == (v in gaps) or not lg.membership_ok(WALK_BASES[b], v, res):
                    return False
            return True
        if kind == "jumps":
            b, lo, hi = op[1], op[2], op[3]
            factors = WALK_BASES[b]
            prev_loc = lo
            total = 0
            for rec in result:
                loc = rec.location
                if not prev_loc < loc <= hi:
                    return False
                if rec.composite_amplitude != lg.z(factors, loc) - lg.z(factors, loc - 1):
                    return False
                for (p, r), amp in rec.per_component.items():
                    if amp != lg.zp(p, loc) // r - lg.zp(p, loc - 1) // r:
                        return False
                if rec.composite_amplitude <= 0 or set(rec.per_component) != set(factors):
                    return False
                prev_loc = loc
                total += rec.composite_amplitude
            # every step inside the window is accounted for
            return total == lg.z(factors, hi) - lg.z(factors, lo)
        if kind == "density":
            p, k = op[1], op[2]
            n_top = p**k - 1
            # attained values are Z_p(m*p) = m + Z_p(m), strictly increasing in m,
            # so the count up to N is the least m with m + Z_p(m) > N
            lo, hi = 0, n_top + 1
            while lo < hi:
                mid = (lo + hi) // 2
                if mid + lg.zp(p, mid) > n_top:
                    hi = mid
                else:
                    lo = mid + 1
            return (
                result.p == p
                and result.N == n_top
                and result.a_exact == lo
                and result.a_paper_formula == p**k - (p - 1) * k * (k - 1) // 2
                and result.ratio == Fraction(lo, n_top)
            )
        family, params = op[1], op[2]
        factors = family_base(family, params)
        if result != family_values(family, params) or not result:
            return False
        return not any(lg.attained(factors, v) for v in result)

