"""Acceptance suite: eleven contract checks, one printed verdict line each.

Every check is exact (tolerance zero).  Run with plain pytest; the verdict
lines bypass output capture so they always appear:

    pytest tests/test_acceptance.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import factzeros.cli as cli
from factzeros.arithmetic import digit_sum, is_prime, valuation
from factzeros.cli import OutputRecord
from factzeros.image import (
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
)
from factzeros.jumps import (
    digit_sum_delta,
    is_stationary_prime_power,
    jump_amplitude_prime,
    jump_amplitude_prime_power,
)
from factzeros.oracle import _zeros_along
from factzeros.zcount import (
    z_base,
    z_prime,
    z_prime_digitsum,
    z_prime_legendre,
    z_prime_power,
    z_shift,
)

GOLDEN = Path(__file__).parent / "golden"
VALUE_CAP = 10**6


@pytest.fixture
def announce(capsys):
    def _announce(criterion: int, ok: bool, detail: str = ""):
        line = f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        with capsys.disabled():
            print(line, flush=True)

    return _announce


def primes_up_to(limit: int) -> list[int]:
    return [p for p in range(2, limit + 1) if is_prime(p)]


def test_criterion_01_closed_form_equals_oracle(announce):
    bad = []
    checked = 0
    for b in range(2, 37):  # one oracle stream per base, carrying n!/b**e along n
        for n, expected in enumerate(_zeros_along(b, 2000)):
            if z_base(b, n) != expected:
                bad.append((b, n))
            checked += 1
    announce(1, not bad, f"{checked} oracle comparisons, n<=2000, b in 2..36")
    assert not bad, bad[:5]


def test_criterion_02_prime_count_formulas_agree(announce):
    bad = []
    for p in (2, 3, 5, 7, 13):
        for n in range(0, 10**5 + 1):
            if z_prime_legendre(p, n) != z_prime_digitsum(p, n):
                bad.append((p, n))
    announce(2, not bad, "legendre vs digit-sum, n<=1e5, 5 primes")
    assert not bad, bad[:5]


def test_criterion_03_prime_jump_law(announce):
    bad = []
    for p in (2, 3, 5, 7):
        prev = z_prime(p, 0)
        for n in range(0, 10**4):
            cur = z_prime(p, n + 1)
            if cur - prev != valuation(p, n + 1):
                bad.append((p, n))
            if jump_amplitude_prime(p, n) != cur - prev:
                bad.append((p, n))
            prev = cur
    announce(3, not bad, "step equals valuation of n+1, n<1e4, 4 primes")
    assert not bad, bad[:5]


def test_criterion_04_digit_sum_delta_law(announce):
    bad = []
    for p in (2, 3, 5, 7):
        prev = digit_sum(0, p)
        for n in range(0, 10**4):
            cur = digit_sum(n + 1, p)
            if digit_sum_delta(p, n) != cur - prev:
                bad.append((p, n))
            prev = cur
    announce(4, not bad, "carry-run formula vs direct digit sums, n<1e4")
    assert not bad, bad[:5]


def test_criterion_05_prime_power_laws(announce):
    bad = []
    for p, r in ((2, 2), (2, 3), (3, 2), (5, 2)):
        prev = z_prime_power(p, r, 0)
        for n in range(0, 10**4):
            cur = z_prime_power(p, r, n + 1)
            diff = cur - prev
            if jump_amplitude_prime_power(p, r, n) != diff:
                bad.append((p, r, n, "amplitude"))
            if is_stationary_prime_power(p, r, n) != (diff == 0):
                bad.append((p, r, n, "stationarity"))
            prev = cur
    announce(5, not bad, "amplitude and stationarity vs direct differences, n<1e4")
    assert not bad, bad[:5]


def test_criterion_06_prime_never_attains_itself(announce):
    bad = []
    for p in primes_up_to(97):
        res = in_image(p, p)
        if res.member or res.bracket != (p * p, p - 1, p + 1):
            bad.append((p, res))
    announce(6, not bad, "p skipped between p-1 and p+1 at n=p^2, p<=97")
    assert not bad, bad[:3]


def test_criterion_07_scaling_identity(announce):
    bad = []
    for p in (2, 3, 5):
        for l in range(1, 101):
            for n in range(0, 13):
                if z_shift(p, l, n) != z_prime(p, l * p**n):
                    bad.append((p, l, n))
    announce(7, not bad, "shift formula vs direct evaluation, l<=100, n<=12")
    assert not bad, bad[:5]


def _prop7_instances():
    """(p, r, k, values) with at least one value under the cap."""
    out = []
    for p in primes_up_to(150):
        for r in range(2, 33):
            s2 = (p ** (2 * r) - 1) // (p - 1)
            if s2 // r - 1 > VALUE_CAP:
                break
            for k in range(2, 40):
                s = (p ** (k * r) - 1) // (p - 1)
                if s // r - (k - 1) > VALUE_CAP:
                    break
                if s % r:
                    continue
                out.append((p, r, k, family_prop7(p, r, k)))
    return out


def _cor2_instances():
    out = []
    for p in primes_up_to(150):
        if p == 2:
            continue
        for k in range(2, 40):
            s = (p ** (2 * k) - 1) // (p - 1)
            if s // 2 - (k - 1) > VALUE_CAP:
                break
            out.append((p, k, family_cor2(p, k)))
    return out


def _prop8_instances():
    out = []
    for p in (2, 3, 5, 7):
        for l in range(1, p):
            for r in range(2, l + 1):
                if l % r:
                    continue
                for k in range(2, 40):
                    s = (p ** (k * r) - 1) // (p - 1)
                    if (l // r) * s - (k - 1) > VALUE_CAP:
                        break
                    out.append((p, r, l, k, family_prop8(p, r, l, k)))
    return out


def test_criterion_08_families_avoid_the_image(announce):
    bad = []
    checked = 0

    def check(base, values):
        nonlocal checked
        for v in values:
            if v > VALUE_CAP:
                continue
            checked += 1
            if in_image(base, v).member:
                bad.append((base, v))

    for p in (2, 3, 5):
        for n in range(2, 7):
            check(p, family_prop3a(p, n))
            for k in range(1, 6):
                check(p, family_prop3b(p, n, k))
    for p, r, _, values in _prop7_instances():
        check(p**r, values)
    for p, _, values in _cor2_instances():
        check(p**2, values)
    for q in (3, 5):
        check(2**q, family_cor3(q))
    for p, r, _, _, values in _prop8_instances():
        check(p**r, values)

    announce(8, not bad and checked > 400, f"{checked} family values, zero attained")
    assert checked > 400
    assert not bad, bad[:5]


def test_criterion_09_density_routes_agree(announce):
    # density_exact raises internally unless two Legendre sums certify its count walk
    reports = {}
    for p in (2, 3, 5):
        for k in range(1, 13):
            reports[(p, k)] = density_exact(p, p**k - 1)

    anchored = (
        reports[(2, 2)].a_exact == 3 == density_paper_formula(2, 2)
        and reports[(2, 4)].a_exact == 9
        and reports[(2, 4)].a_paper_formula == 10
        and reports[(2, 4)].divergence is True
    )
    announce(9, anchored, "count walk Legendre-certified for p in {2,3,5}, k<=12; k=4 split pinned")
    assert anchored, reports[(2, 4)]


def test_criterion_10_gap_routes_agree(announce):
    ok = gaps_up_to(2, 15) == [2, 5, 6, 9, 12, 13, 14]
    bad = []
    for b in range(2, 17):
        if gaps_up_to(b, 2000) != gaps_by_membership(b, 2000):
            bad.append(b)
    announce(10, ok and not bad, "jump walk vs per-value membership, b<=16, z<=2000")
    assert ok
    assert not bad, bad


def test_criterion_11_cli_contract(announce, capsys):
    # JSON round-trip across every record type, >= 1000 records
    commands = [
        ["zeros", "--base", "12", "0..899"],
        ["zeros", "--base", "7", "0..49"],
        ["jumps", "--base", "10", "--to", "300"],
        ["member", "--base", "10", "5"],
        ["member", "--base", "2", "3"],
        ["gaps", "--base", "2", "--max", "15"],
        ["families", "prop3b", "-p", "3", "-n", "4", "-k", "2", "--verify"],
        ["density", "-p", "2", "-k", "4"],
        ["verify", "--bases", "2..12", "--n-max", "30"],
    ]
    records = 0
    round_trip_ok = True
    exit_zero_ok = True
    for argv in commands:
        code = cli.main([*argv, "--format", "json"])
        out = capsys.readouterr().out
        if argv[0] not in ("member",) and code != 0:
            exit_zero_ok = False
        for line in out.splitlines():
            rec = OutputRecord.from_json(line)
            if rec.to_json() != line or json.loads(line)["schema_version"] != "1":
                round_trip_ok = False
            records += 1

    # byte-exact sequence export
    proc = subprocess.run(
        [sys.executable, "-m", "factzeros", "zeros", "--base", "10", "0..30", "--format", "bfile"],
        capture_output=True,
    )
    golden_ok = proc.stdout == (GOLDEN / "b10_zeros_0_30.txt").read_bytes()

    # exit-status table, end to end
    def status(*argv):
        return subprocess.run(
            [sys.executable, "-m", "factzeros", *argv], capture_output=True
        ).returncode

    mismatch_script = (
        "import factzeros.cli as c\n"
        "c.z_base = lambda b, n: 99\n"
        "raise SystemExit(c.main(['verify', '--bases', '10', '--n-max', '3']))\n"
    )
    codes_ok = (
        status("zeros", "--base", "10", "25") == 0
        and status("zeros", "--base", "10", "bad-range") == 1
        and status("member", "--base", "2", "2") == 2
        and subprocess.run([sys.executable, "-c", mismatch_script], capture_output=True).returncode == 3
        and status("families", "prop7", "-p", "2", "-r", "2", "-k", "2") == 4
    )

    ok = records >= 1000 and round_trip_ok and exit_zero_ok and golden_ok and codes_ok
    announce(
        11,
        ok,
        f"{records} records round-tripped; golden b-file byte-exact; exit codes 0..4",
    )
    assert records >= 1000
    assert round_trip_ok and exit_zero_ok
    assert golden_ok
    assert codes_ok
