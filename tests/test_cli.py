"""Command-line behavior: formats, rendering, exit codes, golden output."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import factzeros.cli as cli
import factzeros.image as image
import factzeros.zcount as zcount
from factzeros.cli import OutputRecord, main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_process(*argv):
    return subprocess.run(
        [sys.executable, "-m", "factzeros", *argv],
        capture_output=True,
        text=True,
    )


# --- record envelope --------------------------------------------------------


def test_record_json_round_trip():
    rec = OutputRecord("1", "zeros", {"base": 10, "n": 25}, {"zeros": 6})
    line = rec.to_json()
    assert OutputRecord.from_json(line) == rec
    assert json.loads(line)["schema_version"] == "1"


def test_record_serialization_is_deterministic():
    a = OutputRecord("1", "x", {"b": 1, "a": 2}, {"d": 3, "c": 4})
    b = OutputRecord("1", "x", {"a": 2, "b": 1}, {"c": 4, "d": 3})
    assert a.to_json() == b.to_json()
    assert " " not in a.to_json()


# --- rendering --------------------------------------------------------------


def test_zeros_single_value_text(capsys):
    code, out, _ = run(capsys, "zeros", "--base", "10", "25")
    assert code == 0 and out == "6\n"


def test_zeros_range_text_pairs(capsys):
    code, out, _ = run(capsys, "zeros", "--base", "2", "3..5")
    assert code == 0
    assert out == "3 1\n4 3\n5 3\n"


def test_zeros_mixed_tokens(capsys):
    code, out, _ = run(capsys, "zeros", "--base", "10", "4..6", "25")
    assert code == 0
    assert out == "4 0\n5 1\n6 1\n6\n"


def test_zeros_json_payload(capsys):
    code, out, _ = run(capsys, "zeros", "--base", "12", "12", "--format", "json")
    rec = OutputRecord.from_json(out.strip())
    assert code == 0
    assert rec.command == "zeros"
    assert rec.inputs == {"base": 12, "n": 12}
    assert rec.results == {"zeros": 5}


def test_zeros_csv(capsys):
    code, out, _ = run(capsys, "zeros", "--base", "10", "24..26", "--format", "csv")
    assert code == 0
    assert out == "n,zeros\n24,4\n25,6\n26,6\n"


def test_zeros_bfile(capsys):
    code, out, _ = run(capsys, "zeros", "--base", "10", "5..9", "--format", "bfile")
    assert code == 0
    assert out == "5 1\n6 1\n7 1\n8 1\n9 1\n"


def test_jumps_text(capsys):
    code, out, _ = run(capsys, "jumps", "--base", "2", "--to", "8")
    assert code == 0
    assert out.splitlines() == ["2 1 2^1:1", "4 2 2^1:2", "6 1 2^1:1", "8 3 2^1:3"]


def test_jumps_empty_range(capsys):
    code, out, _ = run(capsys, "jumps", "--base", "7", "--from", "5", "--to", "6")
    assert code == 0 and out == ""


def test_jumps_json_components(capsys):
    _, out, _ = run(capsys, "jumps", "--base", "10", "--to", "10", "--format", "json")
    first = OutputRecord.from_json(out.splitlines()[0])
    assert first.results["location"] == 5
    assert first.results["per_component"] == [
        {"prime": 2, "exponent": 1, "amplitude": 0},
        {"prime": 5, "exponent": 1, "amplitude": 1},
    ]


def test_member_text_and_codes(capsys):
    code, out, _ = run(capsys, "member", "--base", "2", "0")
    assert code == 0 and out == "0 member witness=0\n"
    code, out, _ = run(capsys, "member", "--base", "10", "5")
    assert code == 2
    assert out == "5 non-member bracket n=24 below=4 above=6\n"


def test_member_json_bracket(capsys):
    code, out, _ = run(capsys, "member", "--base", "10", "5", "--format", "json")
    rec = OutputRecord.from_json(out.strip())
    assert code == 2
    assert rec.results == {
        "member": False,
        "witness": None,
        "bracket": {"n": 24, "z_below": 4, "z_above": 6},
    }


def test_gaps_text_and_bfile(capsys):
    code, out, _ = run(capsys, "gaps", "--base", "2", "--max", "15")
    assert code == 0
    assert out == "2\n5\n6\n9\n12\n13\n14\n"
    _, out, _ = run(capsys, "gaps", "--base", "2", "--max", "15", "--format", "bfile")
    assert out == "1 2\n2 5\n3 6\n4 9\n5 12\n6 13\n7 14\n"


def test_families_text(capsys):
    code, out, _ = run(capsys, "families", "prop3a", "-p", "2", "-n", "3")
    assert code == 0 and out == "6\n5\n"
    code, out, _ = run(capsys, "families", "cor3", "-q", "3")
    assert code == 0 and out == "20\n"


def test_families_verify_annotates(capsys):
    code, out, _ = run(capsys, "families", "prop3a", "-p", "2", "-n", "3", "--verify")
    assert code == 0
    assert out == "6 non-member\n5 non-member\n"


@pytest.mark.parametrize(
    "argv, count",
    [(["cor3", "-q", "67"], 65), (["prop7", "-p", "65537", "-r", "4", "-k", "2"], 1)],
)
def test_families_verify_bases_of_2_64_and_up(capsys, argv, count):
    code, out, err = run(capsys, "families", *argv, "--verify")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == count
    assert all(line.endswith(" non-member") for line in lines)


def test_families_as_printed(capsys):
    code, out, _ = run(capsys, "families", "cor3", "-q", "3", "--as-printed")
    assert code == 0 and out == "62\n"


def test_density_text(capsys):
    code, out, _ = run(capsys, "density", "-p", "2", "-k", "4")
    assert code == 0
    assert out == "p=2 N=15 a_exact=9 formula=10 ratio=3/5 divergence=true\n"


def test_density_by_upper_bound(capsys):
    code, out, _ = run(capsys, "density", "-p", "2", "-N", "10", "--format", "json")
    rec = OutputRecord.from_json(out.strip())
    assert code == 0
    assert rec.inputs == {"p": 2, "k": None, "N": 10}
    assert rec.results["a_paper_formula"] is None
    assert rec.results["divergence"] is False


def test_verify_clean_run(capsys):
    code, out, _ = run(capsys, "verify", "--bases", "2,10..12", "--n-max", "40")
    assert code == 0
    assert "checked=164" in out and "mismatches=0" in out


def test_verify_factorizes_each_base_once(capsys, monkeypatch):
    # 1,025 bases outgrow the 1,024-entry spec cache; z_base must not refactorize per n
    calls = []
    real = zcount.factorize
    monkeypatch.setattr(zcount, "factorize", lambda b: calls.append(b) or real(b))
    zcount._spec_from_int.cache_clear()
    code, out, _ = run(capsys, "verify", "--bases", "2..1026", "--n-max", "20")
    assert code == 0 and "checked=21525 mismatches=0" in out
    assert len(calls) <= 1025


def test_verify_reports_mismatch(capsys, monkeypatch):
    real = cli.z_base
    monkeypatch.setattr(cli, "z_base", lambda b, n: real(b, n) + (n == 7))
    code, out, _ = run(capsys, "verify", "--bases", "10", "--n-max", "9")
    assert code == 3
    assert "mismatches=1" in out
    assert "MISMATCH base=10 n=7" in out


def test_verify_json_mismatch_sample(capsys, monkeypatch):
    monkeypatch.setattr(cli, "z_base", lambda b, n: 99)
    code, out, _ = run(capsys, "verify", "--bases", "10", "--n-max", "2", "--format", "json")
    rec = OutputRecord.from_json(out.strip())
    assert code == 3
    assert rec.results["mismatches"] == 3
    assert rec.results["mismatch_sample"][0] == {
        "base": 10,
        "n": 0,
        "oracle": 0,
        "closed_form": 99,
    }



def test_verify_samples_mismatches_in_n_then_base_order(capsys, monkeypatch):
    # the oracle streams one base at a time; the sample keeps the (n, base) order
    real = cli.z_base
    monkeypatch.setattr(cli, "z_base", lambda b, n: real(b, n) + (n >= 3))
    code, out, _ = run(capsys, "verify", "--bases", "2..30", "--n-max", "10", "--format", "json")
    rec = OutputRecord.from_json(out.strip())
    assert code == 3
    assert rec.results["checked"] == 29 * 11 and rec.results["mismatches"] == 29 * 8 == 232
    sample = rec.results["mismatch_sample"]
    assert [(m["n"], m["base"]) for m in sample] == [(3, b) for b in range(2, 22)]
    assert all(m["closed_form"] == m["oracle"] + 1 for m in sample)


# --- format selection -------------------------------------------------------


def test_env_var_sets_default_format(capsys, monkeypatch):
    monkeypatch.setenv(cli.FORMAT_ENV_VAR, "json")
    _, out, _ = run(capsys, "zeros", "--base", "10", "25")
    assert out.startswith("{")


def test_flag_overrides_env_var(capsys, monkeypatch):
    monkeypatch.setenv(cli.FORMAT_ENV_VAR, "json")
    _, out, _ = run(capsys, "zeros", "--base", "10", "25", "--format", "text")
    assert out == "6\n"


def test_bad_env_format_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv(cli.FORMAT_ENV_VAR, "yaml")
    code, out, err = run(capsys, "zeros", "--base", "10", "25")
    assert code == 1 and out == "" and "yaml" in err


@pytest.mark.parametrize("command", [["jumps", "--base", "2", "--to", "4"], ["member", "--base", "2", "3"], ["density", "-p", "2", "-k", "2"], ["verify", "--bases", "10", "--n-max", "2"]])
def test_bfile_rejected_outside_sequences(capsys, command):
    code, _, err = run(capsys, *command, "--format", "bfile")
    assert code == 1
    assert "bfile" in err


# --- usage errors -----------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["zeros", "--base", "10", "5..2"],
        ["zeros", "--base", "10", "2..x"],
        ["zeros", "--base", "1", "5"],
        ["zeros", "--base", "10", "--", "-3"],
        ["zeros", "--base", "10"],
        ["member", "--base", "10"],
        ["families", "prop3b", "-p", "2", "-n", "3"],
        ["families", "cor3", "-q", "3", "--as-printed", "--verify"],
        ["families", "cor2", "-p", "2", "-k", "3"],
        ["density", "-p", "2"],
        ["density", "-p", "2", "-k", "2", "-N", "5"],
        ["verify", "--bases", "1", "--n-max", "4"],
        ["verify", "--bases", "10", "--n-max", "-1"],
        ["nonsense"],
    ],
)
def test_usage_errors_exit_1(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err != ""


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["gaps", "--base", "10", "--max", "-1"],
        ["jumps", "--base", "10", "--from", "5", "--to", "1"],
        ["jumps", "--base", "10", "--from", "-5", "--to", "1"],
        ["zeros", "--base", "10", "3", "-5"],
        ["zeros", "--base", "10", "3", "5..2"],
        ["zeros", "--base", "10", "3", "2..x"],
        ["zeros", "--base", "10", "3", "x"],
    ],
)
def test_refused_range_command_writes_nothing(capsys, argv, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == 1 and out == ""
    assert err.startswith("usage error: ")


@pytest.mark.parametrize("k", ["0", "-1"])
def test_density_k_below_1_names_k(capsys, k):
    code, out, err = run(capsys, "density", "-p", "2", "-k", k)
    assert code == 1 and out == ""
    assert err == f"usage error: -k must be >= 1, got {k}\n"


def test_verify_base_set_cap(capsys):
    cap = cli.MAX_VERIFY_BASES
    code, out, _ = run(capsys, "verify", "--bases", f"2..{cap + 1}", "--n-max", "0")
    assert code == 0 and f"checked={cap} " in out
    start = time.perf_counter()
    for bases in [f"2..{cap + 2}", f"2..{cap // 2},{cap // 4}..{cap + 2}", "2..1000000000000"]:
        code, out, err = run(capsys, "verify", "--bases", bases, "--n-max", "0")
        assert code == 1 and out == ""
        assert err == f"usage error: --bases names more than {cap} bases\n"
    assert time.perf_counter() - start < 1.0
    code, _, err = run(capsys, "verify", "--bases", "1..1000000000000", "--n-max", "0")
    assert code == 1 and err == "usage error: base must be >= 2, got 1\n"


def test_verify_work_budget(capsys, monkeypatch):
    # the budget is on len(bases) * (n_max + 1)**2; at the edge the run passes
    assert 35 * 2001**2 <= 35 * 6001**2 <= cli.MAX_VERIFY_WORK < 100000 * 2001**2
    monkeypatch.setattr(cli, "MAX_VERIFY_WORK", 2 * 11**2)
    code, out, _ = run(capsys, "verify", "--bases", "2,3", "--n-max", "10")
    assert code == 0 and "checked=22 mismatches=0" in out
    for argv in [["--bases", "2..4", "--n-max", "10"], ["--bases", "2,3", "--n-max", "11"]]:
        code, out, err = run(capsys, "verify", *argv)
        assert code == 1 and out == "" and len(err.splitlines()) == 1
        assert err.startswith("usage error: verify work") and str(2 * 11**2) in err


def test_verify_over_the_work_budget_exits_1_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--bases", "2..100001")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    work, budget = 100000 * 2001**2, cli.MAX_VERIFY_WORK
    assert err == f"usage error: verify work bases * (n_max + 1)**2 = {work} is over {budget}\n"


def test_density_limit(capsys, monkeypatch):
    # criterion 9's N = 5**12 - 1 and the cap itself reach the count; one past the cap does not
    assert 5**12 - 1 <= cli.MAX_DENSITY_N
    real, calls = image.density_exact, []
    monkeypatch.setattr(image, "density_exact", lambda p, N: calls.append((p, N)) or real(2, 15))
    cap = cli.MAX_DENSITY_N
    for argv in [["-p", "5", "-k", "12"], ["-p", "2", "-N", str(cap)]]:
        assert run(capsys, "density", *argv)[0] == 0
    assert calls == [(5, 5**12 - 1), (2, cap)]
    code, out, err = run(capsys, "density", "-p", "2", "-N", str(cap + 1))
    assert code == 1 and out == "" and calls == [(5, 5**12 - 1), (2, cap)]
    assert err == f"usage error: density N is over {cap}, the limit of its O(N) count walk\n"


def test_density_limit_edge_by_k_and_N(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_DENSITY_N", 15)
    code, out, _ = run(capsys, "density", "-p", "2", "-k", "4")
    assert code == 0 and out == "p=2 N=15 a_exact=9 formula=10 ratio=3/5 divergence=true\n"
    for argv in [["-p", "2", "-k", "5"], ["-p", "3", "-k", "3"], ["-p", "2", "-N", "16"]]:
        code, out, err = run(capsys, "density", *argv)
        assert code == 1 and out == "" and len(err.splitlines()) == 1 and "over 15" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "-p", "2", "-N", str(10**40)],
        ["density", "-p", "2", "-k", "100000000"],
        ["member", "--base", "3", str(2**5000)],
        ["member", "--base", "3", str(10**4000)],
    ],
)
def test_over_the_limit_exits_1_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == "" and len(err.splitlines()) == 1


def test_member_bit_cap(capsys, monkeypatch):
    # a z of MAX_MEMBER_BITS bits reaches the inversion; one bit more does not
    cap = cli.MAX_MEMBER_BITS
    real, calls = image.in_image, []
    monkeypatch.setattr(image, "in_image", lambda b, z: calls.append(z) or real(b, 5))
    assert run(capsys, "member", "--base", "3", str(2**cap - 1))[0] == 0
    code, out, err = run(capsys, "member", "--base", "3", str(2**cap))
    assert calls == [2**cap - 1] and code == 1 and out == ""
    assert err == f"usage error: member z has {cap + 1} bits, over {cap}\n"
    monkeypatch.setattr(image, "in_image", real)
    monkeypatch.setattr(cli, "MAX_MEMBER_BITS", 4)
    assert run(capsys, "member", "--base", "10", "15") == (0, "15 member witness=65\n", "")
    code, out, err = run(capsys, "member", "--base", "10", "16")
    assert code == 1 and out == "" and err == "usage error: member z has 5 bits, over 4\n"


def test_family_above_size_cap_exits_1_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "families", "cor3", "-q", "100003")
    assert time.perf_counter() - start < 0.5
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and "cap" in err


def test_family_precondition_exits_4(capsys):
    code, _, err = run(capsys, "families", "prop7", "-p", "2", "-r", "2", "-k", "2")
    assert code == 4
    assert "precondition" in err


def test_failed_family_or_density_check_exits_3(capsys, monkeypatch):
    real_run = image._run
    monkeypatch.setattr(
        image,
        "_run",
        lambda part, l, e, top, length, verify: real_run(part, l, e, top + 1, length + 1, verify),
    )
    code, out, err = run(capsys, "families", "prop3a", "-p", "2", "-n", "3", "--verify")
    assert code == 3 and out == ""
    assert err.startswith("verification failed:") and len(err.splitlines()) == 1
    real_count = image._count_attained
    monkeypatch.setattr(image, "_count_attained", lambda p, N: real_count(p, N) + 1)
    code, out, err = run(capsys, "density", "-p", "2", "-k", "4")
    assert code == 3 and out == ""
    assert err.startswith("verification failed:") and len(err.splitlines()) == 1


def test_internal_fault_exits_5(capsys, monkeypatch):
    def broken(b, n):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "z_base", broken)
    code, out, err = run(capsys, "zeros", "--base", "10", "25")
    assert code == 5 and out == ""
    assert err == "internal error: KeyError: 'lost'\n"


def test_pseudoprime_family_parameter_exits_1(capsys):
    code, out, err = run(capsys, "families", "prop3a", "-p", "318665857834031151167461", "-n", "2")
    assert code == 1
    assert out == ""
    assert "prime" in err


def test_prime_parameter_at_primality_bound_exits_1(capsys):
    code, out, err = run(capsys, "families", "prop3a", "-p", "3317044064679887385961981", "-n", "2")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1


# --- end-to-end process tests ----------------------------------------------


def test_cold_import_and_small_density_leave_numpy_unloaded():
    # 2**21 - 1 is the largest density job of the walk benchmark; no size loads numpy
    for N in ("15", "2**21 - 1"):
        script = (
            "import sys\n"
            "import factzeros.cli\n"
            "from factzeros import density_exact\n"
            f"density_exact(2, {N})\n"
            "print('numpy' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "False\n"


_HEAVY = ["dataclasses", "argparse", "inspect", "fractions", "json", "csv", "numpy"]
_LIBRARY = ["factzeros.image", "factzeros.jumps", "factzeros.oracle"]


@pytest.mark.parametrize(
    "argv, loaded, unloaded",
    [
        (["zeros", "--base", "10", "25"], [], _HEAVY + _LIBRARY),
        (
            ["gaps", "--base", "10", "--max", "40"],
            ["factzeros.image"],
            ["factzeros.jumps", "factzeros.oracle", "json", "csv", "argparse"],
        ),
        (["member", "--base", "10", "6"], ["factzeros.image"], ["factzeros.jumps", "argparse"]),
        (["density", "-p", "2", "-k", "3"], ["factzeros.image"], ["factzeros.jumps", "argparse"]),
        (
            ["families", "prop3a", "-p", "2", "-n", "5", "--verify"],
            ["factzeros.image"],
            ["factzeros.jumps", "factzeros.oracle", "argparse"],
        ),
        (["zeros", "--base", "10", "25", "--format", "json"], ["json"], ["csv", "argparse"]),
        (
            ["verify", "--bases", "10", "--n-max", "5", "--format", "csv"],
            ["factzeros.oracle", "csv"],
            ["json", "argparse"],
        ),
        # not plain (an attached, shortened flag): argparse reads it
        (["zeros", "--ba=10", "25"], ["argparse"], _LIBRARY),
    ],
)
def test_command_loads_only_what_it_runs(argv, loaded, unloaded):
    script = (
        "import sys\n"
        "import factzeros.cli as cli\n"
        f"code = cli.main({argv!r})\n"
        "sys.stdout.flush()\n"
        f"print([m for m in {loaded + unloaded!r} if m in sys.modules], file=sys.stderr)\n"
        "raise SystemExit(code)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == repr(loaded)


def test_non_plain_line_prints_what_its_plain_form_prints():
    argparse_read = run_process("zeros", "--ba=10", "25")
    plain = run_process("zeros", "--base", "10", "25")
    assert argparse_read.returncode == plain.returncode == 0
    assert argparse_read.stdout == plain.stdout == "6\n"


@pytest.mark.parametrize("argv", [["-h"], ["zeros", "-h"]])
def test_help_exits_0_with_usage(argv):
    proc = run_process(*argv)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("usage: factzeros")


def test_exit_codes_through_real_processes():
    assert run_process("zeros", "--base", "10", "25").returncode == 0
    assert run_process("zeros", "--base", "0", "25").returncode == 1
    assert run_process("member", "--base", "2", "2").returncode == 2
    assert run_process("families", "prop7", "-p", "2", "-r", "2", "-k", "2").returncode == 4


def test_verify_mismatch_through_real_process():
    script = (
        "import factzeros.cli as c\n"
        "c.z_base = lambda b, n: 99\n"
        "raise SystemExit(c.main(['verify', '--bases', '10', '--n-max', '3']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 3


def test_verify_past_the_point_query_bound_ends_quickly():
    # the oracle carries n!/b**e along n, so verify is not held to oracle.N_MAX
    start = time.perf_counter()
    proc = run_process("verify", "--bases", "2..36", "--n-max", "3000")
    assert proc.returncode == 0, proc.stderr
    assert "checked=105035 mismatches=0" in proc.stdout
    assert time.perf_counter() - start < 10


def test_console_output_matches_in_process():
    proc = run_process("gaps", "--base", "2", "--max", "15")
    assert proc.returncode == 0
    assert proc.stdout == "2\n5\n6\n9\n12\n13\n14\n"


def test_gaps_stream_into_a_closed_pipe():
    # builds no list: the first gaps of an astronomically long answer come at once
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "factzeros", "gaps", "--base", "10", "--max", str(10**18)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        lines = [proc.stdout.readline() for _ in range(3)]
        proc.stdout.close()  # the reader goes away, as `head -n 3` does
        code = proc.wait(timeout=10)
        err = proc.stderr.read()
    finally:
        proc.kill()
        proc.stderr.close()
    assert lines == ["5\n", "11\n", "17\n"]
    assert code == 0 and err == ""
    assert time.perf_counter() - start < 10


def test_bfile_golden_is_byte_exact():
    proc = subprocess.run(
        [sys.executable, "-m", "factzeros", "zeros", "--base", "10", "0..30", "--format", "bfile"],
        capture_output=True,
    )
    golden = (GOLDEN / "b10_zeros_0_30.txt").read_bytes()
    assert proc.returncode == 0
    assert proc.stdout == golden
    assert b"\r" not in proc.stdout
    assert max(proc.stdout) < 128  # pure ASCII


# name -> (argv, exit code); each case runs in every format its command
# accepts, and its output must equal tests/golden/<name>.<format> byte for byte
GOLDEN_CASES = {
    "zeros": (["zeros", "--base", "12", "0..20", "25"], 0),
    "jumps": (["jumps", "--base", "12", "--from", "10", "--to", "60"], 0),
    "member": (["member", "--base", "10", "6"], 0),
    "non_member": (["member", "--base", "10", "5"], 2),
    "gaps": (["gaps", "--base", "6", "--max", "40"], 0),
    "families": (["families", "prop3b", "-p", "3", "-n", "4", "-k", "2"], 0),
    "families_verify": (
        ["families", "prop8", "-p", "5", "-r", "2", "-l", "4", "-k", "3", "--verify"], 0,
    ),
    "density": (["density", "-p", "3", "-k", "3"], 0),
    "verify": (["verify", "--bases", "2..6,10", "--n-max", "20"], 0),
}
GOLDEN_RUNS = [
    (name, fmt)
    for name, (argv, _) in GOLDEN_CASES.items()
    for fmt in cli.FORMATS
    if fmt != "bfile" or argv[0] in cli.SEQUENCE_COMMANDS
]


@pytest.mark.parametrize("name, fmt", GOLDEN_RUNS)
def test_every_command_and_format_matches_its_golden_file(name, fmt):
    argv, code = GOLDEN_CASES[name]
    proc = subprocess.run(
        [sys.executable, "-m", "factzeros", *argv, "--format", fmt], capture_output=True
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == (GOLDEN / f"{name}.{fmt}").read_bytes()


def test_json_round_trips_across_commands(capsys):
    commands = [
        ["zeros", "--base", "10", "0..40"],
        ["jumps", "--base", "12", "--to", "80"],
        ["member", "--base", "10", "5"],
        ["member", "--base", "2", "3"],
        ["gaps", "--base", "2", "--max", "15"],
        ["families", "prop3b", "-p", "3", "-n", "4", "-k", "2", "--verify"],
        ["families", "cor3", "-q", "5"],
        ["density", "-p", "3", "-k", "3"],
        ["verify", "--bases", "2..6", "--n-max", "25"],
    ]
    seen = 0
    for argv in commands:
        _, out, _ = run(capsys, *argv, "--format", "json")
        for line in out.splitlines():
            assert OutputRecord.from_json(line).to_json() == line
            seen += 1
    assert seen > 60
