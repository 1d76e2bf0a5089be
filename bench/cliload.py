"""The `cli` workload: a seeded sequence of `factzeros` commands, one process each.

Every command runs as `python -m factzeros ...` with the interpreter the
benchmark runs under, so each pays interpreter start, the package import and a
cold factorization, as a user's shell call does.  The answer check compares
stdout, parsed per format, with records built from the library's own answers,
and the exit status with the documented table.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from workloads import LOOKUP_POOL, P61, P64, SEMI64, family_jobs, log_uniform

FORMATS = ("text", "json", "csv", "bfile")
SEQUENCE_COMMANDS = ("zeros", "gaps", "families")
EXIT_OK, EXIT_USAGE, EXIT_NON_MEMBER, EXIT_PRECONDITION = 0, 1, 2, 4

SMALL_BASES = (2, 3, 5, 7, 6, 10, 12, 16, 30, 360, 1024, 30030)
WIDE_BASES = (P61, P64, SEMI64[0] * SEMI64[1], 2**63)
FAMILY_PARAMS = {
    "prop3a": ("p", "n"),
    "prop3b": ("p", "n", "k"),
    "prop7": ("p", "r", "k"),
    "cor2": ("p", "k"),
    "cor3": ("q",),
    "prop8": ("p", "r", "l", "k"),
}
COMMAND_TIMEOUT_S = 60
TRACE_CHILD = Path(__file__).resolve().parent / "tracechild.py"
ROOT = TRACE_CHILD.parents[1]


def _base(rng: random.Random) -> int:
    # a quarter of the base-taking commands use a 64-bit base (cold factorize)
    return rng.choice(WIDE_BASES) if rng.random() < 0.25 else rng.choice(SMALL_BASES)


# parameter sets whose precondition fails (exit status 4): 2 does not divide
# 1 + 2 + 4 + 8, and l must be below p
PRECONDITION_FAILURES = [("prop7", (2, 2, 2)), ("prop8", (3, 2, 4, 2))]


def _family(rng: random.Random) -> tuple[str, dict]:
    family, values = rng.choice(family_jobs(rng) + PRECONDITION_FAILURES)
    return family, dict(zip(FAMILY_PARAMS[family], values))


def generate(rng: random.Random, count: int) -> list[dict]:
    """Blocks of fourteen commands, two of each subcommand, formats cycled."""
    ops: list[dict] = []
    while len(ops) < count:
        formats = list(FORMATS) * 3 + [rng.choice(FORMATS), rng.choice(FORMATS)]
        rng.shuffle(formats)
        block = []
        for _ in range(2):
            tokens = []
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.5:
                    tokens.append(str(log_uniform(rng, 12)))
                else:
                    lo = rng.randint(0, 10**6)
                    tokens.append(f"{lo}..{lo + rng.randint(0, 20)}")
            block.append(["zeros", "--base", str(_base(rng)), *tokens])
            lo = rng.randint(0, 10**6)
            block.append(["jumps", "--base", str(_base(rng)), "--from", str(lo),
                          "--to", str(lo + rng.randint(50, 300))])
            block.append(["member", "--base", str(_base(rng)), str(log_uniform(rng, 12))])
            block.append(["gaps", "--base", str(_base(rng)), "--max", str(rng.randint(50, 300))])
            family, params = _family(rng)
            argv = ["families", family]
            for name, value in params.items():
                argv += [f"-{name}", str(value)]
            if rng.random() < 0.5:
                argv.append("--verify")
            block.append(argv)
            p = rng.choice((2, 3, 5, 7))
            if rng.random() < 0.5:
                block.append(["density", "-p", str(p), "-k", str(rng.randint(2, 5))])
            else:
                block.append(["density", "-p", str(p), "-N", str(rng.randint(10, 3000))])
            if rng.random() < 0.5:
                lo = rng.randint(2, 30)
                bases = f"{lo}..{lo + rng.randint(0, 10)}"
            else:
                bases = ",".join(str(_base(rng)) for _ in range(3))
            block.append(["verify", "--bases", bases, "--n-max", str(rng.randint(20, 150))])
        for argv, fmt in zip(block, formats):
            argv += ["--format", fmt]
        ops.extend({"argv": argv} for argv in block)
    return ops[:count]


# ---------------------------------------------------------------------------
# expected output, rebuilt from the library's answers


def _record(command: str, inputs: dict, results: dict) -> dict:
    return {"schema_version": "1", "command": command, "inputs": inputs, "results": results}


def _parse(argv: list[str]) -> tuple[str, dict, str]:
    command, rest = argv[0], argv[1:]
    fmt = rest[rest.index("--format") + 1]
    opts: dict = {"positional": []}
    i = 0
    while i < len(rest):
        tok = rest[i]
        if tok == "--format":
            i += 2
        elif tok == "--verify":
            opts["verify"] = True
            i += 1
        elif tok.startswith("-"):
            opts[tok.lstrip("-")] = rest[i + 1]
            i += 2
        else:
            opts["positional"].append(tok)
            i += 1
    return command, opts, fmt


def _range(token: str) -> tuple[int, int]:
    lo, _, hi = token.partition("..")
    return int(lo), int(hi or lo)


def _base_set(text: str) -> list[int]:
    out: set[int] = set()
    for token in text.split(","):
        lo, hi = _range(token)
        out.update(range(lo, hi + 1))
    return sorted(out)


def expected(fz, argv: list[str]) -> tuple[int, list, list, list, list | None]:
    """Exit status, then the records as json objects, text lines, csv rows and bfile lines."""
    command, o, fmt = _parse(argv)
    objs: list[dict] = []
    text: list[str] = []
    rows: list[list] = []
    bfile: list[str] | None = [] if command in SEQUENCE_COMMANDS else None
    code = EXIT_OK

    if command == "zeros":
        b = int(o["base"])
        rows.append(["n", "zeros"])
        for token in o["positional"]:
            lo, hi = _range(token)
            for n in range(lo, hi + 1):
                z = fz.z_base(b, n)
                objs.append(_record("zeros", {"base": b, "n": n}, {"zeros": z}))
                text.append(f"{z}" if lo == hi else f"{n} {z}")
                rows.append([n, z])
                bfile.append(f"{n} {z}")
    elif command == "jumps":
        b, lo, hi = int(o["base"]), int(o["from"]), int(o["to"])
        rows.append(["location", "composite_amplitude", "components"])
        for rec in fz.jump_stream(b, lo, hi):
            comps = [{"prime": p, "exponent": r, "amplitude": a}
                     for (p, r), a in sorted(rec.per_component.items())]
            parts = [f"{c['prime']}^{c['exponent']}:{c['amplitude']}" for c in comps]
            objs.append(_record("jumps", {"base": b, "from": lo, "to": hi}, {
                "location": rec.location,
                "composite_amplitude": rec.composite_amplitude,
                "per_component": comps,
            }))
            text.append(f"{rec.location} {rec.composite_amplitude} {','.join(parts)}")
            rows.append([rec.location, rec.composite_amplitude, ";".join(parts)])
    elif command == "member":
        b, z = int(o["base"]), int(o["positional"][0])
        res = fz.in_image(b, z)
        rows.append(["z", "member", "witness", "bracket_n", "z_below", "z_above"])
        if res.member:
            results = {"member": True, "witness": res.witness, "bracket": None}
            text.append(f"{z} member witness={res.witness}")
            rows.append([z, True, res.witness, "", "", ""])
        else:
            code = EXIT_NON_MEMBER
            n_star, below, above = res.bracket
            results = {"member": False, "witness": None,
                       "bracket": {"n": n_star - 1, "z_below": below, "z_above": above}}
            text.append(f"{z} non-member bracket n={n_star - 1} below={below} above={above}")
            rows.append([z, False, "", n_star - 1, below, above])
        objs.append(_record("member", {"base": b, "z": z}, results))
    elif command == "gaps":
        b, z_max = int(o["base"]), int(o["max"])
        rows.append(["index", "gap"])
        for i, g in enumerate(fz.gaps_up_to(b, z_max), start=1):
            objs.append(_record("gaps", {"base": b, "z_max": z_max}, {"index": i, "gap": g}))
            text.append(str(g))
            rows.append([i, g])
            bfile.append(f"{i} {g}")
    elif command == "families":
        family = o["positional"][0]
        params = {name: int(o[name]) for name in FAMILY_PARAMS[family]}
        verify = o.get("verify", False)
        try:
            values = getattr(fz, "family_" + family)(*params.values(), verify=verify)
        except fz.PreconditionError:
            return EXIT_PRECONDITION, [], [], [], []
        rows.append(["index", "value"] + (["member"] if verify else []))
        for i, v in enumerate(values, start=1):
            results = {"index": i, "value": v}
            if verify:
                results["member"] = False  # verify=True above raised if any was attained
            objs.append(_record("families", {"family": family, **params}, results))
            text.append(f"{v} non-member" if verify else str(v))
            rows.append([i, v] + ([False] if verify else []))
            bfile.append(f"{i} {v}")
    elif command == "density":
        p = int(o["p"])
        if "k" in o:
            k = int(o["k"])
            n_top = p**k - 1
        else:
            k, n_top = None, int(o["N"])
        rep = fz.density_exact(p, n_top)
        num, den = rep.ratio.numerator, rep.ratio.denominator
        objs.append(_record("density", {"p": p, "k": k, "N": n_top}, {
            "a_exact": rep.a_exact,
            "a_paper_formula": rep.a_paper_formula,
            "ratio": {"num": num, "den": den},
            "divergence": rep.divergence,
        }))
        formula = "-" if rep.a_paper_formula is None else str(rep.a_paper_formula)
        text.append(f"p={p} N={n_top} a_exact={rep.a_exact} formula={formula} "
                    f"ratio={num}/{den} divergence={str(rep.divergence).lower()}")
        rows.append(["p", "N", "a_exact", "a_paper_formula", "ratio_num", "ratio_den",
                     "divergence"])
        rows.append([p, n_top, rep.a_exact, "" if formula == "-" else formula, num, den,
                     rep.divergence])
    elif command == "verify":
        bases, n_max = _base_set(o["bases"]), int(o["n-max"])
        checked = len(bases) * (n_max + 1)
        objs.append(_record("verify", {"bases": bases, "n_max": n_max},
                            {"checked": checked, "mismatches": 0, "mismatch_sample": []}))
        text.append(f"bases={o['bases']} n_max={n_max} checked={checked} mismatches=0")
        rows.append(["bases", "n_max", "checked", "mismatches"])
        rows.append([",".join(map(str, bases)), n_max, checked, 0])
    else:
        raise ValueError(f"unknown command {command}")

    if fmt == "bfile" and bfile is None:
        return EXIT_USAGE, [], [], [], []
    return code, objs, text, rows, bfile


def output_ok(fz, argv: list[str], returncode: int, stdout: str) -> bool:
    """stdout and exit status agree with what the library says the command prints."""
    code, objs, text, rows, bfile = expected(fz, argv)
    if returncode != code:
        return False
    if code in (EXIT_USAGE, EXIT_PRECONDITION):
        return stdout == ""
    fmt = argv[argv.index("--format") + 1]
    lines = stdout.splitlines()
    if stdout and not stdout.endswith("\n"):
        return False
    if fmt == "text":
        return lines == text
    if fmt == "json":
        return [json.loads(line) for line in lines] == objs
    if fmt == "csv":
        return list(csv.reader(io.StringIO(stdout))) == [[str(x) for x in row] for row in rows]
    return lines == bfile


class Cli:
    """Closed-loop client: the next command starts when the previous one has exited."""

    name = "cli"
    inputs_per_second = 10
    generate = staticmethod(generate)

    def __init__(self, fz) -> None:
        self.fz = fz
        self.env = dict(os.environ)
        self.env.pop("FACTZEROS_FORMAT", None)
        paths = [str(ROOT / "src"), self.env.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        self.prefix = [sys.executable, "-m", "factzeros"]
        self.trace_dir: str | None = None  # set: commands run traced, spans go here
        self.traced = 0

    def bases(self) -> dict[int, tuple]:
        return {b: LOOKUP_POOL[b] for b in SMALL_BASES + WIDE_BASES}

    def spawn(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(argv, capture_output=True, text=True, env=self.env,
                              cwd=ROOT, timeout=COMMAND_TIMEOUT_S)

    def traced_argv(self, argv: list[str]) -> list[str]:
        path = os.path.join(self.trace_dir, f"child-{self.traced}.trace")
        self.traced += 1
        return [sys.executable, str(TRACE_CHILD), path, *argv]

    def run(self, op):
        if self.trace_dir is None:
            cmd = self.prefix + op["argv"]
        else:
            cmd = self.traced_argv(op["argv"])
        proc = self.spawn(cmd)
        return proc.returncode, proc.stdout

    def check(self, op, result) -> bool:
        returncode, stdout = result
        return output_ok(self.fz, op["argv"], returncode, stdout)
