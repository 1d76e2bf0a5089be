"""cli.parse_args against a hand-built argparse parser, kept here as the reference.

parse_args reads a plain line itself and hands every other line to an
argparse parser built from its command table; both routes must read argv as
the reference does.
"""

import argparse
import contextlib
import io
import os
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import factzeros.cli as cli
from factzeros.cli import (
    _FAMILIES,
    FORMAT_ENV_VAR,
    FORMATS,
    SEQUENCE_COMMANDS,
    _UsageError,
    cmd_density,
    cmd_families,
    cmd_gaps,
    cmd_jumps,
    cmd_member,
    cmd_verify,
    cmd_zeros,
)

# ---------------------------------------------------------------------------
# argparse written out by hand, as cli.py had it before its command table


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2); the exit contract reserves 2 for non-member
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="factzeros", description=__doc__.splitlines()[0])
    default_format = os.environ.get(FORMAT_ENV_VAR, "text")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=FORMATS,
            default=default_format,
            help=f"output format (default from ${FORMAT_ENV_VAR} or text)",
        )

    p = sub.add_parser("zeros", help="trailing zeros of n! in a base")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("n", nargs="+", help="one or more n values or a..b ranges")
    add_format(p)
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("jumps", help="points where the count increases")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--from", dest="n_lo", type=int, default=0)
    p.add_argument("--to", dest="n_hi", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_jumps)

    p = sub.add_parser("member", help="is z ever attained as a count?")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("z", type=int)
    add_format(p)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("gaps", help="all values never attained, up to a bound")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--max", dest="z_max", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_gaps)

    p = sub.add_parser("families", help="parametric families of non-attained values")
    p.add_argument("family", choices=sorted(_FAMILIES))
    p.add_argument("-p", type=int)
    p.add_argument("-q", type=int)
    p.add_argument("-n", type=int)
    p.add_argument("-k", type=int)
    p.add_argument("-r", type=int)
    p.add_argument("-l", type=int)
    p.add_argument("--as-printed", action="store_true", help="cor3 only: undivided variant")
    p.add_argument("--verify", action="store_true", help="annotate each value with membership")
    add_format(p)
    p.set_defaults(func=cmd_families)

    p = sub.add_parser("density", help="how much of [0, N] the image covers")
    p.add_argument("-p", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("-k", type=int, help="use N = p**k - 1")
    group.add_argument("-N", type=int)
    add_format(p)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("verify", help="closed forms against the factorial oracle")
    p.add_argument("--bases", default="2..36", help="comma-separated bases and a..b ranges")
    p.add_argument("--n-max", dest="n_max", type=int, default=2000)
    add_format(p)
    p.set_defaults(func=cmd_verify)

    return parser


# ---------------------------------------------------------------------------


_PARSERS = {}  # FACTZEROS_FORMAT value -> the parser built under it, which reads it once


def reference(argv, env):
    """argparse's reading, plus the format checks parse_args makes at parse time."""
    with _environment(env), contextlib.redirect_stdout(io.StringIO()):
        if env not in _PARSERS:
            _PARSERS[env] = build_parser()
        try:
            args = _PARSERS[env].parse_args(argv)
        except _UsageError:
            return "refused"
        except SystemExit as e:
            return f"help, exit {e.code}"
    if args.format not in FORMATS or (
        args.format == "bfile" and args.command not in SEQUENCE_COMMANDS
    ):
        return "refused"
    return vars(args)


def table(argv, env):
    with _environment(env), contextlib.redirect_stdout(io.StringIO()) as out:
        try:
            args = cli.parse_args(argv)
        except _UsageError:
            return "refused"
    if args is None:
        assert out.getvalue().startswith("usage: factzeros")
        return "help, exit 0"
    return vars(args)


@contextlib.contextmanager
def _environment(value):
    saved = os.environ.pop(FORMAT_ENV_VAR, None)
    if value is not None:
        os.environ[FORMAT_ENV_VAR] = value
    try:
        yield
    finally:
        os.environ.pop(FORMAT_ENV_VAR, None)
        if saved is not None:
            os.environ[FORMAT_ENV_VAR] = saved


# values: mostly plain ints, then negative numbers, ranges, choices, bad ints
# and tokens that look like options
ODD = ["-3", "-.5", "1_000", " 5", "x", "1.5", "", "2..9", "9..2", "json", "csv", "bfile",
       "yaml", "prop3a", "cor3", "prop9", "-x", "--", "-h", "a b"]
REQUIRED = {"zeros": ["--base"], "jumps": ["--base", "--to"], "member": ["--base"],
            "gaps": ["--base", "--max"], "density": ["-p"]}
OPTIONAL = {"jumps": ["--from"], "families": ["-p", "-q", "-n", "-k", "-r", "-l", "--as-printed",
            "--verify"], "density": ["-k", "-N"], "verify": ["--bases", "--n-max"]}
FLAGS = {"--as-printed", "--verify"}
NOISE = ["--", "-h", "--help", "--he", "-hp3", "-hx", "--bogus", "-x", "--format", "-5", "7"]
ENVS = st.sampled_from([None, "json", "yaml", "bfile"])


def value(rng, odd=ODD):
    return str(rng.randint(0, 3000)) if rng.randrange(7) else rng.choice(odd)


def attached(rng, empty=True):
    # attached values (--base=v, -pv) skip "--": argparse reads --base=-- as an
    # empty list, which every command then fails on as an internal error
    while (v := value(rng)) == "--" or not (v or empty):
        pass
    return v


def option_tokens(rng, flag):
    """One option in one of the forms argparse accepts, or with its value missing."""
    prefix = flag[: rng.randint(3, len(flag))] if flag.startswith("--") else flag
    if flag in FLAGS:
        return [rng.choice([flag, prefix, f"{prefix}={attached(rng)}"])]
    form = rng.choice(["split", "split", "equals", "glued", "missing"])
    if form == "equals":
        return [f"{prefix}={attached(rng)}"]
    if form == "glued" and not flag.startswith("--"):
        return [flag + attached(rng, empty=False)]  # "" would make it the missing form
    return [prefix] if form == "missing" else [prefix, value(rng)]


def command_line(rng):
    command = rng.choice([*REQUIRED, "families", "verify"] * 3 + ["nonsense"])
    flags = [flag for flag in REQUIRED.get(command, []) if rng.randint(0, 9)]
    if command in OPTIONAL:
        flags += [rng.choice(OPTIONAL[command]) for _ in range(rng.randint(0, 3))]
    pieces = [option_tokens(rng, flag) for flag in flags]
    if rng.random() < 0.5:
        pieces.append(["--format", rng.choice([*FORMATS, *FORMATS, "yaml"])])
    if command == "families":
        family = [*sorted(_FAMILIES), "prop9"]
        pieces += [[rng.choice(family)] for _ in range(rng.choice([1, 1, 1, 0, 2]))]
    elif command in ("zeros", "member"):
        pieces += [[value(rng)] for _ in range(rng.choice([1, 1, 1, 0, 2, 3]))]
    if not rng.randint(0, 4):
        pieces.append([rng.choice(NOISE)])
    tokens = [t for piece in rng.sample(pieces, len(pieces)) for t in piece]
    if not rng.randint(0, 9):
        tokens.insert(0, rng.choice(["-h", "--bogus", "--he", "-hh", "-hx", "--"]))
        return tokens if command == "nonsense" else [tokens[0], command, *tokens[1:]]
    return tokens if command == "nonsense" else [command, *tokens]


@settings(max_examples=2000, deadline=None)
@given(st.integers(0, 2**64), ENVS)
def test_table_parser_reads_argv_as_argparse_did(seed, env):
    argv = command_line(random.Random(seed))
    assert table(argv, env) == reference(argv, env)


# plain lines: exact flags, separate values that do not start with "-"; the
# positionals may repeat a flag's value, and may be split by an option
PLAIN_ODD = ["x", "", "1.5", " 5", "2..9", "1_000", "json", "yaml", "prop3a", "prop9"]


def plain_line(rng):
    command = rng.choice([*REQUIRED, "families", "verify"])
    flags = [flag for flag in REQUIRED.get(command, []) if rng.randint(0, 9)]
    if command == "density":
        flags.append(rng.choice(OPTIONAL[command]))
    if command in OPTIONAL:
        flags += [rng.choice(OPTIONAL[command]) for _ in range(rng.choice([0, 0, 1, 2]))]
    pieces = [[flag] if flag in FLAGS else [flag, value(rng, PLAIN_ODD)] for flag in flags]
    if rng.random() < 0.5:
        pieces.append(["--format", rng.choice([*FORMATS, *FORMATS, "yaml"])])
    rng.shuffle(pieces)
    if command == "families":
        family = sorted(_FAMILIES) * 9 + ["prop9"]
        run = [rng.choice(family) for _ in range(rng.choice([1] * 8 + [0, 2]))]
    elif command in ("zeros", "member"):
        used = [piece[1] for piece in pieces if len(piece) == 2]
        count = rng.choice([1] * 8 + [0, 2, 3] if command == "member" else [1, 2, 3, 0])
        run = [rng.choice(used) if used and rng.random() < 0.3 else value(rng, PLAIN_ODD)
               for _ in range(count)]
    else:
        run = []
    if len(run) > 1 and pieces and rng.random() < 0.2:  # split the run by an option
        i = rng.randrange(len(pieces))
        pieces[i : i + 1] = [run[:1], pieces[i], run[1:]]
    else:
        pieces.insert(rng.randint(0, len(pieces)), run)
    return [command, *(t for piece in pieces for t in piece)]


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2**64), ENVS)
def test_plain_lines_read_as_argparse_reads_them(seed, env):
    argv = plain_line(random.Random(seed))
    assert table(argv, env) == reference(argv, env)


def test_plain_reader_answers_most_plain_lines(monkeypatch):
    answers = []
    real = cli._read_plain
    monkeypatch.setattr(cli, "_read_plain", lambda *a: answers.append(real(*a)) or answers[-1])
    for seed in range(300):
        table(plain_line(random.Random(seed)), None)
    assert len(answers) == 300
    assert 2 * sum(a is not None for a in answers) > len(answers)


def test_reference_route_agrees_on_fixed_forms():
    cases = [
        ["zeros", "--base", "10", "25"],
        ["zeros", "--ba=10", "1..3", "--f", "csv"],
        ["density", "-p2", "-k3"],
        ["density", "-p=2", "-N", "-3"],
        ["families", "-p", "2", "prop3a", "-n3", "--ver"],
        ["member", "--base", "10", "--", "-5"],
        ["member", "--base", "10", "5", "--"],
        ["zeros", "1", "--base", "10", "2"],
        ["jumps", "--base", "10", "--f", "0", "--to", "5"],
        ["-h"],
        ["families", "-hp3"],
        ["zeros", "--base", "x", "-h"],
        ["zeros", "0", "--base", "0", "0"],
        ["verify", "--bases", "-x"],
    ]
    outcomes = [table(argv, None) for argv in cases]
    assert outcomes == [reference(argv, None) for argv in cases]
    assert outcomes[1]["n"] == ["1..3"] and outcomes[1]["format"] == "csv"
    assert outcomes[3]["N"] == -3 and outcomes[4]["verify"] is True
    assert outcomes[5]["z"] == -5 and outcomes[6]["z"] == 5
    assert outcomes[7] == outcomes[8] == outcomes[11] == outcomes[12] == outcomes[13] == "refused"
    assert outcomes[9] == outcomes[10] == "help, exit 0"
