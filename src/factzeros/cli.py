"""Command-line front end with machine-readable output.

Every command emits one record per result line in the chosen format: `text`
for humans, `json` for one object per line, `csv` with a header row, and
`bfile` ("index value" pairs, the plain-text integer-sequence convention)
for the sequence-shaped commands zeros, gaps, and families.  All numbers
are decimal and arbitrary precision.  Ranges are written a..b and include
both endpoints.

Exit status contract: 0 success (and member), 1 usage error, 2 non-member,
3 verification mismatch or failed check, 4 family precondition failure, 5 internal error.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple
from collections.abc import Iterable
from functools import lru_cache
from types import SimpleNamespace

from .errors import PreconditionError, VerificationError
from .zcount import BaseSpec, _check_n, z_base

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NON_MEMBER = 2
EXIT_MISMATCH = 3
EXIT_PRECONDITION = 4
EXIT_INTERNAL = 5

FORMATS = ("text", "json", "csv", "bfile")
FORMAT_ENV_VAR = "FACTZEROS_FORMAT"
SEQUENCE_COMMANDS = ("zeros", "gaps", "families")  # the commands bfile can render

_MISMATCH_SAMPLE_CAP = 20
MAX_VERIFY_BASES = 10**5  # the most bases one verify run takes
MAX_VERIFY_WORK = 10**10  # len(bases) * (n_max + 1)**2: the oracle's cost, 1.1-1.5 ns a unit
MAX_DENSITY_N = 250_000_000  # density's count walk costs 60-80 ns per unit of N; 5**12 - 1 passes
MAX_MEMBER_BITS = 5_000  # bits of member's z: the gallop takes about 16 s at the cap in base 3


class OutputRecord(namedtuple("OutputRecord", "schema_version command inputs results")):
    """One result line: fixed envelope around a command-specific payload."""

    __slots__ = ()

    def to_json(self) -> str:
        """Deterministic one-line JSON: sorted keys, no locale formatting."""
        import json

        return json.dumps(self._asdict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> OutputRecord:
        import json

        obj = json.loads(line)
        return cls(obj["schema_version"], obj["command"], obj["inputs"], obj["results"])


class _UsageError(Exception):
    pass


def _parse_range(text: str) -> tuple[int, int]:
    """An integer or an inclusive a..b range."""
    lo_s, dots, hi_s = text.partition("..")
    try:
        lo, hi = int(lo_s), int(hi_s if dots else lo_s)
    except ValueError:
        raise ValueError(f"expected an integer or a..b range, got {text!r}") from None
    if lo > hi:
        raise ValueError(f"range {text!r} is reversed")
    return lo, hi


def _parse_base_set(text: str) -> list[int]:
    """Comma-separated integers and a..b ranges, deduped and sorted.

    Each token is checked from its endpoints before its bases are built, so
    the set never holds more than twice MAX_VERIFY_BASES.
    """
    bases: set[int] = set()
    for token in text.split(","):
        lo, hi = _parse_range(token.strip())
        if lo < 2:
            raise ValueError(f"base must be >= 2, got {lo}")
        if hi - lo < MAX_VERIFY_BASES:
            bases.update(range(lo, hi + 1))
        if hi - lo >= MAX_VERIFY_BASES or len(bases) > MAX_VERIFY_BASES:
            raise ValueError(f"--bases names more than {MAX_VERIFY_BASES} bases")
    return sorted(bases)


# ---------------------------------------------------------------------------
# output

def _emit(args, csv_columns: list[str], lines: Iterable[tuple]) -> None:
    """Write each (inputs, results, text, csv_row) line in args.format.

    The json record is built here from args.command; the bfile line of a
    sequence command is the first two csv fields, and the parser has refused
    bfile for the other commands.
    """
    out, command = sys.stdout, args.command
    if args.format == "text":
        for _, _, text, _ in lines:
            out.write(text + "\n")
    elif args.format == "json":
        for inputs, results, _, _ in lines:
            out.write(OutputRecord(SCHEMA_VERSION, command, inputs, results).to_json() + "\n")
    elif args.format == "csv":
        import csv

        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(csv_columns)
        writer.writerows(row for _, _, _, row in lines)
    else:
        for _, _, _, row in lines:
            out.write(f"{row[0]} {row[1]}\n")


def _components_text(components: list[dict], sep: str) -> str:
    return sep.join(f"{c['prime']}^{c['exponent']}:{c['amplitude']}" for c in components)


# ---------------------------------------------------------------------------
# commands


def cmd_zeros(args) -> int:
    spec = BaseSpec.of(args.base)
    ranges = [_parse_range(token) for token in args.n]  # every token is refused before output
    for lo, _ in ranges:
        _check_n(lo)

    def lines():
        for lo, hi in ranges:
            bare = lo == hi
            for n in range(lo, hi + 1):
                z = z_base(spec, n)
                text = f"{z}" if bare else f"{n} {z}"
                yield {"base": spec.base, "n": n}, {"zeros": z}, text, [n, z]

    _emit(args, ["n", "zeros"], lines())
    return EXIT_OK


def cmd_jumps(args) -> int:
    from .jumps import jump_stream

    spec = BaseSpec.of(args.base)
    records = jump_stream(spec, args.n_lo, args.n_hi)
    inputs = {"base": spec.base, "from": args.n_lo, "to": args.n_hi}

    def lines():
        for rec in records:
            loc, amp = rec.location, rec.composite_amplitude
            parts = sorted(rec.per_component.items())
            components = [{"prime": p, "exponent": r, "amplitude": a} for (p, r), a in parts]
            results = {"location": loc, "composite_amplitude": amp, "per_component": components}
            text = f"{loc} {amp} {_components_text(components, ',')}"
            yield inputs, results, text, [loc, amp, _components_text(components, ";")]

    _emit(args, ["location", "composite_amplitude", "components"], lines())
    return EXIT_OK


def cmd_member(args) -> int:
    from .image import in_image

    spec = BaseSpec.of(args.base)
    if args.z.bit_length() > MAX_MEMBER_BITS:
        raise ValueError(f"member z has {args.z.bit_length()} bits, over {MAX_MEMBER_BITS}")
    res = in_image(spec, args.z)
    if res.member:
        results = {"member": True, "witness": res.witness, "bracket": None}
        txt = f"{args.z} member witness={res.witness}"
        row = [args.z, True, res.witness, "", "", ""]
    else:
        # rendered n is the last argument before the skip: count jumps from
        # z_below at n to z_above at n+1
        n_star, below, above = res.bracket
        bracket = {"n": n_star - 1, "z_below": below, "z_above": above}
        results = {"member": False, "witness": None, "bracket": bracket}
        txt = f"{args.z} non-member bracket n={n_star - 1} below={below} above={above}"
        row = [args.z, False, "", n_star - 1, below, above]
    columns = ["z", "member", "witness", "bracket_n", "z_below", "z_above"]
    _emit(args, columns, [({"base": spec.base, "z": args.z}, results, txt, row)])
    return EXIT_OK if res.member else EXIT_NON_MEMBER


def cmd_gaps(args) -> int:
    from .image import _gaps

    spec = BaseSpec.of(args.base)
    _check_n(args.z_max)
    inputs = {"base": spec.base, "z_max": args.z_max}
    lines = (  # streamed: each gap is written as soon as it is found
        (inputs, {"index": i, "gap": gap}, str(gap), [i, gap])
        for i, gap in enumerate(_gaps(spec, args.z_max), start=1)
    )
    _emit(args, ["index", "gap"], lines)
    return EXIT_OK


# family name -> its parameters; the generator is image.family_<name>
_FAMILIES = {
    "prop3a": ("p", "n"),
    "prop3b": ("p", "n", "k"),
    "prop7": ("p", "r", "k"),
    "cor2": ("p", "k"),
    "cor3": ("q",),
    "prop8": ("p", "r", "l", "k"),
}


def cmd_families(args) -> int:
    from . import image

    generate = getattr(image, f"family_{args.family}")
    params = {name: getattr(args, name) for name in _FAMILIES[args.family]}
    for name, value in params.items():
        if value is None:
            raise ValueError(f"family {args.family} requires -{name}")
    if args.as_printed:
        if args.family != "cor3":
            raise ValueError("--as-printed only applies to cor3")
        params["as_printed"] = True
    # verify=True raises VerificationError unless every value is proved unattained
    values = generate(**params, verify=args.verify)
    inputs = {"family": args.family, **params}

    def lines():
        for i, v in enumerate(values, start=1):
            results = {"index": i, "value": v}
            txt = str(v)
            if args.verify:
                results["member"] = False
                txt += " non-member"
            yield inputs, results, txt, list(results.values())

    _emit(args, ["index", "value"] + (["member"] if args.verify else []), lines())
    return EXIT_OK


def cmd_density(args) -> int:
    from .image import density_exact

    if args.k is not None and args.k < 1:
        raise ValueError(f"-k must be >= 1, got {args.k}")
    k_cap = MAX_DENSITY_N.bit_length() + 1  # p**k_cap - 1 > MAX_DENSITY_N: p**k is never built big
    n_upper = args.N if args.k is None else args.p ** min(args.k, k_cap) - 1
    if n_upper > MAX_DENSITY_N:
        raise ValueError(f"density N is over {MAX_DENSITY_N}, the limit of its O(N) count walk")
    report = density_exact(args.p, n_upper)
    num, den = report.ratio.numerator, report.ratio.denominator
    results = {
        "a_exact": report.a_exact,
        "a_paper_formula": report.a_paper_formula,
        "ratio": {"num": num, "den": den},
        "divergence": report.divergence,
    }
    formula_txt = "-" if report.a_paper_formula is None else str(report.a_paper_formula)
    txt = (
        f"p={report.p} N={report.N} a_exact={report.a_exact} formula={formula_txt} "
        f"ratio={num}/{den} divergence={str(report.divergence).lower()}"
    )
    row = [args.p, n_upper, report.a_exact, report.a_paper_formula, num, den, report.divergence]
    columns = ["p", "N", "a_exact", "a_paper_formula", "ratio_num", "ratio_den", "divergence"]
    _emit(args, columns, [({"p": args.p, "k": args.k, "N": n_upper}, results, txt, row)])
    return EXIT_OK


def cmd_verify(args) -> int:
    from heapq import nsmallest

    from .oracle import _zeros_along

    bases = _parse_base_set(args.bases)
    if args.n_max < 0:
        raise ValueError(f"--n-max must be >= 0, got {args.n_max}")
    work = len(bases) * (args.n_max + 1) ** 2
    if work > MAX_VERIFY_WORK:
        raise ValueError(f"verify work bases * (n_max + 1)**2 = {work} is over {MAX_VERIFY_WORK}")
    specs = [BaseSpec.of(b) for b in bases]  # a bad base is refused before any check
    checked = len(bases) * (args.n_max + 1)
    mismatches = 0

    def found():  # one oracle stream per base, one base at a time: one n!/b**e is alive
        nonlocal mismatches
        for i, (b, spec) in enumerate(zip(bases, specs)):
            for n, expected in enumerate(_zeros_along(b, args.n_max)):
                got = z_base(spec, n)
                if got != expected:
                    mismatches += 1
                    yield n, i, expected, got

    sample = [  # the first mismatches in (n, base) order
        {"base": bases[i], "n": n, "oracle": expected, "closed_form": got}
        for n, i, expected, got in nsmallest(_MISMATCH_SAMPLE_CAP, found())
    ]
    results = {"checked": checked, "mismatches": mismatches, "mismatch_sample": sample}
    txt = f"bases={args.bases} n_max={args.n_max} checked={checked} mismatches={mismatches}"
    for m in sample:
        txt += (
            f"\nMISMATCH base={m['base']} n={m['n']} "
            f"oracle={m['oracle']} closed_form={m['closed_form']}"
        )
    row = [",".join(str(b) for b in bases), args.n_max, checked, mismatches]
    columns = ["bases", "n_max", "checked", "mismatches"]
    _emit(args, columns, [({"bases": bases, "n_max": args.n_max}, results, txt, row)])
    return EXIT_MISMATCH if mismatches else EXIT_OK


# ---------------------------------------------------------------------------
# parser
#
# argparse defines the grammar.  A plain line, the shape every documented
# example has, is read by _read_plain without importing argparse; argparse
# reads every other line, prints help and words each parse error.

_REQUIRED = object()  # default of an option that must be given

# command -> (handler, positional, options, one_of).  An option is
# flag -> (dest, type, default): type int or str converts the value, a tuple
# lists its choices and bool is a flag without a value.  positional is
# (dest, type, takes-many) or None; exactly one of the flags in one_of must
# be given.
_BASE = ("base", int, _REQUIRED)
_COMMANDS = {
    "zeros": (cmd_zeros, ("n", str, True), {"--base": _BASE}, ()),
    "jumps": (
        cmd_jumps, None,
        {"--base": _BASE, "--from": ("n_lo", int, 0), "--to": ("n_hi", int, _REQUIRED)}, (),
    ),
    "member": (cmd_member, ("z", int, False), {"--base": _BASE}, ()),
    "gaps": (cmd_gaps, None, {"--base": _BASE, "--max": ("z_max", int, _REQUIRED)}, ()),
    "families": (
        cmd_families,
        ("family", tuple(sorted(_FAMILIES)), False),
        {
            **{f"-{name}": (name, int, None) for name in "pqnkrl"},
            "--as-printed": ("as_printed", bool, False),
            "--verify": ("verify", bool, False),
        },
        (),
    ),
    "density": (
        cmd_density, None,
        {"-p": ("p", int, _REQUIRED), "-k": ("k", int, None), "-N": ("N", int, None)}, ("-k", "-N"),
    ),
    "verify": (
        cmd_verify, None, {"--bases": ("bases", str, "2..36"), "--n-max": ("n_max", int, 2000)}, (),
    ),
}


def _convert(kind, text: str):
    value = int(text) if kind is int else text
    if isinstance(kind, tuple) and value not in kind:
        raise ValueError(f"invalid choice: {text!r}")
    return value


def _read_plain(command: str, argv: list[str], flags: dict) -> SimpleNamespace | None:
    """A plain command line's namespace, or None for argparse to read the line.

    Plain: every token is an exact flag, the value right after a valued flag
    (not starting with "-") or a positional; the positionals form one run; the
    required flags are given and every value converts.  argparse reads such a
    line the same way.
    """
    handler, positional, _, one_of = _COMMANDS[command]
    values = {dest: default for dest, _, default in flags.values()}
    given, texts, split = set(), [], False
    tokens = iter(argv)
    try:
        for token in tokens:
            if token in flags:
                dest, kind, _ = flags[token]
                text = "" if kind is bool else next(tokens, "-")  # "-" when the value is missing
                if text[:1] == "-":
                    return None
                values[dest] = True if kind is bool else _convert(kind, text)
                given.add(token)
                split = bool(texts)  # a later positional would start a second run
            elif token[:1] == "-" or split:
                return None
            else:
                texts.append(token)
        if positional is None:
            if texts:
                return None
        else:
            dest, kind, many = positional
            if not texts or len(texts) > 1 and not many:
                return None
            values[dest] = texts if many else _convert(kind, texts[0])
    except ValueError:
        return None
    if _REQUIRED in values.values() or one_of and len(given.intersection(one_of)) != 1:
        return None
    return SimpleNamespace(command=command, func=handler, **values)


@lru_cache(maxsize=None)
def _argparse_parser(format_option: tuple):
    """argparse's parser for the grammar of _COMMANDS, built once per --format option."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse would exit 2, the non-member status
            raise _UsageError(message)

    def typed(kind):
        if isinstance(kind, tuple):
            return {"choices": kind}
        return {"type": int} if kind is int else {}

    parser = Parser(prog="factzeros", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=Parser)
    for command, (handler, positional, options, one_of) in _COMMANDS.items():
        p = sub.add_parser(command)
        p.set_defaults(func=handler)
        if positional is not None:
            dest, kind, many = positional
            p.add_argument(dest, nargs="+" if many else None, **typed(kind))
        group = p.add_mutually_exclusive_group(required=True) if one_of else None
        for flag, (dest, kind, default) in {**options, "--format": format_option}.items():
            (group if flag in one_of else p).add_argument(
                flag, dest=dest, action="store_true" if kind is bool else "store",
                default=default, required=default is _REQUIRED, **typed(kind),
            )
    return parser


def parse_args(argv: list[str]):
    """The command line as a namespace, or None once help is printed.

    Every refusal, the output format's included, is a _UsageError raised before any work.
    """
    format_option = ("format", FORMATS, os.environ.get(FORMAT_ENV_VAR, "text"))
    args = None
    if argv and argv[0] in _COMMANDS:
        flags = {**_COMMANDS[argv[0]][2], "--format": format_option}
        args = _read_plain(argv[0], argv[1:], flags)
    if args is None:
        try:
            args = _argparse_parser(format_option).parse_args(argv)
        except SystemExit:  # help was printed; every parse error raised _UsageError
            return None
    if args.format not in FORMATS:  # a --format value passed already; the default did not
        raise _UsageError(f"argument ${FORMAT_ENV_VAR}: invalid choice: {args.format!r}")
    if args.format == "bfile" and args.command not in SEQUENCE_COMMANDS:
        raise _UsageError("format bfile is only available for zeros, gaps, and families")
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if args is None:
        return EXIT_OK
    try:
        return args.func(args)
    except PreconditionError as e:
        print(f"precondition failed: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationError as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return EXIT_MISMATCH
    except BrokenPipeError:
        return EXIT_OK
    except Exception as e:
        # any other exception is a fault in the program, not in the input
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:  # console script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
