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

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .image import (
    PreconditionError,
    VerificationError,
    density_exact,
    family_cor2,
    family_cor3,
    family_prop3a,
    family_prop3b,
    family_prop7,
    family_prop8,
    gaps_up_to,
    in_image,
)
from .jumps import jump_stream
from .oracle import OracleConfig, factorial_trailing_zeros
from .zcount import BaseSpec, z_base

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NON_MEMBER = 2
EXIT_MISMATCH = 3
EXIT_PRECONDITION = 4
EXIT_INTERNAL = 5

FORMATS = ("text", "json", "csv", "bfile")
FORMAT_ENV_VAR = "FACTZEROS_FORMAT"

_MISMATCH_SAMPLE_CAP = 20


@dataclass(frozen=True)
class OutputRecord:
    """One result line: fixed envelope around a command-specific payload."""

    schema_version: str
    command: str
    inputs: dict
    results: dict

    def to_json(self) -> str:
        """Deterministic one-line JSON: sorted keys, no locale formatting."""
        return json.dumps(
            {
                "schema_version": self.schema_version,
                "command": self.command,
                "inputs": self.inputs,
                "results": self.results,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, line: str) -> "OutputRecord":
        obj = json.loads(line)
        return cls(obj["schema_version"], obj["command"], obj["inputs"], obj["results"])


def make_record(command: str, inputs: dict, results: dict) -> OutputRecord:
    return OutputRecord(SCHEMA_VERSION, command, inputs, results)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2); the exit contract reserves 2 for non-member
    def error(self, message):
        raise _UsageError(message)


def _parse_range(text: str) -> tuple[int, int]:
    """An integer or an inclusive a..b range."""
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise ValueError(f"malformed range {text!r}; expected a..b") from None
        if lo > hi:
            raise ValueError(f"range {text!r} is reversed")
        return lo, hi
    try:
        n = int(text)
    except ValueError:
        raise ValueError(f"expected an integer or a..b range, got {text!r}") from None
    return n, n


def _parse_base_set(text: str) -> list[int]:
    """Comma-separated integers and a..b ranges, deduped and sorted."""
    bases: set[int] = set()
    for token in text.split(","):
        lo, hi = _parse_range(token.strip())
        bases.update(range(lo, hi + 1))
    out = sorted(bases)
    for b in out:
        if b < 2:
            raise ValueError(f"base must be >= 2, got {b}")
    if not out:
        raise ValueError("empty base set")
    return out


# ---------------------------------------------------------------------------
# output

Pair = tuple[OutputRecord, str]


def _write_stream(
    fmt: str,
    pairs: Iterable[Pair],
    *,
    csv_columns: list[str],
    csv_row: Callable[[OutputRecord], list],
    bfile_pair: Callable[[OutputRecord], tuple[int, int]] | None,
    out=None,
) -> None:
    out = out or sys.stdout
    if fmt == "text":
        for _, txt in pairs:
            out.write(txt + "\n")
    elif fmt == "json":
        for rec, _ in pairs:
            out.write(rec.to_json() + "\n")
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(csv_columns)
        for rec, _ in pairs:
            writer.writerow(csv_row(rec))
    elif fmt == "bfile":
        if bfile_pair is None:
            raise ValueError("format bfile is only available for zeros, gaps, and families")
        for rec, _ in pairs:
            index, value = bfile_pair(rec)
            out.write(f"{index} {value}\n")
    else:
        # argparse validates --format choices but not env-sourced defaults
        raise ValueError(f"unknown format {fmt!r}")


def _components_text(components: list[dict]) -> str:
    return ",".join(f"{c['prime']}^{c['exponent']}:{c['amplitude']}" for c in components)


# ---------------------------------------------------------------------------
# commands


def cmd_zeros(args) -> int:
    spec = BaseSpec.of(args.base)

    def pairs() -> Iterator[Pair]:
        for token in args.n:
            lo, hi = _parse_range(token)
            bare = lo == hi
            for n in range(lo, hi + 1):
                z = z_base(spec, n)
                rec = make_record("zeros", {"base": spec.base, "n": n}, {"zeros": z})
                yield rec, f"{z}" if bare else f"{n} {z}"

    _write_stream(
        args.format,
        pairs(),
        csv_columns=["n", "zeros"],
        csv_row=lambda r: [r.inputs["n"], r.results["zeros"]],
        bfile_pair=lambda r: (r.inputs["n"], r.results["zeros"]),
    )
    return EXIT_OK


def cmd_jumps(args) -> int:
    spec = BaseSpec.of(args.base)
    inputs = {"base": spec.base, "from": args.n_lo, "to": args.n_hi}

    def pairs() -> Iterator[Pair]:
        for rec in jump_stream(spec, args.n_lo, args.n_hi):
            components = [
                {"prime": p, "exponent": r, "amplitude": a}
                for (p, r), a in sorted(rec.per_component.items())
            ]
            out = make_record(
                "jumps",
                inputs,
                {
                    "location": rec.location,
                    "composite_amplitude": rec.composite_amplitude,
                    "per_component": components,
                },
            )
            yield out, (
                f"{rec.location} {rec.composite_amplitude} {_components_text(components)}"
            )

    _write_stream(
        args.format,
        pairs(),
        csv_columns=["location", "composite_amplitude", "components"],
        csv_row=lambda r: [
            r.results["location"],
            r.results["composite_amplitude"],
            ";".join(
                f"{c['prime']}^{c['exponent']}:{c['amplitude']}"
                for c in r.results["per_component"]
            ),
        ],
        bfile_pair=None,
    )
    return EXIT_OK


def cmd_member(args) -> int:
    spec = BaseSpec.of(args.base)
    res = in_image(spec, args.z)
    if res.member:
        results = {"member": True, "witness": res.witness, "bracket": None}
        txt = f"{args.z} member witness={res.witness}"
    else:
        # rendered n is the last argument before the skip: count jumps from
        # z_below at n to z_above at n+1
        n_star, below, above = res.bracket
        results = {
            "member": False,
            "witness": None,
            "bracket": {"n": n_star - 1, "z_below": below, "z_above": above},
        }
        txt = f"{args.z} non-member bracket n={n_star - 1} below={below} above={above}"
    rec = make_record("member", {"base": spec.base, "z": args.z}, results)
    _write_stream(
        args.format,
        [(rec, txt)],
        csv_columns=["z", "member", "witness", "bracket_n", "z_below", "z_above"],
        csv_row=lambda r: [
            r.inputs["z"],
            r.results["member"],
            r.results["witness"] if r.results["member"] else "",
            "" if r.results["member"] else r.results["bracket"]["n"],
            "" if r.results["member"] else r.results["bracket"]["z_below"],
            "" if r.results["member"] else r.results["bracket"]["z_above"],
        ],
        bfile_pair=None,
    )
    return EXIT_OK if res.member else EXIT_NON_MEMBER


def cmd_gaps(args) -> int:
    spec = BaseSpec.of(args.base)
    inputs = {"base": spec.base, "z_max": args.z_max}

    def pairs() -> Iterator[Pair]:
        for i, gap in enumerate(gaps_up_to(spec, args.z_max), start=1):
            rec = make_record("gaps", inputs, {"index": i, "gap": gap})
            yield rec, str(gap)

    _write_stream(
        args.format,
        pairs(),
        csv_columns=["index", "gap"],
        csv_row=lambda r: [r.results["index"], r.results["gap"]],
        bfile_pair=lambda r: (r.results["index"], r.results["gap"]),
    )
    return EXIT_OK


_FAMILIES = {
    "prop3a": (family_prop3a, ("p", "n")),
    "prop3b": (family_prop3b, ("p", "n", "k")),
    "prop7": (family_prop7, ("p", "r", "k")),
    "cor2": (family_cor2, ("p", "k")),
    "cor3": (family_cor3, ("q",)),
    "prop8": (family_prop8, ("p", "r", "l", "k")),
}


def cmd_families(args) -> int:
    generate, names = _FAMILIES[args.family]
    params = {}
    for name in names:
        value = getattr(args, name)
        if value is None:
            raise ValueError(f"family {args.family} requires -{name}")
        params[name] = value
    if args.as_printed:
        if args.family != "cor3":
            raise ValueError("--as-printed only applies to cor3")
        params["as_printed"] = True
    # verify=True raises VerificationError unless every value is proved unattained
    values = generate(**params, verify=args.verify)
    inputs = {"family": args.family, **params}

    def pairs() -> Iterator[Pair]:
        for i, v in enumerate(values, start=1):
            results = {"index": i, "value": v}
            txt = str(v)
            if args.verify:
                results["member"] = False
                txt += " non-member"
            yield make_record("families", inputs, results), txt

    _write_stream(
        args.format,
        pairs(),
        csv_columns=["index", "value"] + (["member"] if args.verify else []),
        csv_row=lambda r: list(r.results.values()),  # built in column order above
        bfile_pair=lambda r: (r.results["index"], r.results["value"]),
    )
    return EXIT_OK


def cmd_density(args) -> int:
    if args.k is not None:
        n_upper = args.p**args.k - 1
        inputs = {"p": args.p, "k": args.k, "N": n_upper}
    else:
        n_upper = args.N
        inputs = {"p": args.p, "k": None, "N": n_upper}
    report = density_exact(args.p, n_upper)
    results = {
        "a_exact": report.a_exact,
        "a_paper_formula": report.a_paper_formula,
        "ratio": {"num": report.ratio.numerator, "den": report.ratio.denominator},
        "divergence": report.divergence,
    }
    formula_txt = "-" if report.a_paper_formula is None else str(report.a_paper_formula)
    txt = (
        f"p={report.p} N={report.N} a_exact={report.a_exact} formula={formula_txt} "
        f"ratio={report.ratio.numerator}/{report.ratio.denominator} "
        f"divergence={str(report.divergence).lower()}"
    )
    rec = make_record("density", inputs, results)
    _write_stream(
        args.format,
        [(rec, txt)],
        csv_columns=["p", "N", "a_exact", "a_paper_formula", "ratio_num", "ratio_den", "divergence"],
        csv_row=lambda r: [
            r.inputs["p"],
            r.inputs["N"],
            r.results["a_exact"],
            "" if r.results["a_paper_formula"] is None else r.results["a_paper_formula"],
            r.results["ratio"]["num"],
            r.results["ratio"]["den"],
            r.results["divergence"],
        ],
        bfile_pair=None,
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    bases = _parse_base_set(args.bases)
    if args.n_max < 0:
        raise ValueError(f"--n-max must be >= 0, got {args.n_max}")
    config = OracleConfig(n_max=max(1, args.n_max))
    checked = 0
    mismatches = 0
    sample = []
    for n in range(args.n_max + 1):
        for b in bases:
            expected = factorial_trailing_zeros(b, n, config)
            got = z_base(b, n)
            checked += 1
            if got != expected:
                mismatches += 1
                if len(sample) < _MISMATCH_SAMPLE_CAP:
                    sample.append({"base": b, "n": n, "oracle": expected, "closed_form": got})
    inputs = {"bases": bases, "n_max": args.n_max}
    results = {"checked": checked, "mismatches": mismatches, "mismatch_sample": sample}
    txt = f"bases={args.bases} n_max={args.n_max} checked={checked} mismatches={mismatches}"
    for m in sample:
        txt += (
            f"\nMISMATCH base={m['base']} n={m['n']} "
            f"oracle={m['oracle']} closed_form={m['closed_form']}"
        )
    rec = make_record("verify", inputs, results)
    _write_stream(
        args.format,
        [(rec, txt)],
        csv_columns=["bases", "n_max", "checked", "mismatches"],
        csv_row=lambda r: [
            ",".join(str(b) for b in r.inputs["bases"]),
            r.inputs["n_max"],
            r.results["checked"],
            r.results["mismatches"],
        ],
        bfile_pair=None,
    )
    return EXIT_MISMATCH if mismatches else EXIT_OK


# ---------------------------------------------------------------------------
# parser


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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
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
