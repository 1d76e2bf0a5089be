"""Run one `factzeros` command with the layer tracer installed, then write its spans.

Usage: python tracechild.py TRACE_FILE COMMAND [ARGS...]

Stands in for `python -m factzeros COMMAND ARGS...` in the traced `cli` run:
same stdout, stderr and exit status, plus a span file the worker merges.
`cli.main` gets a span of its own, which gives the command's share of the
process time.
"""

import sys

from spans import CLI_MAIN, Tracer


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    import factzeros.cli as cli

    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.spanned(CLI_MAIN, cli.main)(argv)
        sys.stdout.flush()
    finally:
        tracer.uninstall()
        tracer.write(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
