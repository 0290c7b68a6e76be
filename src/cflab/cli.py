"""Command-line front end.

``cflab verify`` has one subcommand per :data:`cflab.casebook.VERIFY`
family, built from its record, and one generic :func:`cflab.casebook.verify`
call runs it; ``cflab suite`` runs the check table.

A ``cflab verify FAMILY ...`` line whose FAMILY names a family is parsed by
that family's parser alone, which sets ``command`` and ``which`` as the
subcommand parsers would: the two levels above it would classify every
argument again only to hand the rest down, which took about 60 % of the
parse of a short command.  Every other line, ``suite`` and a line that asks
for help above the family among them, goes through the whole tree.  The one
difference: ``verify FAMILY --=1`` is an ambiguous option among the family's
own options, where the top level listed ``--help, --version``.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
parse errors or any error a single ``verify`` family raises (one line, which
names the class of an error that is not a ``CflabError``).  Diagnostics go to
stderr; reports go to stdout or ``--out``.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__, casebook, report
from .errors import CflabError, InputError, PoleError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# argparse's reading of an option kind; casebook.verify converts the rest
_ARGPARSE = {"float": {"type": float}, "tol": {"type": float},
             "int": {"type": int}, "ids": {"nargs": "*"}}


class _Parser(argparse.ArgumentParser):  # subcommand parsers share the class
    def error(self, message):  # a usage error is one line, exit 2
        self.exit(EXIT_USAGE, f"cflab: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process-wide parser, built on first use and shared afterwards; its
    ``families`` maps each ``cflab verify`` family to its own parser.

    Parsing never mutates it: argparse copies an ``append`` default before
    appending, and the namespaces it returns are fresh.
    """
    parser = _Parser(
        prog="cflab",
        description="Verify the Cauchy-Fantappie representation formulas "
                    "and their example casebook numerically.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run one verification")
    vsub = verify.add_subparsers(dest="which", required=True)
    for name, family in casebook.VERIFY.items():
        sp = vsub.add_parser(name, help=family.help)
        for opt in family.options:
            sp.add_argument(opt.name, choices=opt.choices, **_ARGPARSE.get(opt.kind, {}),
                            help=opt.help and opt.help.format(opt.default))

    suite = sub.add_parser("suite", help="run the full verification battery")
    for sp in (*vsub.choices.values(), suite):
        sp.add_argument("--seed", type=int, default=casebook.SEED)
        if sp is suite:
            sp.add_argument("--skip", action="append", default=[],
                            help="drop checks whose id or example group matches")
        sp.add_argument("--format", choices=("table", "json", "csv"), default="table")
        sp.add_argument("--out", default=None)
    parser.families = dict(vsub.choices)
    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    family = len(argv) > 1 and argv[0] == "verify" and parser.families.get(argv[1])
    try:
        if family:
            args = family.parse_args(argv[2:], argparse.Namespace(command="verify",
                                                                  which=argv[1]))
        else:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if args.command == "suite":
            checks = casebook.full_report(args.seed, tuple(args.skip))
            if not checks:
                raise InputError("--skip removed every check")
        else:
            checks = casebook.verify(args.which, vars(args), args.seed)
    except Exception as exc:  # a fault of a single verify family too: one line
        message = str(exc) if isinstance(exc, CflabError) else f"{type(exc).__name__}: {exc}"
        # a pole off any grid (the expected value f(z), say) names its point
        if isinstance(exc, PoleError) and exc.point is not None and exc.param is None:
            message += f" at point {exc.point}"
        print(f"cflab: error: {message}", file=sys.stderr)
        return EXIT_USAGE
    text = report.render(checks, args.format, __version__, args.seed)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"cflab: error: cannot write --out {args.out}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return EXIT_OK if all(c.passed for c in checks) else EXIT_CHECK_FAILED


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
