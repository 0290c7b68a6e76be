"""Command-line front end.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
parse errors.  Diagnostics go to stderr; reports go to stdout or ``--out``.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import __version__, casebook, report
from .casebook import RunConfig
from .errors import CflabError, InputError
from .exprlang import parse_expr

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# Default test function of ``verify first``, per dimension n.
_FIRST_DEFAULT_F = {1: "exp(x)+x^2", 2: "x1^2*x2+3"}


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise InputError(f"{what} must be finite, got {value!r}")
    return value


def _parse_floats(text: str, what: str) -> tuple[float, ...]:
    try:
        values = tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise InputError(f"bad {what}: {exc}") from None
    if not values:
        raise InputError(f"empty {what}")
    return tuple(_finite(v, what) for v in values)


def _parse_complex_list(text: str, what: str) -> tuple[complex, ...]:
    values = list(_parse_floats(text, what))
    if len(values) % 2:
        values.append(0.0)
    return tuple(complex(values[i], values[i + 1])
                 for i in range(0, len(values), 2))


def _parse_nodes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise InputError(f"bad --nodes: {exc}") from None
    if not sizes or any(n < 4 for n in sizes):
        raise InputError("node counts must be integers >= 4")
    return sizes


class _Parser(argparse.ArgumentParser):  # subcommand parsers share the class
    def error(self, message):  # a usage error is one line, exit 2
        self.exit(EXIT_USAGE, f"cflab: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process-wide parser, built on first use and shared afterwards.

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

    p_first = vsub.add_parser("first", help="reproducing-kernel integral")
    p_first.add_argument("--n", type=int, choices=(1, 2), default=1)
    p_first.add_argument("--f", default=None,
                         help="holomorphic test function (default: "
                              f"{_FIRST_DEFAULT_F[1]} for n = 1, "
                              f"{_FIRST_DEFAULT_F[2]} for n = 2)")
    p_first.add_argument("--z", default=None, help="base point re,im[,re,im]")
    p_first.add_argument("--eps", type=float, default=0.7)
    p_first.add_argument("--nodes", default=None)
    p_first.add_argument("--tol", type=float, default=None)

    p_second = vsub.add_parser("second", help="small-circle residue form")
    p_second.add_argument("--f", default="exp(x)")
    p_second.add_argument("--z", default="0.3,0")
    p_second.add_argument("--radii", default="0.4", help="residue circle radius")
    p_second.add_argument("--nodes", default="128")
    p_second.add_argument("--tol", type=float, default=None)

    p_third = vsub.add_parser("third", help="path integral of the residue representative")
    p_third.add_argument("case", choices=("A", "B"))
    p_third.add_argument("--a", default="0", help="parameter a for case A (re[,im])")
    p_third.add_argument("--f", default="exp(x)")
    p_third.add_argument("--nodes", default="16")
    p_third.add_argument("--tol", type=float, default=None)

    p_nec = vsub.add_parser("necessary", help="obstruction torus integrals")
    p_nec.add_argument("case", choices=("D", "E"))
    p_nec.add_argument("--eps", type=float, default=0.5)
    p_nec.add_argument("--radii", default="0.5,0.5")
    p_nec.add_argument("--nodes", default="128,128")
    p_nec.add_argument("--tol", type=float, default=None)

    p_ident = vsub.add_parser("identities", help="structural identity suite")
    p_ident.add_argument("ids", nargs="*", default=[],
                         help=f"subset of {', '.join(casebook.IDENTITY_IDS)}")

    p_fib = vsub.add_parser("fibration", help="Example C2 fibre checks")
    p_fib.add_argument("--count", type=int, default=20)

    for sp in (p_first, p_second, p_third, p_nec, p_ident, p_fib):
        sp.add_argument("--seed", type=int, default=7)
        sp.add_argument("--format", choices=("table", "json", "csv"),
                        default="table")
        sp.add_argument("--out", default=None)

    suite = sub.add_parser("suite", help="run the full verification battery")
    suite.add_argument("--seed", type=int, default=7)
    suite.add_argument("--workers", type=int, default=1)
    suite.add_argument("--skip", action="append", default=[],
                       help="drop checks whose id or example group matches")
    suite.add_argument("--format", choices=("table", "json", "csv"),
                       default="table")
    suite.add_argument("--out", default=None)
    return parser


def _default_tol(args, fallback):
    if args.tol is None:
        return fallback
    if _finite(args.tol, "--tol") <= 0:
        raise InputError("tolerance must be positive")
    return args.tol


def _run_verify(args) -> list[casebook.CheckReport]:
    if args.which == "first":
        n = args.n
        f = parse_expr(args.f if args.f is not None else _FIRST_DEFAULT_F[n], n)
        z = _parse_complex_list(args.z, "--z") if args.z else \
            ((0.3 + 0.1j,) if n == 1 else (0.2 + 0j, -0.1 + 0j))
        if len(z) != n:
            raise InputError(f"--z needs {n} complex coordinates")
        nodes = _parse_nodes(args.nodes) if args.nodes else None
        if nodes is not None and len(nodes) == 1 and n == 2:
            nodes = (nodes[0] // 2, nodes[0], nodes[0])
        tol = _default_tol(args, 1e-10 if n == 1 else 1e-6)
        return [casebook.first_formula(n, f, z, _finite(args.eps, "--eps"),
                                       quad=nodes, tol=tol)]
    if args.which == "second":
        f = parse_expr(args.f, 1)
        z = _parse_complex_list(args.z, "--z")[0]
        r = _parse_floats(args.radii, "--radii")[0]
        nodes = _parse_nodes(args.nodes)[0]
        return [casebook.second_formula_n1(
            f, z, r, nodes=nodes, tol=_default_tol(args, 1e-10))]
    if args.which == "third":
        f = parse_expr(args.f, 1)
        a = _parse_complex_list(args.a, "--a")[0] if args.case == "A" else None
        nodes = _parse_nodes(args.nodes)[0]
        return [casebook.third_formula_case(
            args.case, f, a=a, nodes=nodes, tol=_default_tol(args, 1e-10))]
    if args.which == "necessary":
        nodes = _parse_nodes(args.nodes)
        if len(nodes) == 1:
            nodes = (nodes[0], nodes[0])
        radii = _parse_floats(args.radii, "--radii")
        if len(radii) == 1:
            radii = (radii[0], radii[0])
        return [casebook.necessary_condition_case(
            args.case, eps=_finite(args.eps, "--eps"), radii=radii, quad=nodes,
            tol=_default_tol(args, 1e-8))]
    if args.which == "identities":
        ids = args.ids or [None]
        out = []
        for ident in ids:
            out.extend(casebook.identity_suite(ident, seed=args.seed))
        return out
    if args.which == "fibration":
        return [casebook.fibration_check_C2(seed=args.seed, count=args.count)]
    raise InputError(f"unknown verification {args.which!r}")


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    seed = getattr(args, "seed", 7)
    try:
        if args.command == "suite":
            config = RunConfig(seed=args.seed, workers=args.workers,
                               skip=tuple(args.skip))
            checks = casebook.full_report(config)
            if not checks:
                raise InputError("--skip removed every check")
        else:
            checks = _run_verify(args)
    except CflabError as exc:
        print(f"cflab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = report.render(checks, args.format, __version__, seed)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if all(c.passed for c in checks) else EXIT_CHECK_FAILED


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
