"""A fixed, generated list of rejected ``cflab`` command lines.

Each ``cflab verify`` option gets an empty value, a non-number, non-finite
values, an out-of-range value, a wrong count of values and a missing value;
each expression error class gets one ``--f``; and the list adds the lines
that argparse rejects before any family runs (``--=1``, an unknown command or
family, a missing or wrong case).  ``rejected_lines.json`` beside this file
holds each line's exit code and one-line stderr; ``test_cli`` runs every
line and compares.  After a deliberate change of a message, regenerate it:

    PYTHONPATH=src python tests/rejected_lines.py > tests/rejected_lines.json
"""

import contextlib
import io
import json
import sys

# The arguments before an option's own: its family, and a case or an --n
# that the option's counts depend on.
_PREFIXES = {
    "first": [["first"], ["first", "--n=2"]],
    "second": [["second"]],
    "third": [["third", "A"]],
    "necessary": [["necessary", "D"], ["necessary", "E"]],
    "fibration": [["fibration"]],
}

# (prefix index, option, out-of-range values, wrong-count value) per family.
_OPTIONS = {
    "first": [(0, "--n", ("3",), "1,2"), (0, "--f", ("exp(x)^0.5",), "x2"),
              (1, "--f", ("x3",), "x"), (0, "--z", ("1e300",), "0.1,0.2,0.3"),
              (1, "--z", ("1e300,0,0,0",), "0.2,0"), (0, "--eps", ("0",), "0.5,0.5"),
              (0, "--nodes", ("3",), "16,16"), (1, "--nodes", ("4",), "16,16"),
              (0, "--tol", ("0",), "1e-8,1e-8")],
    "second": [(0, "--f", ("1/(x-0.3)",), "x2"), (0, "--z", ("1e300",), "0.3,0,5,5"),
               (0, "--radii", ("0",), "0.4,0.4"),
               (0, "--nodes", ("100000000",), "16,16"),
               (0, "--tol", ("-1",), "1e-8,1e-8")],
    "third": [(0, "--a", ("1e308,1e308",), "1,0,7"), (0, "--f", ("1/x",), "x2"),
              (0, "--nodes", ("3",), "16,4"), (0, "--tol", ("0",), "1,1")],
    "necessary": [(0, "--eps", ("1",), "0.5,0.5"), (1, "--radii", ("0",), "0.5,0.5,0.5"),
                  (0, "--nodes", ("3",), "16,16,16"), (0, "--tol", ("0",), "1,1")],
    "fibration": [(0, "--count", ("0", "100001"), "1,2")],
}

# Options of every family, given on its first prefix; --seed takes any int.
_COMMON = [("--seed", (), "1,2"), ("--format", ("xml",), "json,csv")]

_NON_FINITE = ("nan", "inf", "-inf")

# One --f of each expression error class, on ``verify second`` (a variable out
# of range is among the options' lines): the parse errors first, then the
# poles and overflows that evaluation finds.
EXPRESSIONS = [
    "x$", "(x", "x)", "(" * 101 + "x" + ")" * 101, "x^0.5", "x^" + "9" * 400,
    "2^2^99", "y", "x+", "+".join(["x"] * 150),
    "+".join(["*".join(["x"] * 12)] * 50), "1/(x-x)", "(x-x)^-1",
    "exp(exp(exp(exp(x))))*1e308", "1e400",
]


def _option_lines(prefix, option, out_of_range, wrong_count):
    lines = [[*prefix, f"{option}="], [*prefix, f"{option}=q"]]
    lines += [[*prefix, f"{option}={value}"] for value in _NON_FINITE]
    lines += [[*prefix, f"{option}={value}"] for value in (*out_of_range, wrong_count)]
    return lines + [[*prefix, option]]


def lines() -> list[list[str]]:
    """Every rejected command line of the list, in order."""
    argvs = []
    for family, options in _OPTIONS.items():
        prefixes = _PREFIXES[family]
        for index, option, out_of_range, wrong_count in options:
            argvs += [["verify", *line] for line in _option_lines(
                prefixes[index], option, out_of_range, wrong_count)]
        for option, out_of_range, wrong_count in _COMMON:
            argvs += [["verify", *line] for line in _option_lines(
                prefixes[0], option, out_of_range, wrong_count)]
        argvs.append(["verify", *prefixes[0], "--=1"])
    argvs += [["verify", "second", "--out="], ["verify", "second", "--out=."],
              ["verify", "second", "--out"]]
    argvs += [["verify", "second", f"--f={f}", "--radii=0.7", "--nodes=16"]
              for f in EXPRESSIONS]
    argvs.append(["verify", "second", "--f", "x$"])
    argvs += [["verify", "third"], ["verify", "third", "C"], ["verify", "third", "B", "--a=0"],
              ["verify", "necessary", "D", "--radii=0.5"],
              ["verify", "necessary", "E", "--eps=0.5"],
              ["verify", "identities", "nope"], ["verify", "identities", "--seed=x"],
              ["verify", "identities", "--=1"]]
    argvs += [["--=1"], ["verify", "--=1"], ["frobnicate"], ["verify"], ["verify", "nope"],
              ["suite", "--seed="], ["suite", "--seed=x"], ["suite", "--seed=nan"],
              ["suite", "--seed=1,2"], ["suite", "--skip="], ["suite", "--skip=nope"],
              ["suite", "--format=xml"], ["suite", "--format="], ["suite", "--=1"]]
    return argvs


def outcome(run_cli, argv) -> dict:
    """``argv`` with the exit code and stderr of ``run_cli(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(list(argv))
    return {"argv": list(argv), "code": code, "stderr": err.getvalue()}


if __name__ == "__main__":
    from cflab.cli import run_cli

    entries = (json.dumps(outcome(run_cli, argv)) for argv in lines())
    sys.stdout.write("[\n" + ",\n".join(entries) + "\n]\n")
