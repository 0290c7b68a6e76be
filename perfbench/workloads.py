"""The benchmark's workloads: seeded inputs and the operations that run them.

Each workload turns a seed into a fixed batch of operations, one *round*.
A run repeats the round, so every round does the same work and round times
can be compared with each other.

* ``suite``: ``cflab suite --seed S --format json``, one operation.  The
  product itself; the n = 2 residue-sphere grids dominate it.
* ``verify_mix``: short ``cflab verify`` command lines with tiny grids, where
  per-call cost (argument and expression parsing, form and cycle set-up,
  Gauss-Legendre rules, rendering) shows.
* ``pointwise``: the identity, transversality and fibration suites over
  consecutive seeds; scalar form evaluation and samplers, no quadrature.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import time
from dataclasses import dataclass
from typing import Callable

VERIFY_KINDS = ("first", "second", "third_A", "third_B")
VERIFY_NODES = (16, 24, 32, 48, 64, 96, 128)
VERIFY_FAMILIES = ("poly", "exp")
VERIFY_REPEATS = 10  # each (kind, nodes, family) cell appears this often
POINTWISE_FUNCS = ("identity_suite", "transversality_suite",
                   "fibration_check_C2")
POINTWISE_SEEDS = 60

_RUNTIME_RE = re.compile(r'("runtime_ms": )[-+0-9.eE]+')


@dataclass(frozen=True)
class Workload:
    """One round of operations and how to run and check each of them."""

    name: str
    ops: tuple
    run: Callable      # (cflab, op) -> raw output
    check: Callable    # (op, output) -> (ok, canonical text or failure reason)
    check_prefix: str  # checks whose integrals define exprlang.evals_per_point


@dataclass
class OpResult:
    ok: bool
    latency_s: float
    error: str = ""


@dataclass
class Round:
    results: list[OpResult]
    wall_s: float
    cpu_s: float
    digest: str


# ---------------------------------------------------------------- cli ops

def run_cli_op(cflab, argv):
    """Run one ``cflab`` command line in-process; return (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cflab.cli.run_cli(list(argv))
    return code, out.getvalue(), err.getvalue()


def normalize_report(text: str) -> str:
    """The JSON report with every ``runtime_ms`` value replaced by 0."""
    return _RUNTIME_RE.sub(r"\g<1>0", text)


def check_cli_output(argv, output):
    """Exit 0 and a non-empty JSON report in which every check passes."""
    code, out, err = output
    if code != 0:
        return False, f"exit {code}: {err.strip()[:200]}"
    try:
        payload = json.loads(out)
    except json.JSONDecodeError as exc:
        return False, f"bad JSON: {exc}"
    checks = payload.get("checks") or []
    failing = [str(c.get("id")) for c in checks if c.get("pass") is not True]
    if payload.get("all_pass") is not True or not checks or failing:
        return False, f"{len(checks)} checks, FAIL rows: {failing}"
    return True, normalize_report(out)


def suite_workload(seed: int) -> Workload:
    argv = ("suite", "--seed", str(seed), "--format", "json")
    return Workload("suite", (argv,), run_cli_op, check_cli_output,
                    check_prefix="first_n2_")


# ------------------------------------------------------------- verify_mix

def _num(rng: random.Random, scale: float) -> str:
    return f"({rng.uniform(-scale, scale):.4f}{rng.uniform(-scale, scale):+.4f}i)"


def _poly(rng: random.Random) -> str:
    degrees = sorted(rng.sample(range(9), rng.randint(1, 6)))
    return "+".join(_num(rng, 1.0) + ("" if k == 0 else "*x" if k == 1
                                      else f"*x^{k}") for k in degrees)


def _exp_family(rng: random.Random) -> str:
    terms = []
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(0, 2)
        power = "" if k == 0 else "*x" if k == 1 else f"*x^{k}"
        terms.append(f"{_num(rng, 1.0)}{power}*exp({_num(rng, 0.7)}*x)")
    return "+".join(terms)


def _verify_argv(rng: random.Random, kind: str, nodes: int, family: str):
    f = _poly(rng) if family == "poly" else _exp_family(rng)
    base = [f"--f={f}", f"--nodes={nodes}", "--format=json"]
    if kind == "first":
        return ("verify", "first", "--n=1",
                f"--z={rng.uniform(-0.5, 0.5):.6f},{rng.uniform(-0.5, 0.5):.6f}",
                f"--eps={rng.uniform(0.2, 0.8):.6f}", *base)
    if kind == "second":
        return ("verify", "second",
                f"--z={rng.uniform(-0.5, 0.5):.6f},{rng.uniform(-0.5, 0.5):.6f}",
                f"--radii={rng.uniform(0.2, 0.8):.6f}", *base)
    if kind == "third_A":
        return ("verify", "third", "A",
                f"--a={rng.uniform(-2, 2):.6f},{rng.uniform(-2, 2):.6f}", *base)
    return ("verify", "third", "B", *base)


def verify_mix_commands(seed: int) -> tuple[tuple[str, ...], ...]:
    """The round's command lines: every (kind, nodes, family) cell
    ``VERIFY_REPEATS`` times, with seeded values, in seeded order."""
    rng = random.Random(seed)
    cells = [(k, n, fam) for k in VERIFY_KINDS for n in VERIFY_NODES
             for fam in VERIFY_FAMILIES] * VERIFY_REPEATS
    rng.shuffle(cells)
    return tuple(_verify_argv(rng, *cell) for cell in cells)


def verify_mix_workload(seed: int) -> Workload:
    return Workload("verify_mix", verify_mix_commands(seed), run_cli_op,
                    check_cli_output, check_prefix="")


# -------------------------------------------------------------- pointwise

def pointwise_ops(seed: int) -> tuple[tuple[str, int], ...]:
    return tuple((fn, seed + k) for k in range(POINTWISE_SEEDS)
                 for fn in POINTWISE_FUNCS)


def run_pointwise_op(cflab, op):
    fn, seed = op
    result = getattr(cflab.casebook, fn)(seed=seed)
    return result if isinstance(result, list) else [result]


def check_pointwise_output(op, reports):
    """Every report passes; the canonical text is every field but runtime."""
    rows = [[r.id, repr(r.computed), repr(r.expected), repr(r.abs_error),
             repr(r.tol), r.passed, list(r.quad_sizes), r.params]
            for r in reports]
    failing = [r.id for r in reports if not r.passed]
    if not reports or failing:
        return False, f"{len(reports)} checks, FAIL rows: {failing}"
    return True, json.dumps(rows, sort_keys=True, default=repr)


def pointwise_workload(seed: int) -> Workload:
    return Workload("pointwise", pointwise_ops(seed), run_pointwise_op,
                    check_pointwise_output, check_prefix="")


WORKLOADS = {
    "suite": suite_workload,
    "verify_mix": verify_mix_workload,
    "pointwise": pointwise_workload,
}


# ------------------------------------------------------------------ rounds

def run_round(cflab, workload: Workload, clock, tracer=None) -> Round:
    """Run every operation of the round once.

    Only the program calls are timed; outputs are checked after the timed
    loop.  An operation that raises is a failed operation, never dropped.
    """
    raw = []
    t_start, cpu_start = clock(), time.process_time()
    for index, op in enumerate(workload.ops):
        span = None
        if tracer is not None:
            tracer.op = index
            span = tracer.open_span("op", {"index": index})
        t0 = clock()
        try:
            output, error = workload.run(cflab, op), ""
        except Exception as exc:  # a crash is a failed operation
            output, error = None, f"{type(exc).__name__}: {exc}"
        latency = clock() - t0
        if span is not None:
            tracer.close_span(span)
        raw.append((output, error, latency))
    wall_s, cpu_s = clock() - t_start, time.process_time() - cpu_start

    results = []
    digest = hashlib.sha256()
    for op, (output, error, latency) in zip(workload.ops, raw):
        ok, canonical = (False, error) if error else workload.check(op, output)
        digest.update(canonical.encode("utf-8") + b"\n")
        results.append(OpResult(ok, latency, "" if ok else canonical[:300]))
    return Round(results, wall_s, cpu_s, digest.hexdigest())
