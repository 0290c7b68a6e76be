"""Fixed-schema JSON / CSV / table rendering of check reports.

The JSON schema is part of the public interface: a top level
``{version, seed, all_pass, checks: [...]}`` whose check objects carry
exactly the fields ``{id, params, computed_re, computed_im, expected_re,
expected_im, abs_error, tol, pass, quad_sizes, runtime_ms}``.  Reports are
byte-identical across runs with the same configuration, apart from
``runtime_ms``.
"""

from __future__ import annotations

import csv
import io
import json

from .casebook import CheckReport

CSV_COLUMNS = ("id", "params", "computed_re", "computed_im", "expected_re",
               "expected_im", "abs_error", "tol", "pass", "quad_sizes",
               "runtime_ms")


def check_to_dict(check: CheckReport) -> dict:
    return {
        "id": check.id,
        "params": dict(check.params),
        "computed_re": check.computed.real,
        "computed_im": check.computed.imag,
        "expected_re": check.expected.real,
        "expected_im": check.expected.imag,
        "abs_error": check.abs_error,
        "tol": check.tol,
        "pass": check.passed,
        "quad_sizes": list(check.quad_sizes),
        "runtime_ms": check.runtime_ms,
    }


def to_json(checks: list[CheckReport], version: str, seed: int) -> str:
    payload = {
        "version": version,
        "seed": seed,
        "all_pass": all(c.passed for c in checks),
        "checks": [check_to_dict(c) for c in checks],
    }
    return json.dumps(payload, indent=2)


# The CSV cell of each check_to_dict field that is not written as its repr
_CSV_CELL = {"id": str, "params": lambda p: json.dumps(p, separators=(",", ":")),
             "pass": lambda ok: "true" if ok else "false",
             "quad_sizes": lambda sizes: "x".join(str(n) for n in sizes)}


def to_csv(checks: list[CheckReport]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=csv.QUOTE_MINIMAL)
    writer.writerow(CSV_COLUMNS)
    for check in checks:
        writer.writerow([_CSV_CELL.get(field, repr)(value)
                         for field, value in check_to_dict(check).items()])
    return buffer.getvalue()


def to_table(checks: list[CheckReport]) -> str:
    width = max((len(c.id) for c in checks), default=8)
    lines = [f"{'check':<{width}}  {'status':<6}  {'abs_error':>12}  "
             f"{'tol':>9}  computed"]
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        value = f"{c.computed.real:.10g}"
        if c.computed.imag:
            value += f"{c.computed.imag:+.3g}i"
        lines.append(f"{c.id:<{width}}  {status:<6}  {c.abs_error:12.3e}  "
                     f"{c.tol:9.1e}  {value}")
    n_pass = sum(1 for c in checks if c.passed)
    lines.append(f"{n_pass}/{len(checks)} checks passed")
    return "\n".join(lines) + "\n"


def render(checks: list[CheckReport], fmt: str, version: str, seed: int) -> str:
    if fmt == "json":
        return to_json(checks, version, seed)
    if fmt == "csv":
        return to_csv(checks)
    if fmt == "table":
        return to_table(checks)
    raise ValueError(f"unknown format {fmt!r}")
