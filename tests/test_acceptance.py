"""Acceptance battery: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (run with ``pytest -v -s`` to see
them) and asserts the criterion.
"""

import json
import math

import pytest

from cflab import casebook, report
from cflab.casebook import (fibration_check_C2, first_formula,
                            full_report, identity_suite,
                            necessary_condition_case,
                            necessary_condition_eps_invariance,
                            second_formula_n1, third_formula_case,
                            transversality_suite)
from cflab.exprlang import eval_expr, parse_expr

MINUS_FOUR_PI_SQ = -4 * math.pi ** 2


def _line(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_01_cauchy_case_n1():
    f = parse_expr("exp(x)+x^2", 1)
    rep = first_formula(1, f, (0.3 + 0.1j,), 0.7, quad=(128,), tol=1e-10)
    ok = rep.passed and abs(rep.computed - eval_expr(f, (0.3 + 0.1j,))) < 1e-10
    _line(1, "first formula n=1 reproduces f(z)", ok)


def test_criterion_02_first_formula_n2():
    rep_const = first_formula(2, parse_expr("1", 2), (0.2, -0.1), 0.5,
                              quad=(32, 64, 64), tol=1e-8)
    f = parse_expr("x1^2*x2+3", 2)
    rep_poly = first_formula(2, f, (0.2, -0.1), 0.5,
                             quad=(32, 64, 64), tol=1e-6)
    # orientation must deliver +f(z): 2.996, not -2.996
    ok = (abs(rep_const.computed - 1) < 1e-8
          and abs(rep_poly.computed - 2.996) < 1e-6
          and rep_poly.computed.real > 0)
    _line(2, "first formula n=2 with outward-rule orientation", ok)


def test_criterion_03_second_formula_n1():
    rep = second_formula_n1(parse_expr("exp(x)", 1), 0.3, 0.4,
                            nodes=128, tol=1e-10)
    ok = abs(rep.computed - math.exp(0.3)) < 1e-10
    _line(3, "second formula n=1 small-circle residue", ok)


def test_criterion_04_example_a_closed_form():
    cases = [("exp(x)", 0, 1.0, True),
             ("x+1", 2, -3.0, False),
             ("1", 1, 0.0, False)]
    ok = True
    for text, a, closed, should_hold in cases:
        rep = third_formula_case("A", parse_expr(text, 1), a=a, nodes=16,
                                 tol=1e-10)
        ok &= abs(rep.computed - closed) < 1e-10
        ok &= rep.params["pass_formula"] == should_hold
        ok &= rep.passed
    _line(4, "Example A closed form f(0) - a f(1) and failure flag", ok)


def test_criterion_05_example_b():
    rep = third_formula_case("B", parse_expr("exp(x)", 1), nodes=16, tol=1e-10)
    ok = abs(rep.computed - 1.0) < 1e-10
    suite = identity_suite("extend_B")[0]
    ok &= suite.passed and suite.abs_error < 1e-10
    _line(5, "Example B gives f(0); kernel extends across the incidence point", ok)


def test_criterion_06_example_c():
    suite = identity_suite("extend_C")[0]
    ok = suite.passed and suite.abs_error < 1e-10
    fib = fibration_check_C2(seed=7, count=20)
    ok &= fib.passed
    _line(6, "Example C extension and fibre trivializations", ok)


def test_criterion_07_example_d_obstruction():
    rep = necessary_condition_case("D", eps=0.5, quad=(128, 128), tol=1e-8)
    ok = abs(rep.computed - MINUS_FOUR_PI_SQ) < 1e-8
    ok &= abs(rep.computed) > 0.1
    inv = necessary_condition_eps_invariance(0.3, 0.7, quad=(128, 128),
                                             tol=1e-8)
    ok &= inv.passed
    _line(7, "Example D torus integral equals -4 pi^2, eps-independent", ok)


def test_criterion_08_example_e_obstruction():
    rep = necessary_condition_case("E", radii=(0.5, 0.5), quad=(128, 128),
                                   tol=1e-8)
    ok = abs(rep.computed - MINUS_FOUR_PI_SQ) < 1e-8 and abs(rep.computed) > 0.1
    _line(8, "Example E torus integral equals -4 pi^2", ok)


def test_criterion_09_identity_suite():
    reports = {r.id: r for r in identity_suite()}
    ok = reports["identity_dPhi_nPsi_n1"].abs_error < 1e-5
    ok &= reports["identity_dPhi_nPsi_n2"].abs_error < 1e-5
    ok &= reports["identity_scale_invariance"].abs_error < 1e-12
    ok &= reports["identity_chart_phi_n2"].abs_error < 1e-10
    ok &= reports["identity_chart_phi_n3"].abs_error < 1e-10
    ok &= reports["identity_exact_A"].abs_error < 1e-5
    ok &= reports["identity_exact_D"].abs_error < 1e-5
    for check_id, _, _ in casebook.IDENTITY_CHECKS["vanish_all"]:
        rep = reports[check_id]
        ok &= rep.passed and rep.abs_error <= rep.tol
    _line(9, "identity suite at stated tolerances", ok)


def test_criterion_10_transversality():
    reports = {r.id: r for r in transversality_suite()}
    degenerate = reports.pop("transv_D_degenerate_over_1_0")
    ok = degenerate.computed.real < 1e-6 and degenerate.passed
    for rep in reports.values():
        ok &= rep.passed and rep.computed.real > 1e-6
    _line(10, "transversality margins incl. Example D degeneracy", ok)


def _suite_json(checks) -> str:
    payload = json.loads(report.to_json(checks, "test", 7))
    for check in payload["checks"]:
        check["runtime_ms"] = 0.0
    return json.dumps(payload, indent=2)


def test_criterion_11_determinism_across_runs_and_workers(seed7_report):
    # the session's seed-7 report is one run, a fresh full_report the other
    ok = _suite_json(seed7_report) == _suite_json(full_report(seed=7))
    _line(11, "suite output byte-identical across runs", ok)
