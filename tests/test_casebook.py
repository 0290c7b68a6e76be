import cmath
import math

import pytest

from cflab import casebook, cycles, kernels
from cflab.casebook import (RunConfig, fibration_check_C2, first_formula,
                            full_report, identity_suite,
                            necessary_condition_case,
                            necessary_condition_eps_invariance,
                            residue_oracle_D, residue_oracle_E,
                            second_formula_n1, third_formula_case,
                            transversality_suite)
from cflab.errors import InputError, PoleError
from cflab.exprlang import eval_expr, parse_expr

MINUS_FOUR_PI_SQ = -4 * math.pi ** 2


# ------------------------------------------------------------ first formula

def test_first_formula_constant_n1():
    rep = first_formula(1, parse_expr("1", 1), (0.4 - 0.2j,), 0.5,
                        quad=(64,), tol=1e-12)
    assert rep.passed
    assert rep.computed == pytest.approx(1.0, abs=1e-12)


def test_first_formula_n1_linear_in_f():
    z = (0.25 + 0.1j,)
    reps = {}
    for text in ("exp(x)", "x^2", "exp(x)+x^2"):
        reps[text] = first_formula(1, parse_expr(text, 1), z, 0.6,
                                   quad=(96,), tol=1e-9).computed
    combo = reps["exp(x)"] + reps["x^2"]
    assert abs(combo - reps["exp(x)+x^2"]) < 1e-10


def test_first_formula_n2_constant_recovers_minus_four_pi_sq():
    rep = first_formula(2, parse_expr("1", 2), (0.2, -0.1), 0.5,
                        quad=(24, 48, 48), tol=1e-7)
    assert rep.passed
    # invert the constant: integral itself is (2 pi i)^2 = -4 pi^2
    assert rep.computed == pytest.approx(1.0, abs=1e-7)


def test_first_formula_n2_oriented_kernel_integral_is_minus_four_pi_sq():
    # The oriented cycle integral of the bare kernel equals (2 pi i)^2.
    z = (0.2 + 0j, -0.1 + 0j)
    sphere = cycles.make_cycle("sphere_M", z=z, eps=0.5)
    factor = casebook.alpha_orientation_factor(2, z, sphere)
    raw = cycles.integrate(kernels.phi(2, z), sphere, (24, 48, 48))
    assert factor * raw == pytest.approx(MINUS_FOUR_PI_SQ, abs=1e-6)


def test_first_formula_linear_in_f_with_complex_coefficients():
    z = (0.25 + 0.1j,)
    a, b = 2 + 1j, 0.5 - 0.25j
    combo = parse_expr("(2+1i)*exp(x)+(0.5-0.25i)*x^2", 1)
    c_combo = first_formula(1, combo, z, 0.6, quad=(96,), tol=1e-8).computed
    c_exp = first_formula(1, parse_expr("exp(x)", 1), z, 0.6,
                          quad=(96,), tol=1e-8).computed
    c_sq = first_formula(1, parse_expr("x^2", 1), z, 0.6,
                         quad=(96,), tol=1e-8).computed
    assert abs(c_combo - (a * c_exp + b * c_sq)) < 1e-10


def test_first_formula_rejects_n3():
    with pytest.raises(InputError):
        first_formula(3, parse_expr("1", 1), (0j, 0j, 0j), 0.5)


def test_first_formula_pole_of_f_on_sphere():
    from cflab.errors import PoleError

    # The theta = 0 node lands exactly on x = 0.3 + 0.7 = 1, a pole of f.
    with pytest.raises(PoleError):
        first_formula(1, parse_expr("1/(x-1)", 1), (0.3 + 0j,), 0.7,
                      quad=(64,))


def test_third_formula_pole_of_f_on_segment():
    from cflab.errors import PoleError

    # An odd Gauss rule places a node at the segment midpoint x = 0.5.
    with pytest.raises(PoleError):
        third_formula_case("B", parse_expr("1/(x-0.5)", 1), nodes=15)


# ----------------------------------------------------------- second formula

def test_second_formula_exp():
    rep = second_formula_n1(parse_expr("exp(x)", 1), 0.3, 0.4)
    assert rep.passed
    assert rep.computed == pytest.approx(math.exp(0.3), abs=1e-10)


def test_second_formula_square_at_complex_point():
    rep = second_formula_n1(parse_expr("x^2", 1), 1 + 1j, 0.4)
    assert rep.passed
    assert rep.computed == pytest.approx(2j, abs=1e-10)


def test_second_formula_constant():
    rep = second_formula_n1(parse_expr("1", 1), 0j, 0.3)
    assert rep.computed == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------ third formula

def test_third_a_holds_only_for_a_zero():
    rep = third_formula_case("A", parse_expr("exp(x)", 1), a=0)
    assert rep.passed and rep.params["pass_formula"]
    assert rep.computed == pytest.approx(1.0, abs=1e-12)

    rep = third_formula_case("A", parse_expr("x+1", 1), a=2)
    assert rep.passed  # matches the closed form f(0) - a f(1) = -3
    assert not rep.params["pass_formula"]
    assert rep.computed == pytest.approx(-3.0, abs=1e-12)

    rep = third_formula_case("A", parse_expr("1", 1), a=1)
    assert rep.passed
    assert not rep.params["pass_formula"]
    assert rep.computed == pytest.approx(0.0, abs=1e-12)


def test_third_b_gives_f_at_zero():
    rep = third_formula_case("B", parse_expr("exp(x)", 1))
    assert rep.passed and rep.params["pass_formula"]
    assert rep.computed == pytest.approx(1.0, abs=1e-12)


def test_third_a_affine_in_a():
    f = parse_expr("exp(x)+x^2", 1)
    f0 = eval_expr(f, (0j,))
    f1 = eval_expr(f, (1 + 0j,))
    for a in (0.5, 2 - 1j, -3):
        rep = third_formula_case("A", f, a=a)
        assert rep.computed == pytest.approx(f0 - a * f1, abs=1e-10)


def test_third_gamma_path_independence():
    # The residue representative is exact, so a semicircular detour from 1
    # to 0 integrates to the same value as the straight segment.
    f = parse_expr("exp(x)+x^2", 1)
    a = 2 + 0.5j
    form = kernels.casebook_form("residue_A", {"a": a}, f)
    straight = cycles.make_cycle("segment", start=1 + 0j, end=0j)

    def smap(t):
        return (0.5 + 0.5 * cmath.exp(1j * math.pi * t[0]),)

    def stan(t):
        return ((0.5j * math.pi * cmath.exp(1j * math.pi * t[0]),),)

    detour = cycles.Cycle(
        kind="segment", domain=cycles.ParamDomain((cycles.Interval(0.0, 1.0),)),
        map=smap, tangent=stan, ambient_dim=1, x_indices=(0,),
        reference_param=(0.5,))
    v1 = cycles.integrate(form, straight, 24)
    v2 = cycles.integrate(form, detour, 48)
    assert abs(v1 - v2) < 1e-10


# ------------------------------------------------------ necessary condition

def test_oracles_equal_minus_four_pi_sq():
    assert residue_oracle_D(0.5) == pytest.approx(MINUS_FOUR_PI_SQ, abs=1e-10)
    assert residue_oracle_E(0.5, 0.5) == pytest.approx(MINUS_FOUR_PI_SQ,
                                                       abs=1e-10)
    # one-variable pieces of the D oracle are both 2 pi i
    inner = casebook._loop_integral(lambda y: 1 / (y * (y + 1)), 0j, 0.5)
    assert inner == pytest.approx(2j * math.pi, abs=1e-12)
    inner = casebook._loop_integral(lambda x: (x * x + 1) / x, 0j, 0.5)
    assert inner == pytest.approx(2j * math.pi, abs=1e-12)


def _plain_loop(fn, center, radius, n):
    # The scalar cmath loop the array oracles must reproduce, in node order.
    h = 2 * math.pi / n
    total = 0j
    for j in range(n):
        e = cmath.exp(1j * (h * j))
        total += fn(center + radius * e) * 1j * radius * e * h
    return total


def test_array_oracles_match_plain_loops():
    # Same terms summed in the same order; only the rounding of complex
    # products may differ, a few ulps per term.
    n = 48
    d = (_plain_loop(lambda y: 1 / (y * (y + 1)), 0j, 0.3, n)
         * _plain_loop(lambda x: (x * x + 1) / x, 0j, 0.3, n))
    e = _plain_loop(
        lambda u: _plain_loop(lambda v: ((v - u) ** 3 + 1) / (u * v), 0j, 0.4, n),
        0j, 0.6, n)
    assert abs(residue_oracle_D(0.3, n) - d) <= 1e-14 * abs(d)
    assert abs(residue_oracle_E(0.6, 0.4, n) - e) <= 1e-14 * abs(e)


def test_necessary_d_fails_nonzero():
    rep = necessary_condition_case("D", eps=0.5)
    assert rep.passed
    assert rep.params["predicate_holds"]
    assert rep.computed == pytest.approx(MINUS_FOUR_PI_SQ, abs=1e-8)


def test_necessary_e_fails_nonzero():
    rep = necessary_condition_case("E", radii=(0.5, 0.5))
    assert rep.passed
    assert rep.computed == pytest.approx(MINUS_FOUR_PI_SQ, abs=1e-8)


def test_necessary_d_eps_invariance():
    rep = necessary_condition_eps_invariance()
    assert rep.passed
    assert rep.abs_error < 1e-8


def test_necessary_d_rejects_bad_eps():
    with pytest.raises(InputError):
        necessary_condition_case("D", eps=1.2)


# ------------------------------------------------------------ suites

def test_identity_suite_all_pass():
    for rep in identity_suite():
        assert rep.passed, rep.id


def test_identity_suite_unknown_id():
    with pytest.raises(InputError):
        identity_suite("not_an_identity")


def test_identity_suite_single_id():
    reps = identity_suite("extend_B")
    assert [r.id for r in reps] == ["identity_extend_B"]


def test_fibration_check_passes():
    rep = fibration_check_C2(seed=3, count=30)
    assert rep.passed
    assert rep.params["surjectivity_max_defect"] < 1e-10
    assert rep.params["roundtrip_max_defect"] < 1e-12
    assert rep.params["nofibre_min_witness"] > 1e-3


def test_fibration_witness_at_one_one():
    # xi = (1, 1): the x1-branch witness is x2 = 0, x1 = (1 + 2 - 2)/1 = 1,
    # and the surface value there is exactly zero.
    assert casebook._s_C2_homogeneous(0j, 1 + 0j, 1 + 0j, 1 + 0j, 0j) == 0


def test_fibration_count_validation():
    with pytest.raises(InputError):
        fibration_check_C2(seed=1, count=0)


def test_transversality_suite_margins():
    reps = transversality_suite()
    by_id = {r.id: r for r in reps}
    degenerate = by_id.pop("transv_D_degenerate_over_1_0")
    assert degenerate.passed
    assert degenerate.computed.real < 1e-6
    for rep in by_id.values():
        assert rep.passed, rep.id
        assert rep.computed.real > 1e-6


# ------------------------------------------------------------ full report

def test_run_config_validation():
    with pytest.raises(InputError):
        RunConfig(workers=0)


def test_full_report_skip_group():
    checks = full_report(RunConfig(skip=("E",)))
    ids = [c.id for c in checks]
    assert "necessary_E" not in ids
    assert "vanish_tauE_SE" not in ids
    assert not any(c.group == "E" for c in checks)
    assert "necessary_D" in ids


def test_full_report_never_runs_a_skipped_check(monkeypatch):
    called = []
    real = casebook.first_formula

    def spy(*args, check_id, **kwargs):
        called.append(check_id)
        return real(*args, check_id=check_id, **kwargs)

    monkeypatch.setattr(casebook, "first_formula", spy)
    checks = full_report(RunConfig(skip=("first_n2_poly", "first_n2_const")))
    assert called == ["first_n1"]
    ids = [c.id for c in checks]
    assert ids[:2] == ["first_n1", "second_exp"]
    assert len(ids) == 46
    called.clear()
    full_report(RunConfig(skip=("core",)))
    assert called == []


@pytest.mark.parametrize("suite", ["identity_suite", "transversality_suite"])
def test_full_report_isolates_a_raising_suite(suite, monkeypatch):
    def raising(*args, **kwargs):
        raise InputError("sampler gave up")

    monkeypatch.setattr(casebook, suite, raising)
    checks = full_report(RunConfig(skip=("core", "D", "E")))
    failed = [c for c in checks if not c.passed]
    assert [(c.id, c.group) for c in failed] == [(suite, "core")]
    assert failed[0].params == {"error": "InputError: sampler gave up"}
    assert (failed[0].computed, failed[0].expected) == (0j, 0j)
    assert (failed[0].abs_error, failed[0].tol, failed[0].quad_sizes) == \
        (0.0, 0.0, ())
    assert "fibration_C2" in [c.id for c in checks]


def test_full_report_keeps_the_group_of_a_raising_check(monkeypatch):
    def raising(*args, **kwargs):
        raise PoleError("pole", param=(0.5,))

    monkeypatch.setattr(casebook, "third_formula_case", raising)
    checks = full_report(RunConfig(skip=("core", "C", "D", "E")))
    rows = [(c.id, c.group, c.passed) for c in checks
            if c.id.startswith("third_")]
    assert rows == [("third_A_a0", "A", False), ("third_A_a2", "A", False),
                    ("third_A_a1", "A", False), ("third_B", "B", False)]
