import cmath
import dataclasses
import hashlib
import json
import math
import random
import warnings

import numpy as np
import pytest

from cflab import casebook, cycles, geometry, kernels
from cflab.casebook import (fibration_check_C2, first_formula,
                            full_report, identity_suite,
                            necessary_condition_case,
                            necessary_condition_eps_invariance,
                            residue_oracle_D, residue_oracle_E,
                            second_formula_n1, third_formula_case,
                            transversality_suite)
from cflab.errors import InputError, PoleError
from cflab.exprlang import eval_expr, parse_expr
from cflab.geometry import rand_c

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
    sphere = cycles.sphere_M(z, 0.5)
    factor = casebook.alpha_orientation_factor(2, z, sphere)
    raw = cycles.integrate(kernels.phi(2, z), sphere, (24, 48, 48))
    assert factor * raw == pytest.approx(MINUS_FOUR_PI_SQ, abs=1e-6)


def test_first_formula_calls_its_sphere_on_parameter_arrays_only(monkeypatch):
    # The orientation probe and orientation_sign go through the block path
    # too, as one one-point block.
    real, seen = cycles.sphere_M, []

    def spied(z, eps):
        cycle = real(z, eps)

        def arrays_only(fn):
            def checked(param):
                seen.append({type(t) for t in param})
                return fn(param)
            return checked

        return dataclasses.replace(cycle, map=arrays_only(cycle.map),
                                   tangent=arrays_only(cycle.tangent))

    monkeypatch.setattr(cycles, "sphere_M", spied)
    for n, z in ((1, (0.3 + 0.1j,)), (2, (0.2, -0.1))):
        first_formula(n, parse_expr("1", n), z, 0.5, quad=(8,) * (2 * n - 1),
                      tol=1.0)
    # map and tangent, per n: once at the reference param (the probe, kept
    # for orientation_sign) and once on the one grid block
    assert len(seen) == 2 * 2 * 2
    assert all(types == {np.ndarray} for types in seen)


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
        first_formula(3, parse_expr("1", 1), (0j, 0j, 0j), 0.5,
                      quad=(8, 8, 8, 8, 8), tol=1e-8)


def test_first_formula_pole_of_f_on_sphere():
    from cflab.errors import PoleError

    # The theta = 0 node lands exactly on x = 0.3 + 0.7 = 1, a pole of f.
    with pytest.raises(PoleError):
        first_formula(1, parse_expr("1/(x-1)", 1), (0.3 + 0j,), 0.7,
                      quad=(64,), tol=1e-10)


def test_third_formula_pole_of_f_on_segment():
    from cflab.errors import PoleError

    # An odd Gauss rule places a node at the segment midpoint x = 0.5.
    with pytest.raises(PoleError):
        third_formula_case("B", parse_expr("1/(x-0.5)", 1), nodes=15, tol=1e-10)


# ----------------------------------------------------------- second formula

def test_second_formula_exp():
    rep = second_formula_n1(parse_expr("exp(x)", 1), 0.3, 0.4, 128, 1e-10)
    assert rep.passed
    assert rep.computed == pytest.approx(math.exp(0.3), abs=1e-10)


def test_second_formula_square_at_complex_point():
    rep = second_formula_n1(parse_expr("x^2", 1), 1 + 1j, 0.4, 128, 1e-10)
    assert rep.passed
    assert rep.computed == pytest.approx(2j, abs=1e-10)


def test_second_formula_constant():
    rep = second_formula_n1(parse_expr("1", 1), 0j, 0.3, 128, 1e-10)
    assert rep.computed == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------ third formula

def test_third_a_holds_only_for_a_zero():
    rep = third_formula_case("A", parse_expr("exp(x)", 1), a=0, nodes=16, tol=1e-10)
    assert rep.passed and rep.params["pass_formula"]
    assert rep.computed == pytest.approx(1.0, abs=1e-12)

    rep = third_formula_case("A", parse_expr("x+1", 1), a=2, nodes=16, tol=1e-10)
    assert rep.passed  # matches the closed form f(0) - a f(1) = -3
    assert not rep.params["pass_formula"]
    assert rep.computed == pytest.approx(-3.0, abs=1e-12)

    rep = third_formula_case("A", parse_expr("1", 1), a=1, nodes=16, tol=1e-10)
    assert rep.passed
    assert not rep.params["pass_formula"]
    assert rep.computed == pytest.approx(0.0, abs=1e-12)


def test_third_b_gives_f_at_zero():
    rep = third_formula_case("B", parse_expr("exp(x)", 1), nodes=16, tol=1e-10)
    assert rep.passed and rep.params["pass_formula"]
    assert rep.computed == pytest.approx(1.0, abs=1e-12)


def test_third_a_affine_in_a():
    f = parse_expr("exp(x)+x^2", 1)
    f0 = eval_expr(f, (0j,))
    f1 = eval_expr(f, (1 + 0j,))
    for a in (0.5, 2 - 1j, -3):
        rep = third_formula_case("A", f, a=a, nodes=16, tol=1e-10)
        assert rep.computed == pytest.approx(f0 - a * f1, abs=1e-10)


def test_third_gamma_path_independence():
    # The residue representative is exact, so a semicircular detour from 1
    # to 0 integrates to the same value as the straight segment.
    f = parse_expr("exp(x)+x^2", 1)
    a = 2 + 0.5j
    form = kernels.casebook_form("residue_A", {"a": a}, f)
    straight = cycles.segment(1 + 0j, 0j)

    def smap(t):
        return (0.5 + 0.5 * np.exp(1j * math.pi * t[0]),)

    def stan(t):
        return ((0.5j * math.pi * np.exp(1j * math.pi * t[0]),),)

    detour = cycles.Cycle(
        kind="segment", factors=(cycles.Interval(0.0, 1.0),),
        map=smap, tangent=stan)
    v1 = cycles.integrate(form, straight, (24,))
    v2 = cycles.integrate(form, detour, (48,))
    assert abs(v1 - v2) < 1e-10


# ------------------------------------------------------ necessary condition

def test_oracles_equal_minus_four_pi_sq():
    assert residue_oracle_D(0.5) == pytest.approx(MINUS_FOUR_PI_SQ, abs=1e-10)
    assert residue_oracle_E(0.5, 0.5) == pytest.approx(MINUS_FOUR_PI_SQ,
                                                       abs=1e-10)
    # one-variable pieces of the D oracle are both 2 pi i
    nodes = np.exp(1j * (2.0 * math.pi / 512 * np.arange(512)))
    inner = casebook._loop_integral(lambda y: 1 / (y * (y + 1)), 0j, 0.5, nodes)
    assert inner == pytest.approx(2j * math.pi, abs=1e-12)
    inner = casebook._loop_integral(lambda x: (x * x + 1) / x, 0j, 0.5, nodes)
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
    rep = necessary_condition_case("D", eps=0.5, quad=(128, 128), tol=1e-8)
    assert rep.passed
    assert rep.params["predicate_holds"]
    assert rep.computed == pytest.approx(MINUS_FOUR_PI_SQ, abs=1e-8)


def test_necessary_e_fails_nonzero():
    rep = necessary_condition_case("E", radii=(0.5, 0.5), quad=(128, 128),
                                   tol=1e-8)
    assert rep.passed
    assert rep.computed == pytest.approx(MINUS_FOUR_PI_SQ, abs=1e-8)


def test_necessary_d_eps_invariance():
    rep = necessary_condition_eps_invariance()
    assert rep.passed
    assert rep.abs_error < 1e-8


def test_necessary_d_rejects_bad_eps():
    with pytest.raises(InputError):
        necessary_condition_case("D", eps=1.2, quad=(128, 128), tol=1e-8)


def test_a_case_outside_the_examples_is_rejected():
    with pytest.raises(InputError, match="third formula cases are 'A' and 'B'"):
        third_formula_case("C", parse_expr("1"), nodes=16, tol=1e-10)
    with pytest.raises(InputError, match="necessary-condition cases are 'D' and 'E'"):
        necessary_condition_case("F", quad=(16, 16), tol=1e-8)


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


def _fibration_reference(seed, count):
    """fibration_check_C2's (surjectivity, round-trip, no-fibre) defects,
    the charts {xi1 != 0} and {xi2 != 0} each written out on its own."""
    s, rng = casebook._s_C2_homogeneous, random.Random(seed)
    surj, trip, nofibre = 0.0, 0.0, math.inf
    for _ in range(count):
        xi1, xi2 = rand_c(rng), rand_c(rng)
        num = xi1 ** 3 + 2 * xi2 ** 3 - 2 * xi1 ** 2 * xi2
        if abs(xi1) >= 0.2:
            witness = num / xi1 ** 3
            surj = max(surj, abs(s(0j, xi1, xi2, witness, 0j)))
            x2 = rand_c(rng)
            x1 = 1 - (xi2 ** 3 * (x2 - 2) + 2 * xi1 ** 2 * xi2) / xi1 ** 3
            trip = max(trip, abs(s(0j, xi1, xi2, x1, x2)))
            at_0 = 1 - (xi2 ** 3 * (0 - 2) + 2 * xi1 ** 2 * xi2) / xi1 ** 3
            trip = max(trip, abs(at_0 - witness))
        if abs(xi2) >= 0.2:
            witness = num / xi2 ** 3
            surj = max(surj, abs(s(0j, xi1, xi2, 0j, witness)))
            x1 = rand_c(rng)
            x2 = 2 - (xi1 ** 3 * (x1 - 1) + 2 * xi1 ** 2 * xi2) / xi2 ** 3
            trip = max(trip, abs(s(0j, xi1, xi2, x1, x2)))
            at_0 = 2 - (xi1 ** 3 * (0 - 1) + 2 * xi1 ** 2 * xi2) / xi2 ** 3
            trip = max(trip, abs(at_0 - witness))
        x1, x2 = rand_c(rng, 2.0), rand_c(rng, 2.0)
        nofibre = min(nofibre, max(abs(s(0j, 1 + 0j, 0j, x1, x2)),
                                   abs(s(0j, 0j, 1 + 0j, x1, x2)),
                                   abs(s(0j, 1 + 0j, 1 + 0j, x1, x2))))
    return surj, trip, nofibre


def test_fibration_report_is_the_two_chart_reference_bit_for_bit():
    for seed in range(200):
        surj, trip, nofibre = _fibration_reference(seed, casebook.FIBRE_COUNT)
        passed = surj < 1e-10 and trip < 1e-12 and nofibre > 1e-3
        want = casebook.CheckReport(
            id="fibration_C2", computed=complex(max(surj, trip)), expected=0j,
            abs_error=0.0 if passed else max(surj, trip), tol=0.0, passed=passed,
            quad_sizes=(), runtime_ms=0.0,
            params={"surjectivity_max_defect": surj, "roundtrip_max_defect": trip,
                    "nofibre_min_witness": nofibre,
                    "predicate": "surj<1e-10 and roundtrip<1e-12 and nofibre>1e-3",
                    "count": casebook.FIBRE_COUNT})
        assert repr(fibration_check_C2(seed=seed)) == repr(want), seed


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


def test_margin_specs_are_built_once_in_the_order_named():
    specs = casebook._margin_specs("D", "P_Q_S", "U2")
    assert casebook._margin_specs("D", "P_Q_S", "U2") is specs
    assert [(s.name, s.chart) for s in specs] == \
        [("P", "U2"), ("Q", "U2"), ("S_D", "U2")]
    assert [s.name for s in casebook._margin_specs("C1", "Q_S", "U2")] == \
        ["Q", "S_C1"]


# ------------------------------------------------------------ full report

@pytest.fixture(scope="module")
def unpatched_report(seed7_report):
    return list(seed7_report)


def _without_runtime(checks):
    return [dataclasses.replace(c, runtime_ms=0.0) for c in checks]


def _groups():
    return {check_id: group for check_id, group, _ in casebook.CHECKS}


def test_every_table_row_reports_its_own_id(unpatched_report):
    assert len(casebook.CHECKS) == 48
    assert all(c.passed for c in unpatched_report)
    assert [c.id for c in unpatched_report] == \
        [check_id for check_id, _, _ in casebook.CHECKS]


def test_every_table_row_is_timed_by_the_runner(unpatched_report):
    assert all(c.runtime_ms > 0 for c in unpatched_report)
    # a check function called directly is timed by nobody
    assert fibration_check_C2().runtime_ms == 0.0


def test_rows_do_not_depend_on_each_others_state(unpatched_report):
    # every row but the two heavy n = 2 integrals, in reverse order
    rows = [row for row in casebook.CHECKS
            if row[0] not in ("first_n2_const", "first_n2_poly")][::-1]
    assert _without_runtime(casebook._run(rows, 7)) == \
        _without_runtime(c for c in unpatched_report[::-1]
                         if c.id not in ("first_n2_const", "first_n2_poly"))


# sha256 of the report fields that no CPU feature moves: each row's id,
# group (read from the table), tol, quad_sizes, pass and params, without
# the three params that carry computed values (numpy's dispatched loops and
# the OpenBLAS kernel move their last bits).  A changed tolerance, grid or
# parameter changes it.
ROW_DIGESTS = {
    7: "cceb3b013383837fdf6e54a3d8a72fd35e3cc6f77c06ea792517d4636d5e02a5",
    101: "573e58361baebc13b37fe30cdcb9293d799b847ffeca8ccb0759e404768c6d6c",
    211: "7ce73da200eecae9838d3bc29fd43adaf62101429bbde4aa50e07d694fc5d8ea",
}


@pytest.mark.parametrize("seed", sorted(ROW_DIGESTS))
def test_cpu_independent_row_fields_have_their_committed_digest(seed, seed7_report):
    computed = ("oracle", "value_a", "value_b")
    groups = _groups()
    rows = [{"id": c.id, "group": groups[c.id], "tol": c.tol,
             "quad_sizes": list(c.quad_sizes), "pass": c.passed,
             "params": {k: v for k, v in c.params.items() if k not in computed}}
            for c in (seed7_report if seed == 7 else full_report(seed))]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == ROW_DIGESTS[seed]


def test_full_report_skip_group():
    checks = full_report(skip=("E",))
    ids = [c.id for c in checks]
    assert "necessary_E" not in ids
    assert "vanish_tauE_SE" not in ids
    assert not any(_groups()[c.id] == "E" for c in checks)
    assert "necessary_D" in ids


def test_full_report_never_runs_a_skipped_check(monkeypatch):
    called = []
    real = casebook.first_formula

    def spy(*args, check_id, **kwargs):
        called.append(check_id)
        return real(*args, check_id=check_id, **kwargs)

    monkeypatch.setattr(casebook, "first_formula", spy)
    checks = full_report(skip=("first_n2_poly", "first_n2_const"))
    assert called == ["first_n1"]
    ids = [c.id for c in checks]
    assert ids[:2] == ["first_n1", "second_exp"]
    assert len(ids) == 46
    called.clear()
    full_report(skip=("core",))
    assert called == []


def _raise_on_exact_D(monkeypatch):
    def raising(seed):
        raise InputError("sampler gave up")

    monkeypatch.setattr(casebook, "_identity_exact_D", raising)


def _raise_on_transv_C2_P_S(monkeypatch):
    real = geometry.intersection_points

    def raising(example, which, seed):
        if (example, which) == ("C2", "P_S"):
            raise InputError("sampler gave up")
        return real(example, which, seed)

    monkeypatch.setattr(geometry, "intersection_points", raising)


@pytest.mark.parametrize("runner, patch, row, count", [
    (full_report, _raise_on_exact_D, "identity_exact_D", 48),
    (full_report, _raise_on_transv_C2_P_S, "transv_C2_P_S", 48),
    (identity_suite, _raise_on_exact_D, "identity_exact_D", 15),
    (transversality_suite, _raise_on_transv_C2_P_S, "transv_C2_P_S", 20),
], ids=["identity", "transversality", "identity_suite", "transversality_suite"])
def test_full_report_isolates_a_raising_row(runner, patch, row, count,
                                            unpatched_report, monkeypatch):
    patch(monkeypatch)
    checks = runner()
    assert len(checks) == count
    failed = [c for c in checks if not c.passed]
    assert [c.id for c in failed] == [row]
    assert failed[0].params == {"error": "InputError: sampler gave up"}
    assert (failed[0].computed, failed[0].expected) == (0j, 0j)
    assert (failed[0].abs_error, failed[0].tol, failed[0].quad_sizes) == \
        (0.0, 0.0, ())
    assert failed[0].runtime_ms > 0
    ids = {c.id for c in checks}
    assert _without_runtime(c for c in checks if c.id != row) == \
        _without_runtime(c for c in unpatched_report if c.id in ids - {row})


def test_full_report_never_computes_a_skipped_table_row(monkeypatch):
    computed = []
    real_exact_D = casebook._identity_exact_D
    real_points = geometry.intersection_points

    def exact_D(seed):
        computed.append("identity_exact_D")
        return real_exact_D(seed)

    def points(example, which, seed):
        computed.append(f"transv_{example}_{which}")
        return real_points(example, which, seed)

    monkeypatch.setattr(casebook, "_identity_exact_D", exact_D)
    monkeypatch.setattr(geometry, "intersection_points", points)
    checks = full_report(skip=("core", "identity_exact_D", "transv_D_P_S"))
    ids = [c.id for c in checks]
    assert "identity_exact_D" not in computed + ids
    assert "transv_D_P_S" not in computed + ids
    assert "transv_D_P_Q" in computed and len(ids) == 36
    computed.clear()
    full_report(skip=("core",))
    assert {"identity_exact_D", "transv_D_P_S"} <= set(computed)


def test_full_report_keeps_the_id_of_a_raising_check(monkeypatch):
    def raising(*args, **kwargs):
        raise PoleError("pole", param=(0.5,))

    monkeypatch.setattr(casebook, "third_formula_case", raising)
    checks = full_report(skip=("core", "C", "D", "E"))
    rows = [(c.id, c.passed) for c in checks if c.id.startswith("third_")]
    assert rows == [("third_A_a0", False), ("third_A_a2", False),
                    ("third_A_a1", False), ("third_B", False)]
    # the raising rows are still dropped by their group
    checks = full_report(skip=("core", "A", "C", "D", "E"))
    assert [c.id for c in checks if c.id.startswith("third_")] == ["third_B"]


def test_vanishing_checks_draw_each_sample_once(monkeypatch):
    draws = []
    real = kernels.sample_on_surface

    def counting(spec, seed, count):
        draws.append((spec.name, seed))
        return real(spec, seed, count)

    monkeypatch.setattr(kernels, "sample_on_surface", counting)
    rows = casebook.identity_suite("vanish_all", seed=3)
    assert len(rows) == len(draws) == len(casebook.IDENTITY_CHECKS["vanish_all"])
    assert all(r.passed for r in rows)


def _seeded_rows():
    rows = []
    for seed in (7, 101, 211):
        for report in (identity_suite(seed=seed) + transversality_suite(seed=seed)
                       + [fibration_check_C2(seed=seed)]):
            rows.append((report.id, repr(report.computed), repr(report.expected),
                         repr(report.abs_error), report.params))
    return rows


def test_bulk_sampling_leaves_every_seeded_report_unchanged(scalar_sampler,
                                                            monkeypatch):
    bulk = _seeded_rows()
    monkeypatch.setattr(geometry, "sample_points", scalar_sampler)
    assert bulk == _seeded_rows()


def test_oracle_with_overflowing_radii_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = casebook.residue_oracle_E(3e200, 0.3)
    assert not cmath.isfinite(value)
