import functools
import itertools
import math
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cflab import casebook, cycles, exprlang, forms, geometry, kernels
from cflab.errors import InputError, PoleError
from cflab.forms import KForm
from cflab.kernels import (casebook_form, phi, phi_chart_formula, psi,
                           vanishing_max_and_scale)


def _rand_c(rng, r=1.0):
    return complex(rng.uniform(-r, r), rng.uniform(-r, r))


def _rand_vec(rng, dim):
    return tuple(_rand_c(rng) for _ in range(dim))


# ------------------------------------------------------------ basis kernels

def _basis_form(kind, n):
    """omega, omega' or omega* on the joint (xi, x) ambient space, the
    reference for the terms that phi and psi write themselves.

    omega(x)  = dx_1 ^ ... ^ dx_n
    omega'(xi) = sum_{k=1..n} (-1)^(k-1) xi_k  dxi_1 ^..^ omit k ^..^ dxi_n
    omega*(xi) = sum_{k=0..n} (-1)^k      xi_k  dxi_0 ^..^ omit k ^..^ dxi_n
    """
    dim = 2 * n + 1
    if kind == "omega":
        return KForm.basis(dim, *range(n + 1, 2 * n + 1))
    first = 1 if kind == "omega_prime" else 0  # the first xi_k in the sum
    terms = {tuple(j for j in range(first, n + 1) if j != k):
             (lambda cols, k=k, s=(-1) ** (k - first): forms.mul(s, cols[k]))
             for k in range(first, n + 1)}
    return KForm(n - first, dim, terms=terms)


def test_omega_prime_n1_is_xi1():
    form = _basis_form("omega_prime", 1)
    assert form.degree == 0
    assert form.evaluate((5, 3, 0), ()) == 3


def test_omega_star_n1_values():
    form = _basis_form("omega_star", 1)
    # omega* = xi0 d xi1 - xi1 d xi0 evaluated on d/d xi0
    assert form.evaluate((2, 1, 0), [(1, 0, 0)]) == -1
    assert form.evaluate((2, 1, 0), [(0, 1, 0)]) == 2


def test_omega_n2_unit_determinant():
    form = _basis_form("omega", 2)
    e_x1 = (0, 0, 0, 1, 0)
    e_x2 = (0, 0, 0, 0, 1)
    assert form.evaluate((0, 0, 0, 0, 0), [e_x1, e_x2]) == 1


# -------------------------------------------------------------------- phi

def _lift(chart, coords, held):
    # The chart's unit section xi_n = 1, with `held` in the slot the chart
    # holds fixed: (eta, x) -> (eta, held, x), (y0, y1, x1, x2) -> (y0, y1,
    # held, x1, x2).
    if chart == "eta":
        return (coords[0], held, coords[1])
    return coords[:2] + (held,) + coords[2:]


def _on_lift(kernel, chart, coords, vecs):
    """The full ambient kernel at a chart point and frame lifted to the
    chart's unit section (1 in the held slot of the point, 0 in the frame)."""
    return kernel.evaluate(_lift(chart, coords, 1 + 0j),
                           [_lift(chart, v, 0j) for v in vecs])


def test_phi_n1_eta_chart_value():
    # On the lift xi = (eta, 1) with z = 0, phi is dx/eta.
    form = phi(1, (0j,))
    assert form.evaluate((2, 1, 7), [(0, 0, 1)]) == pytest.approx(0.5)


def test_phi_n2_u2_chart_formula():
    # On the section xi = (y0, y1, 1), phi = -y0^-2 dy1 ^ dx1 ^ dx2.
    rng = random.Random(8)
    kernel = phi(2, (0j, 0j))
    reference = KForm.basis(4, 1, 2, 3, coeff=lambda p: -1 / p[0] ** 2)
    for _ in range(20):
        p = tuple(_rand_c(rng) for _ in range(4))
        if abs(p[0]) < 0.2:
            continue
        vecs = [_rand_vec(rng, 4) for _ in range(3)]
        assert _on_lift(kernel, "U2", p, vecs) == pytest.approx(
            reference.evaluate(p, vecs), rel=1e-12)


def test_psi_n1_eta_chart_formula():
    # eta^-2 dx ^ d eta on the lift.
    form = psi(1, (0j,))
    val = form.evaluate((1, 1, 3), [(0, 0, 1), (1, 0, 0)])
    assert val == pytest.approx(1.0)


def test_psi_n2_u2_chart_formula():
    rng = random.Random(9)
    kernel = psi(2, (0j, 0j))
    reference = KForm.basis(4, 0, 1, 2, 3, coeff=lambda p: 1 / p[0] ** 3)
    for _ in range(20):
        p = tuple(_rand_c(rng) for _ in range(4))
        if abs(p[0]) < 0.2:
            continue
        vecs = [_rand_vec(rng, 4) for _ in range(4)]
        assert _on_lift(kernel, "U2", p, vecs) == pytest.approx(
            reference.evaluate(p, vecs), rel=1e-12)


@pytest.mark.parametrize("kernel, n, chart", [
    (phi, 1, "eta"), (psi, 1, "eta"), (phi, 2, "U2"), (psi, 2, "U2")])
def test_kernel_on_chart_equals_lifted_evaluation_exactly(kernel, n, chart):
    # casebook._on_section drops the held coordinate's terms, whose minors
    # vanish on lifted vectors, so it runs the full kernel's arithmetic.
    rng = random.Random(50 + n)
    f = exprlang.parse_expr("exp(x)+x^2", 1) if n == 1 else None
    ambient = kernel(n, (0j,) * n, f)
    points, frames = [], []
    while len(points) < 40:
        q = _rand_vec(rng, 2 * n)
        if abs(q[0]) >= 0.1:
            points.append(q)
            frames.append([_rand_vec(rng, 2 * n) for _ in range(ambient.degree)])
    section = casebook._on_section(ambient, points, frames)
    want = [_on_lift(ambient, chart, q, vecs) for q, vecs in zip(points, frames)]
    assert section.tobytes() == np.array(want, dtype=complex).tobytes()
    # q0 = 0 puts the lift on xi.z = 0: the same PoleError both ways
    pole = (0j,) + points[0][1:]
    with pytest.raises(PoleError) as on_section:
        casebook._on_section(ambient, [pole], frames[:1])
    with pytest.raises(PoleError) as lifted:
        _on_lift(ambient, chart, pole, frames[0])
    assert str(on_section.value) == str(lifted.value) == \
        f"{kernel.__name__} evaluated on xi.z = 0"
    assert on_section.value.point == lifted.value.point == _lift(chart, pole, 1 + 0j)


def _per_point_term(name, n, z, f, power, k, s):
    """One phi/psi term coefficient as the per-point Python expression it
    was before coefficients took batches."""
    def coeff(p):
        den = p[0] + sum(map(operator.mul, p[1:n + 1], z))
        if den == 0:
            raise PoleError(f"{name} evaluated on xi.z = 0", point=p)
        fx = 1 + 0j if f is None else exprlang.eval_expr(f, p[n + 1:])
        return fx / den ** power * (0j + s * p[k])

    return coeff


def _per_point_terms(kernel, n, z, f):
    """The per-point references of the terms of ``kernel(n, z, f)``, in term
    order."""
    first, power = (1, n) if kernel is phi else (0, n + 1)
    return [_per_point_term(kernel.__name__, n, tuple(map(complex, z)), f,
                            power, k, (-1) ** (k - first))
            for k in range(first, n + 1)]


def _per_point_error(coeffs, rows):
    """(type, message, point, row) of the error that point-by-point
    evaluation, in point order and term order, raised first, mapped as
    ``evaluate_many`` maps it; None when every row evaluates."""
    for row, p in enumerate(rows):
        for coeff in coeffs:
            try:
                coeff(p)
            except PoleError as exc:
                return PoleError, str(exc), exc.point, row
            except (ZeroDivisionError, OverflowError) as exc:
                what = "has a pole" if isinstance(exc, ZeroDivisionError) else "overflows"
                return PoleError, f"form coefficient {what}", p, row
    return None


def _batch(coeff, rows):
    """A coefficient's values on the batch of ``rows``, as Python complex;
    overflow gives inf as in ``evaluate_many``, without a warning."""
    cols = tuple(np.array(rows, dtype=complex).reshape(len(rows), -1).T)
    with np.errstate(all="ignore"):
        return np.broadcast_to(coeff(cols), len(rows)).tolist()


def _reference_kernel(name, basis, power, n, z, f, pointwise):
    """f / (xi.z)^power scaling wedge(basis, omega), built from the algebra,
    with the scale factor computed point by point in Python."""
    z = tuple(complex(c) for c in z)

    def coeff(p):
        den = p[0] + sum(p[1 + k] * z[k] for k in range(n))
        if den == 0:
            raise PoleError(f"{name} evaluated on xi.z = 0", point=p)
        fx = 1 + 0j if f is None else exprlang.eval_expr(f, p[n + 1:])
        return fx / den ** power

    body = forms.wedge(_basis_form(basis, n), _basis_form("omega", n))
    return forms.scale(body, pointwise(coeff))


def _signed_zero_c(rng):
    # Random coordinates, some parts exactly +0.0 or -0.0.
    parts = [rng.choice((0.0, -0.0)) if rng.random() < 0.3 else rng.uniform(-1, 1)
             for _ in range(2)]
    return complex(*parts)


_F_BY_N = {1: "exp(x)+x^2", 2: "x1^2*x2+3", 3: "x1*x2-exp(x3)/(x1+2)"}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kernel, name, basis, extra", [
    (phi, "phi", "omega_prime", 0), (psi, "psi", "omega_star", 1)])
def test_fused_kernel_equals_wedge_and_scale_reference(kernel, name, basis,
                                                       extra, n, pointwise):
    rng = random.Random(70 + n)
    dim = 2 * n + 1
    z = tuple(_rand_c(rng, 0.3) for _ in range(n))
    for f in (None, exprlang.parse_expr(_F_BY_N[n], n)):
        fused = kernel(n, z, f)
        ref = _reference_kernel(name, basis, n + extra, n, z, f, pointwise)
        assert (fused.degree, fused.dim) == (ref.degree, ref.dim)
        assert list(fused.terms) == list(ref.terms)
        rows = []
        for _ in range(40):
            p = tuple(_signed_zero_c(rng) for _ in range(dim))
            rows.append((p[0] + 2,) + p[1:])
        for key in ref.terms:
            assert list(map(repr, _batch(fused.terms[key], rows))) == \
                list(map(repr, _batch(ref.terms[key], rows)))
        frames = [[_rand_vec(rng, dim) for _ in range(fused.degree)] for _ in rows]
        assert fused.evaluate_many(rows, frames).tolist() == \
            ref.evaluate_many(rows, frames).tolist()
        # A point on xi.z = 0: the same error, message and point.
        xi = tuple(_rand_c(rng) for _ in range(n))
        s = sum(c * w for c, w in zip(xi, z))
        p = (-s,) + xi + tuple(_rand_c(rng) for _ in range(n))
        errors = []
        for form in (fused, ref):
            with pytest.raises(PoleError) as info:
                form.evaluate(p, [_rand_vec(rng, dim)
                                  for _ in range(form.degree)])
            errors.append((str(info.value), info.value.point))
        assert errors[0] == errors[1]


_PROFILE = settings.get_profile("cflab")
_SIGNED = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-1.0, 1.0))
_SIGNED_C = st.builds(complex, _SIGNED, _SIGNED)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kernel", [phi, psi])
@pytest.mark.parametrize("with_f", [False, True], ids=["no_f", "f"])
@settings(_PROFILE, max_examples=40)
@given(data=st.data())
def test_batch_coefficients_equal_the_per_point_expression_bit_for_bit(
        kernel, n, with_f, data):
    f = exprlang.parse_expr(_F_BY_N[n], n) if with_f else None
    z = tuple(data.draw(_SIGNED_C) * 0.3 for _ in range(n))
    rows = data.draw(st.lists(st.tuples(*[_SIGNED_C] * (2 * n + 1)),
                              min_size=1, max_size=8))
    form, refs = kernel(n, z, f), _per_point_terms(kernel, n, z, f)
    expected = _per_point_error(refs, rows)
    good = rows if expected is None else rows[:expected[3]]
    for coeff, ref in zip(form.terms.values(), refs):
        if good:
            assert list(map(repr, _batch(coeff, good))) == \
                [repr(ref(p)) for p in good]
    frames = [[(1 + 0j,) * form.dim] * form.degree] * len(rows)
    if expected is None:
        form.evaluate_many(rows, frames)
    else:
        with pytest.raises(PoleError) as err:
            form.evaluate_many(rows, frames)
        assert (type(err.value), str(err.value), err.value.point,
                err.value.row) == expected


_EXP = exprlang.parse_expr("exp(x)", 1)


@pytest.mark.parametrize("name, kernel, n, z, f, rows", [
    # f overflows at row 0, xi.z = 0 at row 1: row 0's error
    ("f_overflow_first", phi, 1, (0.5 + 0j,), _EXP,
     [(1 + 0j, 1 + 0j, 1000 + 0j), (-0.5 + 0j, 1 + 0j, 0j)]),
    # the other way round: the pole row comes first
    ("pole_first", phi, 1, (0.5 + 0j,), _EXP,
     [(-0.5 + 0j, 1 + 0j, 0j), (1 + 0j, 1 + 0j, 1000 + 0j)]),
    # one row with both: the xi.z = 0 test comes before f
    ("pole_and_overflow_in_one_row", psi, 1, (0.5 + 0j,), _EXP,
     [(1 + 0j, 1 + 0j, 0.3 + 0j), (-0.5 + 0j, 1 + 0j, 1000 + 0j)]),
    # (xi.z)^2 underflows to zero: a pole
    ("power_underflow", phi, 2, (0j, 0j), None,
     [(1 + 0j,) * 5, (1e-200 + 0j, 1 + 0j, 1 + 0j, 0j, 0j), (0j,) * 5]),
    # (xi.z)^3 overflows
    ("power_overflow", psi, 2, (0j, 0j), None,
     [(1 + 0j,) * 5, (1 + 0j,) * 5, (1e120j, 1 + 0j, 1 + 0j, 0j, 0j)]),
])
def test_pole_rows_match_point_by_point_evaluation(name, kernel, n, z, f, rows):
    form = kernel(n, z, f)
    expected = _per_point_error(_per_point_terms(kernel, n, z, f), rows)
    assert expected is not None
    frames = [[(1 + 0j,) * form.dim] * form.degree] * len(rows)
    with pytest.raises(PoleError) as err:
        form.evaluate_many(rows, frames)
    assert (type(err.value), str(err.value), err.value.point,
            err.value.row) == expected


def test_kernels_reach_an_eval_expr_patched_after_they_are_built(monkeypatch):
    z, f = (0.2 + 0j, -0.1 + 0j), exprlang.parse_expr("x1^2*x2+3", 2)
    form = phi(2, z, f)
    sphere = cycles.sphere_M(z, 0.5)
    plain = cycles.integrate(form, sphere, (8, 8, 8))
    seen, original = [], exprlang.eval_expr

    def doubled(expr, point):
        seen.append(expr)
        return 2 * original(expr, point)

    monkeypatch.setattr(exprlang, "eval_expr", doubled)
    assert cycles.integrate(form, sphere, (8, 8, 8)) == 2 * plain
    assert seen and all(expr is f for expr in seen)


@pytest.mark.parametrize("kernel, n, terms", [(phi, 2, 2), (psi, 2, 3), (psi, 1, 2)])
def test_kernel_terms_share_the_pairing_and_its_power_but_not_f(monkeypatch, kernel, n,
                                                               terms):
    # one batch: one pairing, one pole test and one power; f once per point
    # per term, as the benchmark's count of expression calls assumes
    z = (0.2 + 0j, -0.1 + 0j)[:n]
    form = kernel(n, z, exprlang.parse_expr("x1^2+3" if n == 2 else "x^2+3", n))
    rng = random.Random(23)
    points = [tuple(_rand_c(rng) + (2 if i == 0 else 0) for i in range(2 * n + 1))
              for _ in range(5)]
    frames = [[_rand_vec(rng, 2 * n + 1) for _ in range(form.degree)] for _ in range(5)]
    want = form.evaluate_many(points, frames)
    counts = {"pole_at": 0, "power": 0, "eval_expr": 0}
    for module, name in ((forms, "pole_at"), (forms, "power"), (exprlang, "eval_expr")):
        def counted(*args, _fn=getattr(module, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    got = form.evaluate_many(points, frames)
    assert counts == {"pole_at": 1, "power": 1, "eval_expr": 5 * terms}
    assert [repr(v) for v in got.tolist()] == [repr(v) for v in want.tolist()]


@pytest.mark.parametrize("kernel, n, terms", [(phi, 2, 2), (psi, 2, 3), (psi, 1, 2)])
@pytest.mark.parametrize("text, one_quotient, lists", [
    (None, True, 0), ("3", True, 1), ("x^2+3", False, 1)])
def test_kernel_terms_share_the_quotient_of_a_number_f_and_the_points_of_any_other(
        monkeypatch, kernel, n, terms, text, one_quotient, lists):
    # one batch: f / (xi.z)^power once for no f or a number f (whose one
    # evaluation converts its first row); for any other f one quotient per
    # term, all on one conversion of the columns to Python numbers
    z = (0.2 + 0j, -0.1 + 0j)[:n]
    f = text and exprlang.parse_expr(text.replace("x", "x1") if n == 2 else text, n)
    form = kernel(n, z, f)
    rng = random.Random(29)
    points = [tuple(_rand_c(rng) + (2 if i == 0 else 0) for i in range(2 * n + 1))
              for _ in range(5)]
    frames = [[_rand_vec(rng, 2 * n + 1) for _ in range(form.degree)] for _ in range(5)]
    want = form.evaluate_many(points, frames)
    counts = {"div": 0, "_lists": 0}
    for module, name in ((forms, "div"), (kernels, "_lists")):
        def counted(*args, _fn=getattr(module, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    got = form.evaluate_many(points, frames)
    assert counts == {"div": 1 if one_quotient else terms, "_lists": lists}
    assert [repr(v) for v in got.tolist()] == [repr(v) for v in want.tolist()]


_Z2 = (0.2 + 0j, -0.1 + 0.3j)
_SPHERE = cycles.sphere_M(_Z2, 0.5)
_GRID = (6, 20, 20)  # 2400 points: more than one block


def _eval_expr_calls(monkeypatch, f) -> int:
    """How often ``integrate`` of phi(2, _Z2, f) over _SPHERE on _GRID calls
    ``exprlang.eval_expr``."""
    calls, original = [], exprlang.eval_expr
    monkeypatch.setattr(exprlang, "eval_expr",
                        lambda *args: calls.append(1) or original(*args))
    cycles.integrate(phi(2, _Z2, f), _SPHERE, _GRID)
    monkeypatch.setattr(exprlang, "eval_expr", original)
    return len(calls)


def test_a_number_f_is_evaluated_once_per_block(monkeypatch):
    points, blocks = math.prod(_GRID), -(-math.prod(_GRID) // cycles.BLOCK_POINTS)
    assert blocks > 1
    assert _eval_expr_calls(monkeypatch, exprlang.parse_expr("1", 2)) == blocks
    # any other f: once per grid point per term, as the benchmark counts
    assert _eval_expr_calls(monkeypatch, exprlang.parse_expr("x1^2*x2+3", 2)) == 2 * points


def test_first_formula_with_f_one_is_the_integral_without_f_bit_for_bit(monkeypatch):
    quad, raw, integrate = (8, 16, 16), [], cycles.integrate
    monkeypatch.setattr(cycles, "integrate", lambda *args: raw.append(integrate(*args)) or raw[-1])
    report = casebook.first_formula(2, exprlang.parse_expr("1", 2), _Z2, 0.5, quad, 1e-6)
    assert report.passed and len(raw) == 1
    assert repr(raw[0]) == repr(integrate(phi(2, _Z2), _SPHERE, quad))


def test_a_number_f_with_a_pole_raises_as_the_per_point_loop_does():
    errors = []
    for text in ("1/0", "1/0+0*x1"):  # the second reads x1: one call per point
        f = exprlang.parse_expr(text, 2)
        with pytest.raises(PoleError) as err:
            cycles.integrate(phi(2, _Z2, f), _SPHERE, _GRID)
        errors.append((str(err.value), err.value.point, err.value.param))
    assert errors[0] == errors[1]
    assert errors[0][0].endswith(": division by zero in expression")
    assert errors[0][2] == tuple(float(nodes[0]) for nodes, _ in
                                 map(cycles._factor_rule, _SPHERE.factors, _GRID))


def test_f_at_calls_eval_expr_in_row_order_and_tags_the_failing_row(monkeypatch):
    seen, eval_expr = [], exprlang.eval_expr

    def spy(f, p):
        seen.append(p)
        return eval_expr(f, p)

    monkeypatch.setattr(exprlang, "eval_expr", spy)  # looked up at each call
    f = exprlang.parse_expr("x1/(x2-4)", 2)
    cols = (np.array([1, 3, 2, 2], dtype=complex), np.array([1, 1, 4, 4], dtype=complex))
    with pytest.raises(PoleError) as err:
        kernels._f_at(f, cols)
    assert err.value.row == 2 and seen == [(1, 1), (3, 1), (2, 4)]
    assert all(type(p) is tuple and all(type(c) is complex for c in p) for p in seen)
    assert kernels._f_at(f, tuple(c[:2] for c in cols)).tolist() == [-1 / 3, -1]
    assert kernels._f_at(f, (np.array([], dtype=complex),) * 2).shape == (0,)


def _stop_at_call(monkeypatch, call):
    """Patch ``exprlang.eval_expr`` to raise StopIteration at its ``call``-th call."""
    calls, eval_expr = itertools.count(1), exprlang.eval_expr

    def stopping(f, p):
        if next(calls) == call:
            raise StopIteration
        return eval_expr(f, p)

    monkeypatch.setattr(exprlang, "eval_expr", stopping)


def test_f_at_raises_a_stop_iteration_as_a_runtime_error_at_its_row(monkeypatch):
    # map inside list.extend would take it for the end of the batch
    _stop_at_call(monkeypatch, 3)
    cols = (np.array([1, 3, 2, 2], dtype=complex),)
    with pytest.raises(RuntimeError, match="raised StopIteration") as err:
        kernels._f_at(exprlang.parse_expr("x+1"), cols)
    assert err.value.row == 2


def test_a_stop_iteration_in_a_quadrature_batch_is_raised_not_a_broadcast_error(
        monkeypatch):
    # the batch is cut at the row, as for any error, and the error raised
    _stop_at_call(monkeypatch, 5)
    with pytest.raises(RuntimeError, match="raised StopIteration") as err:
        casebook.first_formula(1, exprlang.parse_expr("exp(x)"), (0.3 + 0.1j,),
                               0.7, (16,), 1e-10)
    assert err.value.row == 4


def test_a_stop_iteration_in_first_n1_is_its_rows_runtime_error(monkeypatch):
    _stop_at_call(monkeypatch, 5)
    others = tuple(check_id for check_id, _, _ in casebook.CHECKS if check_id != "first_n1")
    checks = casebook.full_report(7, skip=others)
    assert [(c.id, c.passed, c.params) for c in checks] == [
        ("first_n1", False, {"error": "RuntimeError: expression evaluation raised StopIteration"})]


def test_a_number_f_on_an_empty_batch_evaluates_nothing(monkeypatch):
    monkeypatch.setattr(exprlang, "eval_expr", None)  # any call would fail
    empty = (np.empty(0, dtype=complex),) * 2
    assert kernels._f_at(exprlang.parse_expr("1/0", 2), empty).shape == (0,)


def test_phi_pole_on_incidence_hyperplane():
    form = phi(1, (0j,))
    with pytest.raises(PoleError):
        form.evaluate((0, 1, 5), [(0, 0, 1)])


def test_phi_psi_scale_invariance():
    rng = random.Random(10)
    z = (0.3 + 0.1j,)
    lam = 2 + 1j
    for form, degree in ((phi(1, z), 1), (psi(1, z), 2)):
        for _ in range(50):
            p = (_rand_c(rng) + 1.5, _rand_c(rng), _rand_c(rng))
            vecs = [_rand_vec(rng, 3) for _ in range(degree)]
            scaled_p = (lam * p[0], lam * p[1], p[2])
            scaled_vecs = [(lam * v[0], lam * v[1], v[2]) for v in vecs]
            base = form.evaluate(p, vecs)
            assert form.evaluate(scaled_p, scaled_vecs) == pytest.approx(
                base, rel=1e-12)


def test_d_phi_equals_n_psi_pointwise():
    rng = random.Random(11)
    for n, z in ((1, (0.3 + 0.1j,)), (2, (0.2 + 0j, -0.1 + 0j))):
        phi_form = phi(n, z)
        psi_form = psi(n, z)
        for _ in range(20):
            p = tuple(_rand_c(rng) + (1.2 if i == 0 else 0)
                      for i in range(2 * n + 1))
            vecs = [_rand_vec(rng, 2 * n + 1) for _ in range(2 * n)]
            lhs = forms.d_numeric(phi_form, p, vecs)
            rhs = n * psi_form.evaluate(p, vecs)
            assert abs(lhs - rhs) <= 1e-5 * max(abs(lhs), abs(rhs), 1e-30)


# ---------------------------------------------------------- chart identity

def test_phi_chart_identity_small_gap():
    rng = random.Random(12)
    for n in (2, 3):
        for _ in range(10):
            p = tuple(_rand_c(rng) + (1 if i < 2 else 0)
                      for i in range(2 * n + 1))
            vecs = [_rand_vec(rng, 2 * n + 1) for _ in range(2 * n - 1)]
            lhs = phi(n, (0j,) * n).evaluate_many((p,), (vecs,))[0]
            rhs = phi_chart_formula(n).evaluate_many((p,), (vecs,))[0]
            assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), abs(rhs), 1e-30)


def test_phi_chart_identity_repeated_vector_zero():
    rng = random.Random(13)
    p = tuple(_rand_c(rng) + 1 for _ in range(5))
    v = _rand_vec(rng, 5)
    w = _rand_vec(rng, 5)
    lhs = phi(2, (0j, 0j)).evaluate(p, [v, w, v])
    rhs = kernels.phi_chart_formula(2).evaluate(p, [v, w, v])
    assert lhs == 0
    assert rhs == 0


def _chart_formula_with_a_power_per_term(n):
    """phi_chart_formula(n) with xi_1^2 taken again by each d(y_j/y_1) term."""
    dim = 2 * n + 1
    factors = [KForm(1, dim, terms={
        (j,): lambda p: forms.div(p[1], forms.power(p[1], 2)),
        (1,): lambda p, j=j: forms.div(-p[j], forms.power(p[1], 2))})
        for j in range(2, n + 1)]
    factors.append(_basis_form("omega", n))
    return forms.scale(functools.reduce(forms.wedge, factors),
                       lambda p: forms.power(forms.div(p[1], p[0]), n))


@pytest.mark.parametrize("n", [2, 3])
def test_chart_formula_takes_xi1_squared_once_per_batch(monkeypatch, n):
    # one power for the prefactor and one xi_1^2 for every factor, where each
    # term taking its own made 3 powers per batch at n = 2 and 5 at n = 3
    rng = random.Random(29)
    points = [tuple(_rand_c(rng) + (1 if i < 2 else 0) for i in range(2 * n + 1))
              for _ in range(6)]
    frames = [[_rand_vec(rng, 2 * n + 1) for _ in range(2 * n - 1)] for _ in range(6)]
    want = _chart_formula_with_a_power_per_term(n).evaluate_many(points, frames)
    form = phi_chart_formula(n)
    calls = []
    power = forms.power
    monkeypatch.setattr(forms, "power", lambda a, k: calls.append(k) or power(a, k))
    got = form.evaluate_many(points, frames)
    assert sorted(calls) == [2, n]
    assert [repr(v) for v in got.tolist()] == [repr(v) for v in want.tolist()]


def test_kernel_builders_reject_a_dimension_they_do_not_build():
    for kernel in (phi, psi):
        with pytest.raises(InputError, match="dimension n must be >= 1"):
            kernel(0, ())
        with pytest.raises(InputError, match="base point z must have 2 coordinates"):
            kernel(2, (0j,))
    with pytest.raises(InputError, match="the chart formula needs n >= 2"):
        phi_chart_formula(1)


def test_phi_chart_identity_rejects_chart_singularity():
    with pytest.raises(InputError):
        phi_chart_formula(2).evaluate_many(((0, 1, 1, 0, 0),),
                                           ([(1, 0, 0, 0, 0)] * 3,))


# ----------------------------------------------------------- casebook forms

def test_residue_a_with_constant_f():
    # d(1 * ((a-1)x + 1)) = (a-1) dx
    a = 2 + 1j
    form = casebook_form("residue_A", {"a": a})
    assert form.evaluate((0.3,), [(1,)]) == pytest.approx(a - 1)


def test_residue_b_derivative_value():
    import cmath

    f = exprlang.parse_expr("exp(x)", 1)
    form = casebook_form("residue_B", f=f)
    x = 0.4 + 0.2j
    expected = cmath.exp(x) * ((x - 1) ** 2 + 2 * (x - 1))
    assert form.evaluate((x,), [(1,)]) == pytest.approx(expected)


def test_theta_d_matches_quoted_form():
    form = casebook_form("theta_D")
    # (1 - x1) dy1 ^ dx2 on ambient (y1, x2, x1)
    p = (0.5, 0.25, -2)
    val = form.evaluate(p, [(1, 0, 0), (0, 1, 0)])
    assert val == pytest.approx(3.0)


def test_integrand_e_value():
    form = casebook_form("integrand_E")
    u, v = 0.5, 0.25 + 0.25j
    val = form.evaluate((u, v), [(1, 0), (0, 1)])
    assert val == pytest.approx(((v - u) ** 3 + 1) / (u * v))


def test_casebook_unknown_id():
    with pytest.raises(InputError):
        casebook_form("sigma_Z")


def test_sigma_a_vanishes_on_q_and_s():
    f = exprlang.parse_expr("exp(x)+x^2", 1)
    a = 2 + 0.5j
    sigma = casebook_form("sigma_A", {"a": a}, f)
    for spec in (geometry.surface_catalog("Q", chart="eta"),
                 geometry.surface_catalog("S_A", (a,), chart="eta")):
        worst, scale = vanishing_max_and_scale(sigma, spec, seed=21, count=25)
        assert worst < 1e-9 * scale


def test_sigma_b_vanishes_on_q_and_s():
    f = exprlang.parse_expr("exp(x)", 1)
    sigma = casebook_form("sigma_B", f=f)
    for spec in (geometry.surface_catalog("Q", chart="eta"),
                 geometry.surface_catalog("S_B", chart="eta")):
        worst, scale = vanishing_max_and_scale(sigma, spec, seed=22, count=25)
        assert worst < 1e-9 * scale


def test_tau_d_vanishes_on_s_d():
    tau = casebook_form("tau_D")
    spec = geometry.surface_catalog("S_D", chart="U2")
    worst, scale = vanishing_max_and_scale(tau, spec, seed=23, count=25)
    assert worst < 1e-9 * scale


def test_tau_e_vanishes_on_s_e():
    tau = casebook_form("tau_E")
    spec = geometry.surface_catalog("S_E", chart="U2")
    worst, scale = vanishing_max_and_scale(tau, spec, seed=24, count=25)
    assert worst < 1e-9 * scale


def test_dx_does_not_vanish_on_q():
    spec = geometry.surface_catalog("Q", chart="eta")
    dx = KForm.basis(2, 1)
    worst = vanishing_max_and_scale(dx, spec, seed=25, count=10)[0]
    assert worst >= 0.1  # |dx(v)| = 1/sqrt(2) on the unit tangent of Q


def test_vanishing_max_rejects_wrong_chart_and_a_degree_above_the_surface():
    q = geometry.surface_catalog("Q", chart="eta")
    with pytest.raises(InputError, match="form and surface live on different charts"):
        vanishing_max_and_scale(KForm.basis(3, 1), q, 1, 2)
    with pytest.raises(InputError, match="form degree exceeds the surface dimension"):
        vanishing_max_and_scale(KForm.basis(2, 0, 1), q, 1, 2)


# ------------------------------------------------- displayed exactness checks

def test_sigma_b_exactness_identity(pointwise):
    # f*psi + d(sigma_B) = d eta/eta ^ d(f(x)(x-1)^2) + d theta, where the
    # smooth remainder theta = -f(eta+2x) d eta - 2 f dx contributes
    # d theta = (f'(eta+2x) + 2 f) d eta ^ dx.
    rng = random.Random(41)
    f = exprlang.parse_expr("exp(x)+x^2", 1)
    fp = exprlang.differentiate(f)
    g = exprlang.parse_expr("(x-1)^2", 1)
    dfg = exprlang.differentiate(exprlang.Mul(f, g))
    kernel = psi(1, (0j,), f)
    sigma = casebook_form("sigma_B", f=f)

    def rhs_coeff(p):
        eta, x = p
        lead = exprlang.eval_expr(dfg, (x,)) / eta
        smooth = (exprlang.eval_expr(fp, (x,)) * (eta + 2 * x)
                  + 2 * exprlang.eval_expr(f, (x,)))
        return lead + smooth

    rhs = KForm.basis(2, 0, 1, coeff=pointwise(rhs_coeff))
    for _ in range(25):
        p = (_rand_c(rng), _rand_c(rng))
        if abs(p[0]) < 0.3:
            continue
        vecs = [_rand_vec(rng, 2) for _ in range(2)]
        lhs = _on_lift(kernel, "eta", p, vecs) + forms.d_numeric(sigma, p, vecs)
        want = rhs.evaluate(p, vecs)
        assert abs(lhs - want) <= 1e-5 * max(abs(lhs), abs(want), 1e-30)


def test_tau_e_exactness_identity():
    # psi + (1/2) d tau_E = d y0/y0 ^ dy1 ^ dx1 ^ dx2, same shape as the
    # Example D identity.
    rng = random.Random(42)
    kernel = psi(2, (0j, 0j))
    tau = casebook_form("tau_E")
    rhs = KForm.basis(4, 0, 1, 2, 3, coeff=lambda p: 1 / p[0])
    for _ in range(15):
        p = tuple(_rand_c(rng) for _ in range(4))
        if abs(p[0]) < 0.3:
            continue
        vecs = [_rand_vec(rng, 4) for _ in range(4)]
        lhs = _on_lift(kernel, "U2", p, vecs) + 0.5 * forms.d_numeric(tau, p, vecs)
        want = rhs.evaluate(p, vecs)
        assert abs(lhs - want) <= 1e-5 * max(abs(lhs), abs(want), 1e-30)


def test_s_e_incidence_substitution():
    # On the y0 = 0 slice of S_E, solving for x1 gives
    # 1 - x1 = (x2^3 + 1) / ((y1 + x2)(y1 + 2 x2)).
    spec = geometry.surface_catalog("S_E", chart="U2")
    rng = random.Random(44)
    points = []
    while len(points) < 20:
        y1, x2 = _rand_c(rng), _rand_c(rng)
        den = (y1 + x2) * (y1 + 2 * x2)
        if abs(den) < 0.1:
            continue
        points.append((0j, y1, 1 - (x2 ** 3 + 1) / den, x2))
    cols = tuple(np.array(points).T)
    assert (np.abs(spec.value(cols)) < 1e-12 * (1 + np.abs(cols[2]))).all()


# ------------------------------------------------------ catalog antisymmetry

def _catalog():
    """Every named form of degree >= 2, at generic parameters."""
    f = exprlang.parse_expr("exp(x)+x^2", 1)
    z2 = (0.2 - 0.1j, 0.1 + 0.05j)
    return {
        "omega_n2": _basis_form("omega", 2),
        "omega_star_n2": _basis_form("omega_star", 2),
        "psi_n1": psi(1, (0.3 + 0.1j,), f),
        "phi_n2": phi(2, z2),
        "psi_n2": psi(2, z2),
        **{name: casebook_form(name)
           for name in ("tau_D", "tau_E", "theta_D", "integrand_E")},
    }


def test_catalog_forms_antisymmetric_and_multilinear():
    rng = random.Random(99)
    for name, form in _catalog().items():
        for _ in range(100):
            p = tuple(_rand_c(rng) + (1.1 if i <= 1 else 0)
                      for i in range(form.dim))
            vecs = [_rand_vec(rng, form.dim) for _ in range(form.degree)]
            i, j = rng.sample(range(form.degree), 2)
            swapped = list(vecs)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            base = form.evaluate(p, vecs)
            assert form.evaluate(p, swapped) == -base, name
            c = _rand_c(rng)
            scaled = list(vecs)
            scaled[i] = tuple(c * comp for comp in scaled[i])
            assert abs(form.evaluate(p, scaled) - c * base) \
                <= 1e-12 * max(1.0, abs(base)), name
