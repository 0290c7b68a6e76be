import math
import random

import pytest

from cflab import exprlang, forms, geometry, kernels
from cflab.errors import (ChartDomainError, DimensionMismatchError, InputError,
                          PoleError)
from cflab.forms import KForm
from cflab.kernels import (casebook_form, catalog_entries, kernel_basis_form,
                           kernel_on_chart, phi, phi_chart_identity_gap, psi,
                           vanishing_max, vanishing_scale)


def _rand_c(rng, r=1.0):
    return complex(rng.uniform(-r, r), rng.uniform(-r, r))


def _rand_vec(rng, dim):
    return tuple(_rand_c(rng) for _ in range(dim))


# ------------------------------------------------------------ basis kernels

def test_omega_prime_n1_is_xi1():
    form = kernel_basis_form("omega_prime", 1)
    assert form.degree == 0
    assert form.evaluate((5, 3, 0), ()) == 3


def test_omega_star_n1_values():
    form = kernel_basis_form("omega_star", 1)
    # omega* = xi0 d xi1 - xi1 d xi0 evaluated on d/d xi0
    assert form.evaluate((2, 1, 0), [(1, 0, 0)]) == -1
    assert form.evaluate((2, 1, 0), [(0, 1, 0)]) == 2


def test_omega_n2_unit_determinant():
    form = kernel_basis_form("omega", 2)
    e_x1 = (0, 0, 0, 1, 0)
    e_x2 = (0, 0, 0, 0, 1)
    assert form.evaluate((0, 0, 0, 0, 0), [e_x1, e_x2]) == 1


def test_kernel_basis_unknown_kind():
    with pytest.raises(InputError):
        kernel_basis_form("omega_hat", 1)


# -------------------------------------------------------------------- phi

def test_phi_n1_eta_chart_value():
    # On the lift xi = (eta, 1) with z = 0, phi is dx/eta.
    form = phi(1, (0j,))
    assert form.evaluate((2, 1, 7), [(0, 0, 1)]) == pytest.approx(0.5)


def test_phi_n2_u2_chart_formula():
    # On the section xi = (y0, y1, 1), phi = -y0^-2 dy1 ^ dx1 ^ dx2.
    rng = random.Random(8)
    chart = kernel_on_chart(phi(2, (0j, 0j)), "U2")
    reference = KForm.basis(4, 1, 2, 3, coeff=lambda p: -1 / p[0] ** 2)
    for _ in range(20):
        p = tuple(_rand_c(rng) for _ in range(4))
        if abs(p[0]) < 0.2:
            continue
        vecs = [_rand_vec(rng, 4) for _ in range(3)]
        assert chart.evaluate(p, vecs) == pytest.approx(
            reference.evaluate(p, vecs), rel=1e-12)


def test_psi_n1_eta_chart_formula():
    # eta^-2 dx ^ d eta on the lift.
    form = psi(1, (0j,))
    val = form.evaluate((1, 1, 3), [(0, 0, 1), (1, 0, 0)])
    assert val == pytest.approx(1.0)


def test_psi_n2_u2_chart_formula():
    rng = random.Random(9)
    chart = kernel_on_chart(psi(2, (0j, 0j)), "U2")
    reference = KForm.basis(4, 0, 1, 2, 3, coeff=lambda p: 1 / p[0] ** 3)
    for _ in range(20):
        p = tuple(_rand_c(rng) for _ in range(4))
        if abs(p[0]) < 0.2:
            continue
        vecs = [_rand_vec(rng, 4) for _ in range(4)]
        assert chart.evaluate(p, vecs) == pytest.approx(
            reference.evaluate(p, vecs), rel=1e-12)


def _lift(chart, coords, held):
    # The unit sections of kernels.kernel_on_chart, with `held` in the slot
    # the chart holds fixed.
    if chart == "eta":
        return (coords[0], held, coords[1])
    return coords[:2] + (held,) + coords[2:]


@pytest.mark.parametrize("kernel, n, chart", [
    (phi, 1, "eta"), (psi, 1, "eta"), (phi, 2, "U2"), (psi, 2, "U2")])
def test_kernel_on_chart_equals_lifted_evaluation_exactly(kernel, n, chart):
    # The chart form drops the held coordinate's terms, whose minors vanish
    # on lifted vectors, so both sides run the same arithmetic.
    rng = random.Random(50 + n)
    f = exprlang.parse_expr("exp(x)+x^2", 1) if n == 1 else None
    z = (0j,) * n
    ambient = kernel(n, z, f)
    section = kernel_on_chart(ambient, chart)
    chart_dim = 2 * n
    for _ in range(50):
        q = _rand_vec(rng, chart_dim)
        if abs(q[0]) < 0.1:
            continue
        vecs = [_rand_vec(rng, chart_dim) for _ in range(ambient.degree)]
        want = ambient.evaluate(_lift(chart, q, 1 + 0j),
                                [_lift(chart, v, 0j) for v in vecs])
        assert section.evaluate(q, vecs) == want


def test_kernel_on_chart_rejects_wrong_ambient():
    with pytest.raises(DimensionMismatchError):
        kernel_on_chart(phi(1, (0j,)), "U2")


def _reference_kernel(name, basis, power, n, z, f):
    """f / (xi.z)^power scaling wedge(basis, omega), built from the algebra."""
    z = tuple(complex(c) for c in z)

    def coeff(p):
        den = p[0] + sum(p[1 + k] * z[k] for k in range(n))
        if den == 0:
            raise PoleError(f"{name} evaluated on xi.z = 0", point=p)
        fx = 1 + 0j if f is None else exprlang.eval_expr(f, p[n + 1:])
        return fx / den ** power

    body = forms.wedge(kernel_basis_form(basis, n), kernel_basis_form("omega", n))
    return forms.scale(body, coeff)


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
                                                       extra, n):
    rng = random.Random(70 + n)
    dim = 2 * n + 1
    z = tuple(_rand_c(rng, 0.3) for _ in range(n))
    for f in (None, exprlang.parse_expr(_F_BY_N[n], n)):
        fused = kernel(n, z, f)
        ref = _reference_kernel(name, basis, n + extra, n, z, f)
        assert (fused.degree, fused.dim) == (ref.degree, ref.dim)
        assert list(fused.terms) == list(ref.terms)
        for _ in range(40):
            p = tuple(_signed_zero_c(rng) for _ in range(dim))
            p = (p[0] + 2,) + p[1:]
            for key in ref.terms:
                assert repr(fused.terms[key](p)) == repr(ref.terms[key](p))
            vecs = [_rand_vec(rng, dim) for _ in range(fused.degree)]
            assert fused.evaluate(p, vecs) == ref.evaluate(p, vecs)
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
            assert phi_chart_identity_gap(n, p, vecs) < 1e-10


def test_phi_chart_identity_repeated_vector_zero():
    rng = random.Random(13)
    p = tuple(_rand_c(rng) + 1 for _ in range(5))
    v = _rand_vec(rng, 5)
    w = _rand_vec(rng, 5)
    lhs = phi(2, (0j, 0j)).evaluate(p, [v, w, v])
    rhs = kernels.phi_chart_formula(2).evaluate(p, [v, w, v])
    assert lhs == 0
    assert rhs == 0


def test_phi_chart_identity_rejects_chart_singularity():
    with pytest.raises(ChartDomainError):
        phi_chart_identity_gap(2, (0, 1, 1, 0, 0), [(1, 0, 0, 0, 0)] * 3)


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
                 geometry.surface_catalog("S_A", (a,))):
        worst = vanishing_max(sigma, spec, seed=21, count=25)
        scale = vanishing_scale(sigma, spec, seed=21, count=25)
        assert worst < 1e-9 * scale


def test_sigma_b_vanishes_on_q_and_s():
    f = exprlang.parse_expr("exp(x)", 1)
    sigma = casebook_form("sigma_B", f=f)
    for spec in (geometry.surface_catalog("Q", chart="eta"),
                 geometry.surface_catalog("S_B")):
        worst = vanishing_max(sigma, spec, seed=22, count=25)
        scale = vanishing_scale(sigma, spec, seed=22, count=25)
        assert worst < 1e-9 * scale


def test_tau_d_vanishes_on_s_d():
    tau = casebook_form("tau_D")
    spec = geometry.surface_catalog("S_D")
    worst = vanishing_max(tau, spec, seed=23, count=25)
    scale = vanishing_scale(tau, spec, seed=23, count=25)
    assert worst < 1e-9 * scale


def test_tau_e_vanishes_on_s_e():
    tau = casebook_form("tau_E")
    spec = geometry.surface_catalog("S_E")
    worst = vanishing_max(tau, spec, seed=24, count=25)
    scale = vanishing_scale(tau, spec, seed=24, count=25)
    assert worst < 1e-9 * scale


def test_dx_does_not_vanish_on_q():
    spec = geometry.surface_catalog("Q", chart="eta")
    dx = KForm.basis(2, 1)
    worst = vanishing_max(dx, spec, seed=25, count=10)
    assert worst >= 0.1  # |dx(v)| = 1/sqrt(2) on the unit tangent of Q


def test_vanishing_max_rejects_wrong_chart():
    dx = KForm.basis(3, 1)
    with pytest.raises(InputError):
        vanishing_max(dx, geometry.surface_catalog("Q", chart="eta"), 1, 2)


# ------------------------------------------------- displayed exactness checks

def test_sigma_b_exactness_identity():
    # f*psi + d(sigma_B) = d eta/eta ^ d(f(x)(x-1)^2) + d theta, where the
    # smooth remainder theta = -f(eta+2x) d eta - 2 f dx contributes
    # d theta = (f'(eta+2x) + 2 f) d eta ^ dx.
    rng = random.Random(41)
    f = exprlang.parse_expr("exp(x)+x^2", 1)
    fp = exprlang.differentiate(f)
    g = exprlang.parse_expr("(x-1)^2", 1)
    dfg = exprlang.differentiate(exprlang.Mul(f, g))
    psi_chart = kernel_on_chart(psi(1, (0j,), f), "eta")
    sigma = casebook_form("sigma_B", f=f)

    def rhs_coeff(p):
        eta, x = p
        lead = exprlang.eval_expr(dfg, (x,)) / eta
        smooth = (exprlang.eval_expr(fp, (x,)) * (eta + 2 * x)
                  + 2 * exprlang.eval_expr(f, (x,)))
        return lead + smooth

    rhs = KForm.basis(2, 0, 1, coeff=rhs_coeff)
    for _ in range(25):
        p = (_rand_c(rng), _rand_c(rng))
        if abs(p[0]) < 0.3:
            continue
        vecs = [_rand_vec(rng, 2) for _ in range(2)]
        lhs = psi_chart.evaluate(p, vecs) + forms.d_numeric(sigma, p, vecs)
        want = rhs.evaluate(p, vecs)
        assert abs(lhs - want) <= 1e-5 * max(abs(lhs), abs(want), 1e-30)


def test_tau_e_exactness_identity():
    # psi + (1/2) d tau_E = d y0/y0 ^ dy1 ^ dx1 ^ dx2, same shape as the
    # Example D identity.
    rng = random.Random(42)
    psi_chart = kernel_on_chart(psi(2, (0j, 0j)), "U2")
    tau = casebook_form("tau_E")
    rhs = KForm.basis(4, 0, 1, 2, 3, coeff=lambda p: 1 / p[0])
    for _ in range(15):
        p = tuple(_rand_c(rng) for _ in range(4))
        if abs(p[0]) < 0.3:
            continue
        vecs = [_rand_vec(rng, 4) for _ in range(4)]
        lhs = psi_chart.evaluate(p, vecs) + 0.5 * forms.d_numeric(tau, p, vecs)
        want = rhs.evaluate(p, vecs)
        assert abs(lhs - want) <= 1e-5 * max(abs(lhs), abs(want), 1e-30)


def test_s_e_incidence_substitution():
    # On the y0 = 0 slice of S_E, solving for x1 gives
    # 1 - x1 = (x2^3 + 1) / ((y1 + x2)(y1 + 2 x2)).
    spec = geometry.surface_catalog("S_E")
    rng = random.Random(44)
    produced = 0
    while produced < 20:
        y1, x2 = _rand_c(rng), _rand_c(rng)
        den = (y1 + x2) * (y1 + 2 * x2)
        if abs(den) < 0.1:
            continue
        x1 = 1 - (x2 ** 3 + 1) / den
        assert abs(spec.value((0j, y1, x1, x2))) < 1e-12 * (1 + abs(x1))
        produced += 1


# ------------------------------------------------------ catalog antisymmetry

def test_catalog_forms_antisymmetric_and_multilinear():
    rng = random.Random(99)
    for entry in catalog_entries():
        form = entry.form
        if form.degree < 2:
            continue
        for _ in range(100):
            p = tuple(_rand_c(rng) + (1.1 if i <= 1 else 0)
                      for i in range(form.dim))
            vecs = [_rand_vec(rng, form.dim) for _ in range(form.degree)]
            i, j = rng.sample(range(form.degree), 2)
            swapped = list(vecs)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            base = form.evaluate(p, vecs)
            assert form.evaluate(p, swapped) == -base, entry.id
            c = _rand_c(rng)
            scaled = list(vecs)
            scaled[i] = tuple(c * comp for comp in scaled[i])
            assert abs(form.evaluate(p, scaled) - c * base) \
                <= 1e-12 * max(1.0, abs(base)), entry.id
