import itertools
import random

import pytest

from cflab import forms
from cflab.errors import DimensionMismatchError, InputError, PoleError
from cflab.forms import KForm


def _rand_c(rng, r=1.0):
    return complex(rng.uniform(-r, r), rng.uniform(-r, r))


def _rand_vec(rng, dim):
    return tuple(_rand_c(rng) for _ in range(dim))


E1 = (1, 0)
E2 = (0, 1)


def test_wedge_unit_determinant():
    dxdy = forms.wedge(KForm.basis(2, 0), KForm.basis(2, 1))
    assert dxdy.evaluate((0, 0), [E1, E2]) == 1


def test_wedge_self_is_zero():
    dxdx = forms.wedge(KForm.basis(2, 0), KForm.basis(2, 0))
    rng = random.Random(3)
    for _ in range(10):
        v = [_rand_vec(rng, 2), _rand_vec(rng, 2)]
        assert dxdx.evaluate((0, 0), v) == 0


def test_wedge_bilinear_scaling():
    f = forms.wedge(KForm.basis(2, 0, coeff=2), KForm.basis(2, 1, coeff=3))
    assert f.evaluate((0, 0), [E1, E2]) == 6


def test_wedge_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        forms.wedge(KForm.basis(2, 0), KForm.basis(3, 0))


def test_wedge_anticommutes_for_one_forms():
    rng = random.Random(5)
    a = KForm.basis(3, 0, coeff=lambda p: p[1] + 2)
    b = KForm.basis(3, 2, coeff=lambda p: p[0] * p[2] + 1j)
    ab = forms.wedge(a, b)
    ba = forms.wedge(b, a)
    for _ in range(20):
        p = _rand_vec(rng, 3)
        v = [_rand_vec(rng, 3), _rand_vec(rng, 3)]
        assert ab.evaluate(p, v) == pytest.approx(-ba.evaluate(p, v))


def test_wedge_associative_on_random_triples():
    rng = random.Random(7)
    for _ in range(20):
        coeffs = [[_rand_c(rng) for _ in range(4)] for _ in range(3)]
        one_forms = []
        for c in coeffs:
            terms = forms.add(
                forms.add(KForm.basis(4, 0, coeff=c[0]),
                          KForm.basis(4, 1, coeff=c[1])),
                forms.add(KForm.basis(4, 2, coeff=c[2]),
                          KForm.basis(4, 3, coeff=c[3])))
            one_forms.append(terms)
        a, b, c3 = one_forms
        left = forms.wedge(forms.wedge(a, b), c3)
        right = forms.wedge(a, forms.wedge(b, c3))
        p = _rand_vec(rng, 4)
        v = [_rand_vec(rng, 4) for _ in range(3)]
        lv, rv = left.evaluate(p, v), right.evaluate(p, v)
        assert abs(lv - rv) <= 1e-12 * max(1.0, abs(lv))


def test_evaluate_arity_and_dim_checks():
    f = KForm.basis(2, 0)
    with pytest.raises(InputError):
        f.evaluate((0, 0), [])
    with pytest.raises(DimensionMismatchError):
        f.evaluate((0, 0), [(1, 0, 0)])
    with pytest.raises(DimensionMismatchError):
        f.evaluate((0, 0, 0), [E1])


def test_one_form_on_zero_vector():
    f = KForm.basis(2, 0, coeff=lambda p: p[1] ** 2 + 1)
    assert f.evaluate((2, 3), [(0, 0)]) == 0


def test_antisymmetry_is_exact_sign_flip():
    rng = random.Random(9)
    f = forms.wedge(KForm.basis(3, 0, coeff=lambda p: p[2] + 0.5),
                    KForm.basis(3, 1, coeff=lambda p: 1 / (p[0] + 3)))
    for _ in range(50):
        p = _rand_vec(rng, 3)
        v1, v2 = _rand_vec(rng, 3), _rand_vec(rng, 3)
        assert f.evaluate(p, [v1, v2]) == -f.evaluate(p, [v2, v1])


def test_antisymmetry_exact_for_degree_three():
    rng = random.Random(10)
    f = forms.wedge_all([KForm.basis(4, 0), KForm.basis(4, 1),
                         KForm.basis(4, 3, coeff=lambda p: p[2])])
    for _ in range(30):
        p = _rand_vec(rng, 4)
        v = [_rand_vec(rng, 4) for _ in range(3)]
        base = f.evaluate(p, v)
        assert f.evaluate(p, [v[1], v[0], v[2]]) == -base
        assert f.evaluate(p, [v[0], v[2], v[1]]) == -base
        assert f.evaluate(p, [v[2], v[1], v[0]]) == -base


def test_multilinearity_in_each_slot():
    rng = random.Random(12)
    f = forms.wedge(KForm.basis(3, 0, coeff=lambda p: p[1]),
                    KForm.basis(3, 2))
    for _ in range(30):
        p = _rand_vec(rng, 3)
        v1, v2 = _rand_vec(rng, 3), _rand_vec(rng, 3)
        c = _rand_c(rng)
        scaled = f.evaluate(p, [tuple(c * x for x in v1), v2])
        plain = f.evaluate(p, [v1, v2])
        assert abs(scaled - c * plain) <= 1e-12 * max(1.0, abs(plain))


def test_d_numeric_of_x_dy():
    # d(x dy) = dx ^ dy
    f = KForm.basis(2, 1, coeff=lambda p: p[0])
    rng = random.Random(1)
    for _ in range(5):
        p = _rand_vec(rng, 2)
        val = forms.d_numeric(f, p, [E1, E2])
        assert abs(val - 1) < 1e-8


def test_d_numeric_constant_coefficients_vanish():
    f = forms.add(KForm.basis(2, 0, coeff=2 + 1j), KForm.basis(2, 1, coeff=-3))
    val = forms.d_numeric(f, (0.4, -0.2), [E1, E2])
    assert abs(val) < 1e-8


def _d_form(form):
    """d(form) as terms: the coefficient of dz_J is d_numeric on the unit
    frame e_J."""
    def unit(i):
        return tuple(1 if j == i else 0 for j in range(form.dim))

    terms = {
        key: (lambda p, frame=tuple(unit(i) for i in key):
              forms.d_numeric(form, p, frame))
        for key in itertools.combinations(range(form.dim), form.degree + 1)
    }
    return KForm(form.degree + 1, form.dim, terms=terms)


def test_d_numeric_squared_is_small():
    rng = random.Random(21)
    f = KForm.basis(3, 1, coeff=lambda p: p[0] ** 2 * p[2] + p[1])
    df = _d_form(f)
    for _ in range(10):
        p = _rand_vec(rng, 3)
        v = [_rand_vec(rng, 3) for _ in range(3)]
        scale = max(1.0, abs(df.evaluate(p, v[:2])))
        assert abs(forms.d_numeric(df, p, v)) < 1e-4 * scale


def test_chart_section_reorders_with_sign():
    # (u, v) -> (v, 2, u): dz0 ^ dz2 restricts to dv ^ du = -du ^ dv, and
    # the dz1 term drops out because z1 is held.
    form = forms.add(KForm.basis(3, 0, 2, coeff=lambda p: p[1]),
                     KForm.basis(3, 1, 2, coeff=5))
    section = forms.chart_section(form, (1, 2 + 0j, 0))
    assert list(section.terms) == [(0, 1)]
    assert section.evaluate((0.5, 0.25), [(1, 0), (0, 1)]) == -2


def test_pullback_integrand_circle():
    from cflab import cycles

    circle = cycles.make_cycle("circle", center=0j, radius=1.0)
    form = KForm.basis(1, 0, coeff=lambda p: 1 / p[0])
    val = forms.pullback_integrand(form, circle, (0.0,))
    assert val == pytest.approx(1j)


def test_pullback_integrand_segment_constant():
    from cflab import cycles

    seg = cycles.make_cycle("segment", start=1 + 0j, end=0j)
    form = KForm.basis(1, 0)
    for t in (0.0, 0.3, 0.9):
        assert forms.pullback_integrand(form, seg, (t,)) == -1


def test_pullback_integrand_degree_zero():
    from cflab import cycles

    seg = cycles.make_cycle("segment", start=0j, end=1 + 0j)
    form = KForm.scalar(1, lambda p: p[0] ** 2)
    assert forms.pullback_integrand(form, seg, (0.5,)) == pytest.approx(0.25)


def test_pole_error_carries_point():
    form = KForm.basis(1, 0, coeff=lambda p: 1 / p[0])
    with pytest.raises(PoleError):
        form.evaluate((0j,), [(1,)])


def test_coefficient_scale_terms():
    f = forms.add(KForm.basis(2, 0, coeff=lambda p: 3 * p[1]),
                  KForm.basis(2, 1, coeff=lambda p: p[0]))
    assert f.coefficient_scale((2, 5)) == pytest.approx(15.0)
