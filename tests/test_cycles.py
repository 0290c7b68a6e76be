import cmath
import dataclasses
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cflab import cycles, exprlang, forms, kernels
from cflab.cycles import QuadratureSpec, integrate, make_cycle
from cflab.errors import (CflabError, DimensionMismatchError, InputError,
                          PoleError, UnsupportedKindError)
from cflab.forms import KForm

TWO_PI_I = 2j * math.pi


def test_circle_map_and_tangent():
    c = make_cycle("circle", center=0j, radius=1.0)
    assert c.map((math.pi / 2,))[0] == pytest.approx(1j)
    assert c.tangent((0.0,))[0][0] == pytest.approx(1j)


def test_make_cycle_validation():
    with pytest.raises(InputError):
        make_cycle("circle", center=0j, radius=-1.0)
    with pytest.raises(InputError):
        make_cycle("sphere_M", z=(0j,), eps=0.0)
    with pytest.raises(InputError):
        make_cycle("torus_D", eps=1.5)
    with pytest.raises(InputError):
        make_cycle("unknown_kind")


def test_torus_d_point_value():
    t = make_cycle("torus_D", eps=0.5)
    y1, x2, x1 = t.map((0.0, 0.0))
    assert y1 == pytest.approx(0.5)
    assert x2 == pytest.approx(0.5)
    assert x1 == pytest.approx(-7.0 / 3.0)


def _generic_torus(centers, radii):
    """A product of circles about ``centers`` with ``radii``, in C^k."""
    k = len(centers)

    def gmap(param):
        return tuple(c + r * np.exp(1j * t) for c, r, t in zip(centers, radii, param))

    def gtan(param):
        d = [1j * r * np.exp(1j * t) for r, t in zip(radii, param)]
        return tuple(tuple(d[j] if i == j else 0j for i in range(k)) for j in range(k))

    return cycles.Cycle(kind="torus_generic",
                        domain=cycles.ParamDomain((cycles.Circle(),) * k),
                        map=gmap, tangent=gtan, ambient_dim=k,
                        x_indices=tuple(range(k)),
                        reference_param=tuple(0.3 + 0.4 * j for j in range(k)))


def test_tangent_frames_match_finite_differences():
    specs = [
        make_cycle("circle", center=0.2 + 0.1j, radius=0.8),
        make_cycle("segment", start=1 + 0j, end=0j),
        make_cycle("sphere_M", z=(0.3 + 0.1j,), eps=0.7),
        make_cycle("sphere_M", z=(0.2 + 0j, -0.1 + 0j), eps=0.5),
        make_cycle("torus_D", eps=0.5),
        make_cycle("torus_E", r1=0.5, r2=0.4),
        _generic_torus(centers=(0j, 1j), radii=(0.5, 0.25)),
    ]
    h = 1e-6
    for cyc in specs:
        param = cyc.reference_param
        frame = cyc.tangent(param)
        for k in range(cyc.dim):
            plus = list(param)
            minus = list(param)
            plus[k] += h
            minus[k] -= h
            fp = cyc.map(tuple(plus))
            fm = cyc.map(tuple(minus))
            for i in range(cyc.ambient_dim):
                fd = (fp[i] - fm[i]) / (2 * h)
                scale = max(1.0, abs(frame[k][i]))
                assert abs(fd - frame[k][i]) < 1e-6 * scale, (cyc.kind, k, i)


def test_sphere_points_at_distance_eps():
    sphere = make_cycle("sphere_M", z=(0.2 + 0j, -0.1 + 0j), eps=0.5)
    for param in [(0.3, 0.1, 4.0), (1.2, 2.0, 0.5), sphere.reference_param]:
        point = sphere.map(param)
        x = point[3:]
        dist = math.sqrt(abs(x[0] - 0.2) ** 2 + abs(x[1] + 0.1) ** 2)
        assert dist == pytest.approx(0.5, abs=1e-13)


def test_orientation_sign_circle():
    c = make_cycle("circle", center=0j, radius=1.0)
    assert cycles.orientation_sign(c, (0j,)) == 1
    assert cycles.orientation_sign(c.reversed_factor(0), (0j,)) == -1


def test_orientation_sign_sphere_m_n2():
    sphere = make_cycle("sphere_M", z=(0j, 0j), eps=1.0)
    # The (psi, phi1, phi2) order parametrizes the 3-sphere inward.
    assert cycles.orientation_sign(sphere, (0j, 0j)) == -1


_CENTERS = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


@st.composite
def _boundary_spheres(draw):
    """A circle or a residue sphere (n = 1, 2) with an interior point."""
    kind = draw(st.sampled_from(["circle", "sphere_M_n1", "sphere_M_n2"]))
    if kind == "circle":
        center = draw(_CENTERS)
        cycle = make_cycle("circle", center=center,
                           radius=draw(st.floats(0.1, 3.0)))
        return cycle, (center,)
    z = tuple(draw(_CENTERS) for _ in range(1 if kind == "sphere_M_n1" else 2))
    return make_cycle("sphere_M", z=z, eps=draw(st.floats(0.1, 1.0))), z


@settings(settings.get_profile("cflab"), max_examples=80)
@given(_boundary_spheres(), st.data())
def test_orientation_sign_flips_under_reversed_factor(sphere, data):
    cycle, interior = sphere
    k = data.draw(st.integers(0, cycle.dim - 1))
    sign = cycles.orientation_sign(cycle, interior)
    assert cycles.orientation_sign(cycle.reversed_factor(k), interior) == -sign


def test_orientation_sign_rejects_torus():
    t = make_cycle("torus_E", r1=0.5, r2=0.5)
    with pytest.raises(UnsupportedKindError):
        cycles.orientation_sign(t, (0j, 0j))


def test_integrate_residue_of_dx_over_x():
    c = make_cycle("circle", center=0j, radius=1.0)
    form = KForm.basis(1, 0, coeff=lambda p: 1 / p[0])
    val = integrate(form, c, 64)
    assert abs(val - TWO_PI_I) < 1e-12


def test_integrate_exact_segment():
    seg = make_cycle("segment", start=1 + 0j, end=0j)
    val = integrate(KForm.basis(1, 0), seg, 8)
    assert abs(val - (-1)) < 1e-14


def test_integrate_quad_validation():
    c = make_cycle("circle", center=0j, radius=1.0)
    with pytest.raises(InputError):
        QuadratureSpec.of(2, 1)
    with pytest.raises(InputError):
        integrate(KForm.basis(1, 0), c, (8, 8))
    with pytest.raises(InputError):
        integrate(KForm.basis(2, 0, 0), c, 8)


def test_integrate_linearity_in_form():
    rng = random.Random(31)
    c = make_cycle("circle", center=0.1 + 0.2j, radius=0.9)
    f = KForm.basis(1, 0, coeff=lambda p: 1 / p[0])
    g = KForm.basis(1, 0, coeff=lambda p: p[0] ** 2 + 1)
    a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    combo = forms.add(forms.scale(f, a), forms.scale(g, b))
    lhs = integrate(combo, c, 64)
    rhs = a * integrate(f, c, 64) + b * integrate(g, c, 64)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_reversing_a_circle_factor_negates_integral():
    t = make_cycle("torus_E", r1=0.5, r2=0.5)
    form = kernels.casebook_form("integrand_E")
    base = integrate(form, t, (32, 32))
    for k in (0, 1):
        flipped = integrate(form, t.reversed_factor(k), (32, 32))
        assert abs(flipped + base) <= 1e-13 * abs(base)


def test_torus_d_integral_independent_of_eps():
    form = kernels.casebook_form("theta_D")
    v_small = integrate(form, make_cycle("torus_D", eps=0.3), (128, 128))
    v_large = integrate(form, make_cycle("torus_D", eps=0.7), (128, 128))
    assert abs(v_small - v_large) < 1e-8


def test_integrate_worker_counts_agree_bitwise():
    sphere = make_cycle("sphere_M", z=(0.2 + 0j, -0.1 + 0j), eps=0.5)
    form = kernels.phi(2, (0.2, -0.1))
    quad = QuadratureSpec.of((8, 12, 12), 3)
    v1 = integrate(form, sphere, quad, workers=1)
    v2 = integrate(form, sphere, quad, workers=2)
    v5 = integrate(form, sphere, quad, workers=5)
    assert v1 == v2 == v5


def test_pole_on_grid_raises_pole_error():
    # Gauss rule with odd node count hits the midpoint 0 of (-1, 1).
    seg = cycles.Cycle(
        kind="segment", domain=cycles.ParamDomain((cycles.Interval(0.0, 1.0),)),
        map=lambda t: (-1 + 2 * t[0] + 0j,),
        tangent=lambda t: ((2 + 0j,),),
        ambient_dim=1, x_indices=(0,), reference_param=(0.25,))
    form = KForm.basis(1, 0, coeff=lambda p: 1 / p[0])
    with pytest.raises(PoleError) as err:
        integrate(form, seg, 5)
    assert err.value.param is not None


def test_torus_integral_worker_counts_agree_bitwise():
    t = make_cycle("torus_D", eps=0.5)
    form = kernels.casebook_form("theta_D")
    v1 = integrate(form, t, (64, 64), workers=1)
    v3 = integrate(form, t, (64, 64), workers=3)
    assert v1 == v3


def test_integrand_e_pole_on_grid_raises():
    # The theta = 0 node maps u to exactly -0.5 + 0.5 = 0; the evaluation
    # must raise, not return garbage.
    t = _generic_torus(centers=(-0.5 + 0j, 1 + 0j), radii=(0.5, 0.5))
    form = kernels.casebook_form("integrand_E")
    with pytest.raises(PoleError):
        integrate(form, t, (8, 8))


# ------------------------------------------------- batched grid evaluation

def _reference_integral(form, cycle, sizes):
    """fsum of the one-point pullback times the tensor weights."""
    rules = []
    for factor, n in zip(cycle.domain.factors, sizes):
        if isinstance(factor, cycles.Circle):
            rules.append([(2 * math.pi / n * j, 2 * math.pi / n)
                          for j in range(n)])
        else:
            nodes, weights = np.polynomial.legendre.leggauss(n)
            mid, half = (factor.a + factor.b) / 2, (factor.b - factor.a) / 2
            rules.append([(mid + half * float(t), half * float(w))
                          for t, w in zip(nodes, weights)])
    terms = []
    for combo in itertools.product(*rules):
        param = tuple(node for node, _ in combo)
        weight = math.prod(w for _, w in combo)
        terms.append(weight * forms.pullback_integrand(form, cycle, param))
    return complex(math.fsum(t.real for t in terms),
                   math.fsum(t.imag for t in terms))


def _scalar_detour():
    # A user cycle written with cmath: its callables accept floats only.
    return cycles.Cycle(
        kind="segment", domain=cycles.ParamDomain((cycles.Interval(0.0, 1.0),)),
        map=lambda t: (0.5 + 0.5 * cmath.exp(1j * math.pi * t[0]),),
        tangent=lambda t: ((0.5j * math.pi * cmath.exp(1j * math.pi * t[0]),),),
        ambient_dim=1, x_indices=(0,), reference_param=(0.5,))


_LINE_FORM = KForm.basis(1, 0, coeff=lambda p: 1 / p[0] + p[0] ** 2 - 1j)
_SPHERE_2 = make_cycle("sphere_M", z=(0.2 + 0j, -0.1 + 0.3j), eps=0.5)
_TORUS_E = make_cycle("torus_E", r1=0.5, r2=0.4)

AGREEMENT_CASES = {
    "circle": (_LINE_FORM, make_cycle("circle", center=0.1 + 0.2j, radius=0.9),
               (64,)),
    "segment": (_LINE_FORM, make_cycle("segment", start=1 + 1j, end=2 - 1j),
                (16,)),
    "sphere_M_n1": (kernels.phi(1, (0.3 + 0.1j,), exprlang.parse_expr("exp(x)", 1)),
                    make_cycle("sphere_M", z=(0.3 + 0.1j,), eps=0.7), (64,)),
    # 16 * 24 * 24 points: more than one block
    "sphere_M_n2": (kernels.phi(2, (0.2 + 0j, -0.1 + 0.3j),
                                exprlang.parse_expr("x1^2*x2+3", 2)),
                    _SPHERE_2, (16, 24, 24)),
    "torus_D": (kernels.casebook_form("theta_D"),
                make_cycle("torus_D", eps=0.4), (32, 32)),
    "torus_E": (kernels.casebook_form("integrand_E"), _TORUS_E, (32, 32)),
    "torus_generic": (kernels.casebook_form("integrand_E"),
                      _generic_torus(centers=(0.1j, 0.2 + 0j), radii=(0.5, 0.4)),
                      (16, 24)),
    "reversed_circle_factor": (kernels.casebook_form("integrand_E"),
                               _TORUS_E.reversed_factor(1), (32, 32)),
    "reversed_interval_factor": (kernels.phi(2, (0.2 + 0j, -0.1 + 0.3j)),
                                 _SPHERE_2.reversed_factor(0), (8, 12, 12)),
    "scalar_only_user_cycle": (_LINE_FORM, _scalar_detour(), (24,)),
    "negative_orientation": (kernels.casebook_form("integrand_E"),
                             dataclasses.replace(_TORUS_E, orientation=-1),
                             (16, 16)),
}


@pytest.mark.parametrize("case", sorted(AGREEMENT_CASES))
def test_batched_integrate_matches_pointwise_reference(case):
    form, cycle, sizes = AGREEMENT_CASES[case]
    value = integrate(form, cycle, sizes)
    reference = _reference_integral(form, cycle, sizes)
    assert abs(value - reference) <= 1e-13 * abs(reference)


def _identity_torus():
    # Ambient point = parameter point, so a coefficient can name grid params.
    return cycles.Cycle(
        kind="torus_generic",
        domain=cycles.ParamDomain((cycles.Circle(), cycles.Circle())),
        map=lambda t: (t[0] + 0j, t[1] + 0j),
        tangent=lambda t: ((1 + 0j, 0j), (0j, 1 + 0j)),
        ambient_dim=2, x_indices=(0, 1), reference_param=(0.4, 1.1))


@pytest.mark.parametrize("raised", [ZeroDivisionError, PoleError, None])
def test_pole_error_names_first_param_in_grid_order(raised):
    sizes = (128, 64)
    h0, h1 = 2 * math.pi / sizes[0], 2 * math.pi / sizes[1]
    first, later = (h0 * 70, h1 * 50), (h0 * 100, h1 * 3)
    # Both poles lie past the first block; ``later`` has the smaller second
    # index, ``first`` comes first in parameter-lexicographic order.
    assert 70 * sizes[1] + 50 > cycles.BLOCK_POINTS

    def coeff(p):
        at = (p[0].real, p[1].real)
        if at == first and raised is None:
            return complex("nan")  # a non-finite value before a pole
        if at in (first, later):
            raise (raised or ZeroDivisionError)("pole")
        return p[0] * p[1]

    form = KForm.basis(2, 0, 1, coeff=forms.pointwise(coeff))
    with pytest.raises(PoleError) as err:
        integrate(form, _identity_torus(), sizes)
    assert err.value.param == first


def test_non_finite_map_raises_with_param():
    # Odd Gauss rules put a node at the midpoint 0.5, where the numpy
    # division inside the map divides by an exact zero.
    seg = cycles.Cycle(
        kind="segment", domain=cycles.ParamDomain((cycles.Interval(0.0, 1.0),)),
        map=lambda t: (1 / (2 * t[0] - 1) + 0j,),
        tangent=lambda t: (((-2 + 0j) / (2 * t[0] - 1) ** 2,),),
        ambient_dim=1, x_indices=(0,), reference_param=(0.25,))
    with pytest.raises(CflabError) as err:
        integrate(KForm.basis(1, 0), seg, 5)
    assert err.value.param == (0.5,)


def test_scalar_only_map_division_by_zero_raises_with_param():
    seg = cycles.Cycle(
        kind="segment", domain=cycles.ParamDomain((cycles.Interval(0.0, 1.0),)),
        map=lambda t: (cmath.exp(1j * t[0]) / (t[0] - 0.5),),
        tangent=lambda t: ((1 + 0j,),),
        ambient_dim=1, x_indices=(0,), reference_param=(0.25,))
    with pytest.raises(CflabError) as err:
        integrate(KForm.basis(1, 0), seg, 7)
    assert err.value.param == (0.5,)


def test_non_finite_value_raises_instead_of_returning_nan():
    sizes = (16, 16)
    h = 2 * math.pi / 16
    bad = (h * 9, h * 2)

    def coeff(p):
        return complex("nan") if (p[0].real, p[1].real) == bad else 1 + 0j

    form = KForm.basis(2, 0, 1, coeff=forms.pointwise(coeff))
    with pytest.raises(CflabError) as err:
        integrate(form, _identity_torus(), sizes)
    assert err.value.param == bad


# ------------------------------------------- cached rules, resource bounds

_RULE_FACTORS = [cycles.Circle(), cycles.Interval(0.0, 1.0),
                 cycles.Interval(0.0, math.pi / 2)]


def _fresh_rule(factor, n):
    if isinstance(factor, cycles.Circle):
        h = 2.0 * math.pi / n
        return h * np.arange(n), np.full(n, h)
    nodes, weights = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (factor.a + factor.b), 0.5 * (factor.b - factor.a)
    return mid + half * nodes, half * weights


@pytest.mark.parametrize("factor", _RULE_FACTORS, ids=repr)
def test_factor_rules_are_read_only(factor):
    for array in cycles._factor_rule(factor, 16):
        with pytest.raises(ValueError):
            array[0] = 0.0


@pytest.mark.parametrize("factor", _RULE_FACTORS, ids=repr)
@pytest.mark.parametrize("n", [4, 16, 37, 128])
def test_factor_rules_equal_fresh_rules_bit_for_bit(factor, n):
    for _ in range(2):  # a miss, then a hit
        cached = cycles._factor_rule(factor, n)
        for got, want in zip(cached, _fresh_rule(factor, n)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def test_factor_rule_hit_does_not_recompute(monkeypatch):
    first = cycles._factor_rule(cycles.Interval(0.25, 0.75), 24)

    def boom(n):
        raise AssertionError("leggauss called on a cache hit")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", boom)
    again = cycles._factor_rule(cycles.Interval(0.25, 0.75), 24)
    assert again[0] is first[0] and again[1] is first[1]


def test_integrate_interval_cycle_repeats_exactly():
    seg = make_cycle("segment", start=1 + 0j, end=0.3j)
    form = KForm.basis(1, 0, coeff=lambda p: 1 / (p[0] + 2) + p[0] ** 3)
    values = [integrate(form, seg, (33,)) for _ in range(3)]
    assert values[0] == values[1] == values[2]
    assert values[0] == _reference_integral(form, seg, (33,))


@pytest.mark.parametrize("kind,params,sizes,message", [
    ("segment", {"start": 1 + 0j, "end": 0j}, (10 ** 6,), "Gauss-Legendre"),
    ("torus_E", {"r1": 0.5, "r2": 0.5}, (2 ** 12, 2 ** 12), "budget"),
], ids=["gauss_cap", "grid_budget"])
def test_oversized_grid_rejected_before_allocating(kind, params, sizes,
                                                   message, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("allocated for an oversized grid")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", boom)
    monkeypatch.setattr(np, "empty", boom)
    cycle = make_cycle(kind, **params)
    form = KForm.basis(cycle.ambient_dim, *range(cycle.dim))
    with pytest.raises(InputError, match=message):
        integrate(form, cycle, sizes)


def test_integral_whose_sum_overflows_raises_pole_error():
    # Every weighted value is finite (about 1e308 * 2 pi / 16), their sum
    # (about 2 pi * 1e308) is not.
    circle = make_cycle("circle", center=0j, radius=1.0)
    form = KForm.basis(1, 0, coeff=lambda p: 1e308 / (1j * p[0]))
    with pytest.raises(PoleError, match="overflows"):
        integrate(form, circle, 16)


@pytest.mark.parametrize("tangent", [
    lambda t: ((1 + 0j, 0j),), lambda t: (), lambda t: (((1 + 0j,),),),
], ids=["too_wide", "empty", "too_deep"])
def test_cycle_output_of_the_wrong_shape_raises(tangent):
    seg = cycles.Cycle(
        kind="segment", domain=cycles.ParamDomain((cycles.Interval(0.0, 1.0),)),
        map=lambda t: (t[0] + 0j,), tangent=tangent,
        ambient_dim=1, x_indices=(0,), reference_param=(0.5,))
    with pytest.raises(DimensionMismatchError):
        integrate(KForm.basis(1, 0), seg, 4)
