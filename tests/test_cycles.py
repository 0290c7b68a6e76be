import cmath
import dataclasses
import itertools
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cflab import cycles, exprlang, forms, kernels
from cflab.cycles import integrate
from cflab.errors import CflabError, InputError, PoleError
from cflab.forms import KForm

TWO_PI_I = 2j * math.pi


def _circle(center=0j, radius=1.0):
    """A positively oriented circle about ``center`` in C."""
    return cycles.Cycle(
        kind="circle", factors=(cycles.Circle(),),
        map=lambda t: (center + radius * np.exp(1j * t[0]),),
        tangent=lambda t: ((1j * radius * np.exp(1j * t[0]),),),
        x_indices=(0,), reference_param=(0.7,))


def _reversed(cycle, k):
    """``cycle`` with its k-th parameter direction reversed: the map at the
    reflected param, and the k-th tangent vector negated."""
    factor = cycle.factors[k]

    def flip(param):
        param = list(param)
        param[k] = (-param[k] if isinstance(factor, cycles.Circle)
                    else factor.a + factor.b - param[k])
        return tuple(param)

    def ftan(param):
        frame = list(cycle.tangent(flip(param)))
        frame[k] = tuple(-c for c in frame[k])
        return tuple(frame)

    return cycles.Cycle(kind=cycle.kind, factors=cycle.factors,
                        map=lambda param: cycle.map(flip(param)), tangent=ftan,
                        x_indices=cycle.x_indices,
                        reference_param=flip(cycle.reference_param))


def test_at_is_one_column_of_a_block():
    for cyc in (cycles.sphere_M((0.2 + 0j, -0.1 + 0.3j), 0.5),
                cycles.torus_D(0.4), _circle(0.1j, 0.9)):
        params = tuple(np.linspace(0.1, 1.2, 5) + j for j in range(cyc.dim))
        block = [cycles._on_block(fn, params) for fn in (cyc.map, cyc.tangent)]
        for i in range(5):
            point, frame = cyc.at(tuple(float(a[i]) for a in params))
            assert point.tobytes() == block[0][..., i].tobytes()
            assert frame.tobytes() == block[1][..., i].tobytes()
        assert frame.shape == (cyc.dim, len(point))


@pytest.mark.parametrize("bad", ["map", "tangent"])
def test_at_raises_pole_error_with_param_when_not_finite(bad):
    def blows_up(t):
        return 1 / (t[0] - 0.5) + 0j

    seg = cycles.Cycle(
        kind="segment", factors=(cycles.Interval(0.0, 1.0),),
        map=lambda t: (blows_up(t) if bad == "map" else t[0] + 0j,),
        tangent=lambda t: ((blows_up(t) if bad == "tangent" else 1 + 0j,),))
    assert seg.at((0.25,))[0].tolist() == ([-4 + 0j] if bad == "map" else [0.25 + 0j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PoleError) as err:
            seg.at((0.5,))
    assert err.value.param == (0.5,)


def test_at_keeps_its_last_result_read_only():
    calls = []
    seg = cycles.Cycle(kind="segment", factors=(cycles.Interval(0.0, 1.0),),
                       map=lambda t: calls.append(t) or (t[0] + 0j,),
                       tangent=lambda t: ((1 + 0j,),))
    point, frame = seg.at((0.25,))
    again = seg.at((0.25,))
    assert again[0] is point and again[1] is frame and len(calls) == 1
    for array in (point, frame):
        with pytest.raises(ValueError):
            array[0] = 0
    assert seg.at((0.5,))[0].tolist() == [0.5 + 0j] and len(calls) == 2
    assert seg.at((0.25,))[0].tolist() == [0.25 + 0j] and len(calls) == 3


def test_cycle_needs_a_factor():
    with pytest.raises(InputError, match="at least one"):
        cycles.Cycle(kind="point", factors=(), map=lambda t: (0j,),
                     tangent=lambda t: ())


def test_cycle_constructors_validate_their_parameters():
    with pytest.raises(InputError, match="radii must be positive"):
        cycles.torus_E(-1.0, 0.5)
    with pytest.raises(InputError, match="eps must be positive"):
        cycles.sphere_M((0j,), 0.0)
    with pytest.raises(InputError, match="0 < eps < 1"):
        cycles.torus_D(1.5)
    with pytest.raises(InputError, match="interval needs a < b"):
        cycles.Interval(1.0, 1.0)


def test_torus_d_point_value():
    t = cycles.torus_D(0.5)
    y1, x2, x1 = t.at((0.0, 0.0))[0]
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

    return cycles.Cycle(kind="torus_generic", factors=(cycles.Circle(),) * k,
                        map=gmap, tangent=gtan, x_indices=tuple(range(k)),
                        reference_param=tuple(0.3 + 0.4 * j for j in range(k)))


def test_tangent_frames_match_finite_differences():
    specs = [
        _circle(center=0.2 + 0.1j, radius=0.8),
        cycles.segment(1 + 0j, 0j),
        cycles.sphere_M((0.3 + 0.1j,), 0.7),
        cycles.sphere_M((0.2 + 0j, -0.1 + 0j), 0.5),
        cycles.torus_D(0.5),
        cycles.torus_E(0.5, 0.4),
        _generic_torus(centers=(0j, 1j), radii=(0.5, 0.25)),
    ]
    h = 1e-6
    for cyc in specs:
        param = cyc.reference_param
        frame = cyc.at(param)[1]
        for k in range(cyc.dim):
            plus = list(param)
            minus = list(param)
            plus[k] += h
            minus[k] -= h
            fp = cyc.at(tuple(plus))[0]
            fm = cyc.at(tuple(minus))[0]
            for i in range(len(fp)):
                fd = (fp[i] - fm[i]) / (2 * h)
                scale = max(1.0, abs(frame[k][i]))
                assert abs(fd - frame[k][i]) < 1e-6 * scale, (cyc.kind, k, i)


def test_sphere_points_at_distance_eps():
    sphere = cycles.sphere_M((0.2 + 0j, -0.1 + 0j), 0.5)
    for param in [(0.3, 0.1, 4.0), (1.2, 2.0, 0.5), sphere.reference_param]:
        point = sphere.at(param)[0]
        x = point[3:]
        dist = math.sqrt(abs(x[0] - 0.2) ** 2 + abs(x[1] + 0.1) ** 2)
        assert dist == pytest.approx(0.5, abs=1e-13)


def test_orientation_sign_sphere_m_n1():
    # x = z + eps exp(i theta) runs counter-clockwise: outward.
    sphere = cycles.sphere_M((0j,), 1.0)
    assert cycles.orientation_sign(sphere, (0j,)) == 1
    assert cycles.orientation_sign(_reversed(sphere, 0), (0j,)) == -1


def test_orientation_sign_sphere_m_n2():
    sphere = cycles.sphere_M((0j, 0j), 1.0)
    # The (psi, phi1, phi2) order parametrizes the 3-sphere inward.
    assert cycles.orientation_sign(sphere, (0j, 0j)) == -1


_CENTERS = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


@st.composite
def _boundary_spheres(draw):
    """A residue sphere (n = 1, 2) with its interior point."""
    z = tuple(draw(_CENTERS) for _ in range(draw(st.sampled_from([1, 2]))))
    return cycles.sphere_M(z, draw(st.floats(0.1, 1.0))), z


@settings(settings.get_profile("cflab"), max_examples=80)
@given(_boundary_spheres(), st.data())
def test_orientation_sign_flips_under_reversed_factor(sphere, data):
    cycle, interior = sphere
    k = data.draw(st.integers(0, cycle.dim - 1))
    sign = cycles.orientation_sign(cycle, interior)
    assert cycles.orientation_sign(_reversed(cycle, k), interior) == -sign


def test_orientation_sign_rejects_torus_circle_and_a_wrong_interior_point():
    t = cycles.torus_E(0.5, 0.5)
    with pytest.raises(InputError):
        cycles.orientation_sign(t, (0j, 0j))
    with pytest.raises(InputError):
        cycles.orientation_sign(_circle(), (0j,))
    with pytest.raises(InputError, match="interior point dimension mismatch"):
        cycles.orientation_sign(cycles.sphere_M((0j,), 0.5), (0j, 0j))


def test_integrate_residue_of_dx_over_x():
    form = KForm.basis(1, 0, coeff=lambda p: 1 / p[0])
    val = integrate(form, _circle(), (64,))
    assert abs(val - TWO_PI_I) < 1e-12


def test_integrate_exact_segment():
    seg = cycles.segment(1 + 0j, 0j)
    val = integrate(KForm.basis(1, 0), seg, (8,))
    assert abs(val - (-1)) < 1e-14


def test_integrate_quad_validation():
    c = _circle()
    with pytest.raises(InputError, match=">= 4"):
        integrate(KForm.basis(1, 0), c, (2,))
    with pytest.raises(InputError, match="need 1 quadrature sizes, got 2"):
        integrate(KForm.basis(1, 0), c, (8, 8))
    with pytest.raises(InputError, match="degree"):
        integrate(KForm.basis(2, 0, 1), c, (8,))


def test_integrate_linearity_in_form():
    rng = random.Random(31)
    c = _circle(center=0.1 + 0.2j, radius=0.9)
    f = KForm.basis(1, 0, coeff=lambda p: 1 / p[0])
    g = KForm.basis(1, 0, coeff=lambda p: p[0] ** 2 + 1)
    a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    combo = forms.add(forms.scale(f, a), forms.scale(g, b))
    lhs = integrate(combo, c, (64,))
    rhs = a * integrate(f, c, (64,)) + b * integrate(g, c, (64,))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_reversing_a_circle_factor_negates_integral():
    t = cycles.torus_E(0.5, 0.5)
    form = kernels.casebook_form("integrand_E")
    base = integrate(form, t, (32, 32))
    for k in (0, 1):
        flipped = integrate(form, _reversed(t, k), (32, 32))
        assert abs(flipped + base) <= 1e-13 * abs(base)


def test_torus_d_integral_independent_of_eps():
    form = kernels.casebook_form("theta_D")
    v_small = integrate(form, cycles.torus_D(0.3), (128, 128))
    v_large = integrate(form, cycles.torus_D(0.7), (128, 128))
    assert abs(v_small - v_large) < 1e-8


def test_integrate_worker_counts_agree_bitwise():
    sphere = cycles.sphere_M((0.2 + 0j, -0.1 + 0j), 0.5)
    form = kernels.phi(2, (0.2, -0.1))
    quad = (8, 12, 12)
    v1 = integrate(form, sphere, quad)
    v2 = integrate(form, sphere, quad)
    v3 = integrate(form, sphere, quad)
    assert v1 == v2 == v3


def test_pole_on_grid_raises_pole_error():
    # Gauss rule with odd node count hits the midpoint 0 of (-1, 1).
    seg = cycles.Cycle(
        kind="segment", factors=(cycles.Interval(0.0, 1.0),),
        map=lambda t: (-1 + 2 * t[0] + 0j,),
        tangent=lambda t: ((2 + 0j,),),
        x_indices=(0,), reference_param=(0.25,))
    form = KForm.basis(1, 0, coeff=lambda p: 1 / p[0])
    with pytest.raises(PoleError) as err:
        integrate(form, seg, (5,))
    assert err.value.param is not None


def test_torus_integral_worker_counts_agree_bitwise():
    t = cycles.torus_D(0.5)
    form = kernels.casebook_form("theta_D")
    v1 = integrate(form, t, (64, 64))
    v2 = integrate(form, t, (64, 64))
    assert v1 == v2


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
    for factor, n in zip(cycle.factors, sizes):
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


_LINE_FORM = KForm.basis(1, 0, coeff=lambda p: 1 / p[0] + p[0] ** 2 - 1j)
_SPHERE_2 = cycles.sphere_M((0.2 + 0j, -0.1 + 0.3j), 0.5)
_TORUS_E = cycles.torus_E(0.5, 0.4)

AGREEMENT_CASES = {
    "circle": (_LINE_FORM, _circle(center=0.1 + 0.2j, radius=0.9), (64,)),
    "segment": (_LINE_FORM, cycles.segment(1 + 1j, 2 - 1j),
                (16,)),
    "sphere_M_n1": (kernels.phi(1, (0.3 + 0.1j,), exprlang.parse_expr("exp(x)", 1)),
                    cycles.sphere_M((0.3 + 0.1j,), 0.7), (64,)),
    # 16 * 24 * 24 points: more than one block
    "sphere_M_n2": (kernels.phi(2, (0.2 + 0j, -0.1 + 0.3j),
                                exprlang.parse_expr("x1^2*x2+3", 2)),
                    _SPHERE_2, (16, 24, 24)),
    "torus_D": (kernels.casebook_form("theta_D"),
                cycles.torus_D(0.4), (32, 32)),
    "torus_E": (kernels.casebook_form("integrand_E"), _TORUS_E, (32, 32)),
    "torus_generic": (kernels.casebook_form("integrand_E"),
                      _generic_torus(centers=(0.1j, 0.2 + 0j), radii=(0.5, 0.4)),
                      (16, 24)),
    "reversed_circle_factor": (kernels.casebook_form("integrand_E"),
                               _reversed(_TORUS_E, 1), (32, 32)),
    "reversed_interval_factor": (kernels.phi(2, (0.2 + 0j, -0.1 + 0.3j)),
                                 _reversed(_SPHERE_2, 0), (8, 12, 12)),
}


@pytest.mark.parametrize("case", sorted(AGREEMENT_CASES))
def test_batched_integrate_matches_pointwise_reference(case):
    form, cycle, sizes = AGREEMENT_CASES[case]
    value = integrate(form, cycle, sizes)
    reference = _reference_integral(form, cycle, sizes)
    assert abs(value - reference) <= 1e-13 * abs(reference)


def test_an_integral_does_not_depend_on_the_block_size(monkeypatch):
    # 2400 points: several blocks at each size, one at 4096
    z = (0.2 + 0j, -0.1 + 0.3j)
    form = kernels.phi(2, z, exprlang.parse_expr("x1^2*x2+3", 2))
    sphere = cycles.sphere_M(z, 0.5)
    values = set()
    for block in (7, 100, cycles.BLOCK_POINTS, 4096):
        monkeypatch.setattr(cycles, "BLOCK_POINTS", block)
        values.add(repr(integrate(form, sphere, (6, 20, 20))))
    assert len(values) == 1


def _identity_torus():
    # Ambient point = parameter point, so a coefficient can name grid params.
    return cycles.Cycle(
        kind="torus_generic",
        factors=(cycles.Circle(), cycles.Circle()),
        map=lambda t: (t[0] + 0j, t[1] + 0j),
        tangent=lambda t: ((1 + 0j, 0j), (0j, 1 + 0j)),
        x_indices=(0, 1), reference_param=(0.4, 1.1))


@pytest.mark.parametrize("raised", [ZeroDivisionError, PoleError, None])
def test_pole_error_names_first_param_in_grid_order(raised, pointwise):
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

    form = KForm.basis(2, 0, 1, coeff=pointwise(coeff))
    with pytest.raises(PoleError) as err:
        integrate(form, _identity_torus(), sizes)
    assert err.value.param == first


def test_pole_error_keeps_the_coefficient_message_next_to_the_param():
    form = KForm.basis(2, 0, 1, coeff=lambda p: forms.div(1, p[1]))
    with pytest.raises(PoleError) as err:
        integrate(form, _identity_torus(), (8, 8))
    assert str(err.value) == ("integrand pole on the grid at param (0.0, 0.0): "
                              "form coefficient has a pole")


def test_non_finite_map_raises_with_param():
    # Odd Gauss rules put a node at the midpoint 0.5, where the numpy
    # division inside the map divides by an exact zero.
    seg = cycles.Cycle(
        kind="segment", factors=(cycles.Interval(0.0, 1.0),),
        map=lambda t: (1 / (2 * t[0] - 1) + 0j,),
        tangent=lambda t: (((-2 + 0j) / (2 * t[0] - 1) ** 2,),),
        x_indices=(0,), reference_param=(0.25,))
    with pytest.raises(CflabError) as err:
        integrate(KForm.basis(1, 0), seg, (5,))
    assert err.value.param == (0.5,)


def test_float_only_cycle_callable_raises_input_error():
    # A user cycle written with cmath: its callables accept floats only.
    detour = cycles.Cycle(
        kind="segment", factors=(cycles.Interval(0.0, 1.0),),
        map=lambda t: (0.5 + 0.5 * cmath.exp(1j * math.pi * t[0]),),
        tangent=lambda t: ((0.5j * math.pi * cmath.exp(1j * math.pi * t[0]),),),
        x_indices=(0,), reference_param=(0.5,))
    with pytest.raises(InputError, match="take parameter arrays"):
        integrate(_LINE_FORM, detour, (24,))


def test_non_finite_value_raises_instead_of_returning_nan(pointwise):
    sizes = (16, 16)
    h = 2 * math.pi / 16
    bad = (h * 9, h * 2)

    def coeff(p):
        return complex("nan") if (p[0].real, p[1].real) == bad else 1 + 0j

    form = KForm.basis(2, 0, 1, coeff=pointwise(coeff))
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
    seg = cycles.segment(1 + 0j, 0.3j)
    form = KForm.basis(1, 0, coeff=lambda p: 1 / (p[0] + 2) + p[0] ** 3)
    values = [integrate(form, seg, (33,)) for _ in range(3)]
    assert values[0] == values[1] == values[2]
    assert values[0] == _reference_integral(form, seg, (33,))


@pytest.mark.parametrize("cycle,sizes,message", [
    (cycles.segment(1 + 0j, 0j), (10 ** 6,), "Gauss-Legendre"),
    (cycles.torus_E(0.5, 0.5), (2 ** 12, 2 ** 12), "budget"),
], ids=["gauss_cap", "grid_budget"])
def test_oversized_grid_rejected_before_allocating(cycle, sizes, message,
                                                   monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("allocated for an oversized grid")

    form = KForm.basis(len(cycle.at(cycle.reference_param)[0]), *range(cycle.dim))
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", boom)
    monkeypatch.setattr(np, "empty", boom)
    with pytest.raises(InputError, match=message):
        integrate(form, cycle, sizes)


def test_integral_whose_sum_overflows_raises_pole_error():
    # Every weighted value is finite (about 1e308 * 2 pi / 16), their sum
    # (about 2 pi * 1e308) is not.
    form = KForm.basis(1, 0, coeff=lambda p: 1e308 / (1j * p[0]))
    with pytest.raises(PoleError, match="overflows"):
        integrate(form, _circle(), (16,))


def test_a_long_grid_whose_sum_overflows_raises_pole_error():
    # Three blocks: each weighted value is 1e308 * 2 pi / n, at or above the
    # reduction's overflow guard, so the sum is math.fsum's and overflows.
    form = KForm.basis(1, 0, coeff=lambda p: 1e308 / (1j * p[0]))
    with pytest.raises(PoleError, match="overflows"):
        integrate(form, _circle(), (3 * cycles.BLOCK_POINTS,))


# ------------------------------------------------------------- reduction

def _fsum_outcome(fsum, values):
    """The repr of ``fsum(values)``, or the type and message it raised."""
    try:
        return repr(fsum(values))
    except (OverflowError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


@st.composite
def _fsum_rows(draw):
    """A row of a (2, n) buffer: lengths around the extraction cutoff and
    around one, two and three blocks; exponents from the smallest subnormal
    to just above the overflow guard of a full chunk; mixed or one sign;
    exact cancellations; all-zero and all-negative-zero chunks; values near
    the float limit or not finite, which leave the sum to ``math.fsum``."""
    block, cut = cycles.BLOCK_POINTS, cycles.EXTRACT_MIN
    n = draw(st.sampled_from([0, 1, 2, cut - 1, cut, cut + 1, cut + 2] + [
        max(k * block + d, 0) for k in (1, 2, 3) for d in (-cut - 1, -1, 0, 1, cut + 1)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    guard = 1000 - (block + 1).bit_length()
    lo = draw(st.integers(-1076, guard + 2))
    hi = draw(st.integers(lo, guard + 2))
    signs = draw(st.sampled_from([(-1.0, 1.0), (1.0,), (-1.0,)]))
    values = np.ldexp(rng.uniform(0.5, 1.0, n) * rng.choice(signs, n),
                      rng.integers(lo, hi + 1, n))
    if n and draw(st.booleans()):  # exact cancellation, in another order
        values[n // 2:n // 2 * 2] = -rng.permutation(values[:n // 2])
    for _ in range(draw(st.integers(0, 2))):
        start = draw(st.integers(0, max(n - 1, 0)))
        values[start:start + draw(st.sampled_from([1, cut + 1, block]))] = \
            draw(st.sampled_from([0.0, -0.0, 1.7976931348623157e308, -1e308,
                                  math.inf, math.nan]))
    buffer = np.empty((2, n))
    buffer[0], buffer[1] = values, values[::-1]
    return buffer[draw(st.integers(0, 1))]


def _overflow_across_chunks():
    """The largest float, then a chunk that cancels exactly: math.fsum
    overflows on the way, so that chunk's one partial, 0.0, may not stand in
    for its values."""
    block = cycles.BLOCK_POINTS
    values = np.zeros(2 * block)
    values[0] = 1.7976931348623157e308
    values[block::2], values[block + 1::2] = 2.0 ** 980, -2.0 ** 980
    return values


def _repeated(values):
    """``values``, each over three blocks and a short tail."""
    return np.repeat(values, cycles.BLOCK_POINTS + 7)


@settings(settings.get_profile("cflab"), max_examples=150)
@given(_fsum_rows())
@example(_overflow_across_chunks())
@example(_repeated([0.0] * 3))
@example(_repeated([-0.0] * 3))
@example(_repeated([0.0, -0.0, 0.0]))
@example(_repeated([-0.0, 5e-324, -5e-324]))
@example(_repeated([1.5, -1.5, -0.0]))
@example(_repeated([2.0 ** -1000, -(2.0 ** -1000)] * 2))
def test_fsum_is_math_fsum_bit_for_bit(values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning, an empty max included
        assert _fsum_outcome(cycles._fsum, values) == \
            _fsum_outcome(lambda v: math.fsum(v.tolist()), values)


def test_fsum_extracts_long_chunks(monkeypatch):
    # math.fsum gets a few partials per chunk, not one float per value; the
    # rounded part leaves no remainder after one level, and takes no max of it.
    rng = np.random.default_rng(5)
    n = 3 * cycles.BLOCK_POINTS
    values = np.ldexp(rng.uniform(0.5, 1.0, n) * rng.choice([-1.0, 1.0], n),
                      rng.integers(-20, 0, n))  # 73 bits: two levels take them all
    seen, fsum = [], math.fsum
    monkeypatch.setattr(math, "fsum", lambda xs: seen.append(list(xs)) or fsum(seen[-1]))
    for part in (values, np.round(values * 2 ** 20)):
        seen.clear()
        assert repr(cycles._fsum(part)) == repr(fsum(part.tolist()))
        assert len(seen) == 1 and len(seen[0]) < len(part) // 20


@pytest.mark.parametrize("tangent", [
    lambda t: ((1 + 0j, 0j),), lambda t: (), lambda t: (((1 + 0j,),),),
    lambda t: ((np.ones(len(t[0]) + 1, dtype=complex),),),
], ids=["too_wide", "empty", "too_deep", "too_long"])
def test_cycle_output_of_the_wrong_shape_raises(tangent):
    seg = cycles.Cycle(
        kind="segment", factors=(cycles.Interval(0.0, 1.0),),
        map=lambda t: (t[0] + 0j,), tangent=tangent,
        x_indices=(0,), reference_param=(0.5,))
    with pytest.raises(InputError):
        integrate(KForm.basis(1, 0), seg, (4,))


# ------------------------------------------------------- shared cycle parts
# Each constructor's map and tangent share their exponentials and cos/sin
# per block (forms.shared).  The formulas below are the ones they had when
# each computed its own: point and frame must keep their bits.

def _unshared_sphere_1(z0, eps):
    def mmap(param):
        delta = eps * np.exp(1j * param[0])
        xi1 = delta.conjugate()
        return (-z0 * xi1 - eps * eps, xi1, z0 + delta)

    def mtan(param):
        delta = eps * np.exp(1j * param[0])
        d_delta = 1j * delta
        d_conj = d_delta.conjugate()
        return ((-z0 * d_conj, d_conj, d_delta),)

    return mmap, mtan


def _unshared_sphere_2(z1, z2, eps):
    def mmap(param):
        psi, p1, p2 = param
        d1 = eps * np.cos(psi) * np.exp(1j * p1)
        d2 = eps * np.sin(psi) * np.exp(1j * p2)
        c1, c2 = d1.conjugate(), d2.conjugate()
        xi0 = -(z1 * c1 + z2 * c2) - eps * eps
        return (xi0, c1, c2, z1 + d1, z2 + d2)

    def mtan(param):
        psi, p1, p2 = param
        e1, e2 = np.exp(1j * p1), np.exp(1j * p2)
        a1, a2 = eps * np.cos(psi), eps * np.sin(psi)
        d1_psi, d2_psi = -a2 * e1, a1 * e2
        d1_1, d2_2 = 1j * a1 * e1, 1j * a2 * e2
        c1_psi, c2_psi = d1_psi.conjugate(), d2_psi.conjugate()
        c1_1, c2_2 = d1_1.conjugate(), d2_2.conjugate()
        return ((-(z1 * c1_psi + z2 * c2_psi), c1_psi, c2_psi, d1_psi, d2_psi),
                (-(z1 * c1_1), c1_1, 0j, d1_1, 0j),
                (-(z2 * c2_2), 0j, c2_2, 0j, d2_2))

    return mmap, mtan


def _unshared_torus_D(eps):
    def parts(param):
        th, et = param
        y1, x2 = eps * np.exp(1j * th), eps * np.exp(1j * et)
        num = 1 + x2 * x2
        den = eps * eps * np.exp(1j * (th + et)) * (1 + y1)
        return y1, x2, num, den

    def dmap(param):
        y1, x2, num, den = parts(param)
        return (y1, x2, 1 - num / den)

    def dtan(param):
        y1, x2, num, den = parts(param)
        dy1, dx2 = 1j * y1, 1j * x2
        dden_th = 1j * den + eps * eps * np.exp(1j * (param[0] + param[1])) * dy1
        dx1_et = (num * (1j * den) - 2j * x2 * x2 * den) / (den * den)
        return ((dy1, 0j, num * dden_th / (den * den)), (0j, dx2, dx1_et))

    return dmap, dtan


def _unshared_torus_E(r1, r2):
    def emap(param):
        return (r1 * np.exp(1j * param[0]), r2 * np.exp(1j * param[1]))

    def etan(param):
        return ((1j * r1 * np.exp(1j * param[0]), 0j),
                (0j, 1j * r2 * np.exp(1j * param[1])))

    return emap, etan


def _two_blocks(*lead):
    """Node counts ``lead`` and one more, for a grid of exactly two blocks
    (more than ``BLOCK_POINTS`` points, and at most twice that)."""
    return lead + (cycles.BLOCK_POINTS // math.prod(lead) + 1,)


# cycle, its unshared (map, tangent), and a grid of two blocks
SHARED_CASES = {
    "sphere_M_n1": (cycles.sphere_M((0.3 + 0.1j,), 0.7),
                    _unshared_sphere_1(0.3 + 0.1j, 0.7), _two_blocks()),
    "sphere_M_n2": (cycles.sphere_M((0.2 + 0j, -0.1 + 0.3j), 0.5),
                    _unshared_sphere_2(0.2 + 0j, -0.1 + 0.3j, 0.5), _two_blocks(4, 20)),
    "torus_D": (cycles.torus_D(0.4), _unshared_torus_D(0.4), _two_blocks(40)),
    "torus_E": (cycles.torus_E(0.5, 0.4), _unshared_torus_E(0.5, 0.4), _two_blocks(40)),
}


def _recorded(cycle):
    """``cycle`` whose map and tangent record (name, params, block array)."""
    seen = []

    def record(fn, name):
        def wrapped(params):
            out = fn(params)
            seen.append((name, tuple(params), cycles._on_block(lambda p: out, params)))
            return out
        return wrapped

    return dataclasses.replace(cycle, map=record(cycle.map, "map"),
                               tangent=record(cycle.tangent, "tangent")), seen


def _constant_form(cycle):
    ambient = len(cycle.at(cycle.reference_param)[0])
    return KForm.basis(ambient, *range(cycle.dim))


@pytest.mark.parametrize("case", sorted(SHARED_CASES))
def test_shared_parts_keep_point_and_frame_bits(case):
    cycle, unshared, sizes = SHARED_CASES[case]
    traced, seen = _recorded(cycle)
    integrate(_constant_form(cycle), traced, sizes)
    assert [name for name, _, _ in seen] == ["map", "tangent"] * 2
    for name, params, block in seen:
        fn = unshared[name == "tangent"]
        assert block.tobytes() == cycles._on_block(fn, params).tobytes()
    for param in (cycle.reference_param, (0.3,) * cycle.dim):
        point, frame = cycle.at(param)
        ones = tuple(np.array([t]) for t in param)
        assert point.tobytes() == cycles._on_block(unshared[0], ones)[..., 0].tobytes()
        assert frame.tobytes() == cycles._on_block(unshared[1], ones)[..., 0].tobytes()


def _counting_shared(monkeypatch):
    """Patch ``forms.shared`` to count, per shared function of ``cycles``,
    its lookups and its runs."""
    lookups, runs, counted = {}, {}, {}
    inner = forms.shared

    def shared(fn, cols):
        if fn.__module__ != "cflab.cycles":
            return inner(fn, cols)
        if fn not in counted:
            def count(params, fn=fn):
                runs[fn] = runs.get(fn, 0) + 1
                return fn(params)
            counted[fn] = count
        lookups[fn] = lookups.get(fn, 0) + 1
        return inner(counted[fn], cols)

    monkeypatch.setattr(forms, "shared", shared)
    return lookups, runs


@pytest.mark.parametrize("case", sorted(SHARED_CASES))
def test_shared_parts_run_once_per_block(monkeypatch, case):
    cycle, _, sizes = SHARED_CASES[case]
    form = _constant_form(cycle)
    lookups, runs = _counting_shared(monkeypatch)
    integrate(form, cycle, sizes)
    assert list(runs.values()) == [2] and list(lookups.values()) == [4]
    lookups.clear(), runs.clear()
    dataclasses.replace(cycle).at((0.25,) * cycle.dim)  # a fresh last result
    assert list(runs.values()) == [1] and list(lookups.values()) == [2]
