import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cflab import casebook, cycles, geometry, kernels
from cflab.errors import InputError
from cflab.geometry import (intersection_points, rand_c, sample_on_surface,
                            sample_points, surface_catalog,
                            transversality_margin)

GOLDEN_MARGIN = 0.6180339887498949  # smallest singular value of [[1,0],[1,1]]


def test_m_cycle_points_pair_to_zero_and_eps_sq():
    for z, eps in (((0.3 + 0.1j,), 0.7), ((0.2 + 0j, -0.1 + 0j), 0.5)):
        sphere = cycles.sphere_M(z, eps)
        n = len(z)
        params = [sphere.reference_param,
                  tuple(0.2 for _ in sphere.reference_param),
                  tuple(1.0 for _ in sphere.reference_param)]
        for param in params:
            point = sphere.at(param)[0]
            xi, x = point[:n + 1], point[n + 1:]
            xi_x = xi[0] + sum(a * b for a, b in zip(xi[1:], x))
            xi_z = xi[0] + sum(a * b for a, b in zip(xi[1:], z))
            assert abs(xi_x) < 1e-12 * (1 + eps)
            assert xi_z == pytest.approx(-eps * eps, rel=1e-12)


def _cols(points):
    """The coordinate columns of a batch of points."""
    return tuple(np.array(points, dtype=complex).reshape(len(points), -1).T)


def _catalog_spec(name, chart):
    """The catalog entry (name, chart), S_A at a = 2 + i."""
    return surface_catalog(name, (2 + 1j,) if name == "S_A" else (), chart=chart)


def test_surface_catalog_values():
    s_a = surface_catalog("S_A", (1,), chart="eta")
    s_b = surface_catalog("S_B", chart="eta")
    q = surface_catalog("Q", chart="eta")
    assert s_a.value(_cols([(1, 0), (0, 1)])).tolist() == [0, 0]
    assert s_b.value(_cols([(1, 0.5)])).tolist() == [0]  # 1 + 2*(-0.5)
    assert q.value(_cols([(-1, 1)])).tolist() == [0]


def test_surface_catalog_unknown_name():
    for name, chart in (("S_X", "eta"), ("S_B", "U2"), ("Q", "U1"), ("P", "U3")):
        with pytest.raises(InputError, match=f"no surface '{name}' in chart '{chart}'"):
            surface_catalog(name, chart=chart)
    with pytest.raises(TypeError):
        surface_catalog("S_B")  # the chart is always named


def test_surface_catalog_rejects_parameters_a_surface_does_not_take():
    with pytest.raises(InputError, match="surface P takes 0 parameters, got 1"):
        surface_catalog("P", (0.5,), chart="eta")
    for params in ((), (1, 2)):
        with pytest.raises(InputError):
            surface_catalog("S_A", params, chart="eta")


def _gradient_fd_gap(spec, points, step=1e-6):
    """Largest relative disagreement between the analytic gradient and
    central differences of the value over a batch of points."""
    cols = _cols(points)
    grad = np.array([np.broadcast_to(g(cols), len(points)) for g in spec.gradient])
    scale = np.maximum(1.0, np.abs(grad).max(axis=0))
    worst = 0.0
    for i in range(len(cols)):
        plus = tuple(c + step if j == i else c for j, c in enumerate(cols))
        minus = tuple(c - step if j == i else c for j, c in enumerate(cols))
        fd = (spec.value(plus) - spec.value(minus)) / (2 * step)
        worst = max(worst, float((np.abs(fd - grad[i]) / scale).max()))
    return worst


def test_gradients_match_finite_differences():
    # a gradient is a polynomial identity: seeded points of the chart will do
    assert len(geometry._CATALOG) == 12
    for name, chart in geometry._CATALOG:
        spec = _catalog_spec(name, chart)
        points = sample_points(random.Random(100), 10, spec.dim, 0, lambda p: True)[0]
        assert _gradient_fd_gap(spec, points) < 1e-6, (name, chart)


_SAMPLED = [("S_A", "eta"), ("S_B", "eta"), ("Q", "eta"), ("S_D", "U2"), ("S_E", "U2")]


def test_samplers_land_on_surface():
    for name, chart in _SAMPLED:
        spec = _catalog_spec(name, chart)
        points = sample_on_surface(spec, seed=5, count=20)
        bound = 1e-12 * (1 + np.abs(points).max(axis=1))
        assert (np.abs(spec.value(_cols(points))) < bound).all()


def test_a_surface_without_a_solver_is_not_sampled():
    for name, chart in geometry._CATALOG:
        spec = _catalog_spec(name, chart)
        assert (spec.solve is not None) == ((name, chart) in _SAMPLED)
        if spec.solve is None:
            with pytest.raises(InputError, match=f"no closed-form sampler for "
                                                 f"{name} in chart {chart}"):
                sample_on_surface(spec, seed=5, count=1)


def test_sampler_s_b_closed_form():
    spec = surface_catalog("S_B", chart="eta")
    for eta, x in sample_on_surface(spec, seed=9, count=10):
        assert x == pytest.approx(1 - eta ** 2 / (eta + 1))


def test_sampler_q_eta_closed_form():
    spec = surface_catalog("Q", chart="eta")
    for eta, x in sample_on_surface(spec, seed=9, count=10):
        assert x == -eta


def test_sampler_s_d_solves_x1():
    spec = surface_catalog("S_D", chart="U2")
    for y0, y1, x1, x2 in sample_on_surface(spec, seed=9, count=10):
        expected = 1 - (y0 ** 2 + x2 ** 2 + 1) / (y1 * (y1 + 1) * x2)
        assert x1 == pytest.approx(expected)


def _x1_linear_reference(example, rng):
    """One S_D or S_E sampler candidate, written out with that surface's own
    formula for x1, or None near its pole."""
    y0, y1, x2 = rand_c(rng), rand_c(rng), rand_c(rng)
    if example == "D":
        den = y1 * (y1 + 1) * x2
        return None if abs(den) < 0.05 else (y0, y1, 1 - (y0 ** 2 + x2 ** 2 + 1) / den, x2)
    den = (y1 + x2) * (y1 + 2 * x2)
    return None if abs(den) < 0.05 else (y0, y1, 1 - (y0 ** 2 + x2 ** 3 + 1) / den, x2)


def test_s_d_and_s_e_samplers_are_their_own_formulas_bit_for_bit():
    for example in ("D", "E"):
        spec = surface_catalog(f"S_{example}", chart="U2")
        for seed in range(100):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            got = [spec.solve(rng, ()) for _ in range(20)]
            assert repr(got) == repr([_x1_linear_reference(example, ref_rng)
                                      for _ in range(20)])
            assert rng.getstate() == ref_rng.getstate()


def test_sampler_reproducible_bit_for_bit():
    spec = surface_catalog("S_E", chart="U2")
    a = sample_on_surface(spec, seed=123, count=25)
    b = sample_on_surface(spec, seed=123, count=25)
    assert a == b
    c = sample_on_surface(spec, seed=124, count=25)
    assert a != c


_PROFILE = settings.get_profile("cflab")
_SEEDS = st.integers(min_value=0, max_value=2 ** 64)


@settings(_PROFILE, max_examples=60)
@given(seed=_SEEDS,
       count=st.one_of(st.sampled_from([0, 1, 2, 2000]),
                       st.integers(min_value=0, max_value=2000)),
       radius=st.sampled_from([0.5, 1.0, 2.0]))
def test_bulk_draws_are_the_scalar_draws_bit_for_bit(seed, count, radius):
    bulk_rng, scalar_rng = random.Random(seed), random.Random(seed)
    bulk = geometry._rand_c_many(bulk_rng, count, radius)
    scalar = [rand_c(scalar_rng, radius) for _ in range(count)]
    assert [repr(c) for c in bulk.tolist()] == [repr(c) for c in scalar]
    assert bulk.dtype == complex and bulk.shape == (count,)
    assert bulk_rng.getstate() == scalar_rng.getstate()


@settings(_PROFILE, max_examples=60)
@given(seed=_SEEDS, count=st.integers(min_value=0, max_value=30),
       dim=st.integers(min_value=1, max_value=5),
       degree=st.integers(min_value=0, max_value=4),
       extra=st.integers(min_value=0, max_value=2),
       threshold=st.sampled_from([0.0, 0.4, 0.9, 1.2]))
def test_sample_points_draws_what_the_scalar_loop_draws(
        scalar_sampler, seed, count, dim, degree, extra, threshold):
    # threshold 1.2 accepts about one candidate in twenty
    def accept(p):
        return np.abs(p[0]) >= threshold

    bulk_rng, scalar_rng = random.Random(seed), random.Random(seed)
    bulk = sample_points(bulk_rng, count, dim, degree, accept, extra)
    scalar = scalar_sampler(scalar_rng, count, dim, degree, accept, extra)
    assert _bits(bulk) == _bits(scalar)
    assert bulk_rng.getstate() == scalar_rng.getstate()


def _bits(arrays):
    """Shape, dtype and bytes of each array: equal only bit for bit."""
    return [(a.shape, a.dtype, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("dim, degree, extra", [(1, 0, 1), (3, 1, 1), (2, 2, 2),
                                                (4, 1, 2), (5, 0, 3), (2, 3, 1)])
def test_sample_points_with_extra_draws_under_a_predicate_that_rejects_most(
        scalar_sampler, dim, degree, extra):
    # |p_0| >= 1.3 on the square [-1, 1]^2: about one candidate in 75
    # passes, so each top-up walks across many rejections
    def accept(p):
        return np.abs(p[0]) >= 1.3

    for seed in range(5):
        bulk_rng, scalar_rng = random.Random(seed), random.Random(seed)
        bulk = sample_points(bulk_rng, 12, dim, degree, accept, extra)
        scalar = scalar_sampler(scalar_rng, 12, dim, degree, accept, extra)
        assert _bits(bulk) == _bits(scalar)
        assert bulk_rng.getstate() == scalar_rng.getstate()


def test_sample_points_gives_up_on_a_predicate_that_never_holds():
    with pytest.raises(InputError):
        sample_points(random.Random(1), 5, 3, 2, lambda p: False)


def test_intersection_points_gives_up_when_no_draw_lands(monkeypatch):
    # a closed-form intersection, and one whose points solve polynomials
    for helper, example, which in (("_p_cap_s", "C1", "P_S"), ("_q_cap_s", "D", "Q_S")):
        monkeypatch.setattr(geometry, helper, lambda example, rng: [])
        with pytest.raises(InputError):
            intersection_points(example, which, seed=1)


_MAGNITUDE = st.floats(1e-8, 1e8)
_COEFF = st.builds(lambda r, t: r * complex(np.cos(t), np.sin(t)),
                   _MAGNITUDE, st.floats(-np.pi, np.pi))


@settings(settings.get_profile("cflab"), max_examples=200)
@given(data=st.data())
def test_stacked_roots_equal_numpys_roots_bit_for_bit(data):
    degree = data.draw(st.sampled_from([2, 3]))
    rows = data.draw(st.lists(st.lists(_COEFF, min_size=degree + 1, max_size=degree + 1),
                              min_size=1, max_size=6))
    # a zero constant term (np.roots strips it and appends a root 0), two
    # trailing zeros, and a zero inside a row
    rows.append(rows[0][:-1] + [0j])
    rows.append(rows[-1][:-2] + [0j, 0j])
    rows.append([rows[0][0], 0j] + rows[0][2:])
    got = geometry._roots(rows)
    assert got.shape == (len(rows), degree)
    for row, roots in zip(rows, got):  # (np.roots gives a row of zeros as floats)
        want = np.roots(np.array(row, dtype=complex)).astype(complex)
        assert _bits([roots]) == _bits([want])


def _per_candidate_intersection(example, which, seed):
    """C1, C2, D and E ``P_S``, C1 and C2 ``P_Q_S``, and D and E
    ``Q_S``/``P_Q_S`` points, each example's candidate written out, with one
    ``np.roots`` per accepted polynomial candidate, its roots sorted by (re,
    im): the reference the shared constructions and the stacked solve must
    reproduce."""
    rng = random.Random(seed)
    pts = []
    while len(pts) < 5:
        if which == "P_S" and example in ("C1", "C2"):
            y1, x1 = rand_c(rng), rand_c(rng)
            x2 = (2 - y1 ** 3 * (x1 - 1) if example == "C1"
                  else 2 - y1 ** 3 * (x1 - 1) - 2 * y1 ** 2)
            pts.append((0j, y1, x1, x2))
            continue
        if which == "P_S":
            y1, x2 = rand_c(rng), rand_c(rng)
            den = y1 * (y1 + 1) * x2 if example == "D" else (y1 + x2) * (y1 + 2 * x2)
            if abs(den) >= 0.1:
                x1 = 1 - (x2 ** 2 + 1) / den if example == "D" else 1 - (x2 ** 3 + 1) / den
                pts.append((0j, y1, x1, x2))
            continue
        if which == "Q_S":
            y1, x2 = rand_c(rng), rand_c(rng)
            if abs(y1) < 0.3:
                continue
            if example == "D":
                b = 2 * y1 * x2 + y1 * (y1 + 1) * x2
                c = x2 ** 2 - y1 * (y1 + 1) * x2 + x2 ** 2 + 1
            else:
                quad = (y1 + x2) * (y1 + 2 * x2)
                b, c = 2 * y1 * x2 + quad, x2 ** 2 - quad + x2 ** 3 + 1
            coeffs = [y1 ** 2, b, c]
            point = lambda x1: (-(y1 * x1 + x2), y1, x1, x2)  # noqa: E731
        else:
            y1 = rand_c(rng)
            if abs(y1) < 0.3 or abs(y1 ** 3 - y1) < 0.1:
                continue
            if example in ("C1", "C2"):
                x1 = ((y1 ** 3 + 2) / (y1 ** 3 - y1) if example == "C1"
                      else (y1 ** 3 - 2 * y1 ** 2 + 2) / (y1 ** 3 - y1))
                pts.append((0j, y1, x1, -y1 * x1))
                continue
            coeffs = ([-y1 ** 3, y1 ** 2 * (y1 + 1), 1 + 0j] if example == "D" else
                      [2 * y1 ** 2 - y1 ** 3, -5 * y1 ** 2, 4 * y1 ** 2, 1 - y1 ** 2])
            point = lambda x1: (0j, y1, x1, -y1 * x1)  # noqa: E731
        roots = [complex(r) for r in np.roots(np.array(coeffs, dtype=complex))]
        pts += [point(x1) for x1 in sorted(roots, key=lambda c: (c.real, c.imag))]
    return pts[:5]


def test_rooted_intersections_equal_per_candidate_roots_with_one_eigensolve(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or eigvals(a))
    for example in ("D", "E"):
        for which in ("Q_S", "P_Q_S"):
            for seed in range(500):
                calls.clear()
                chart, points = intersection_points(example, which, seed)
                assert chart == "U2" and len(calls) == 1
                want = _per_candidate_intersection(example, which, seed)
                assert _bits([np.array(points)]) == _bits([np.array(want)])


def test_closed_form_intersections_equal_each_examples_own_formulas():
    for example, which in (("C1", "P_S"), ("C2", "P_S"), ("D", "P_S"), ("E", "P_S"),
                           ("C1", "P_Q_S"), ("C2", "P_Q_S")):
        for seed in range(500):
            chart, points = intersection_points(example, which, seed)
            assert chart == "U2"
            want = _per_candidate_intersection(example, which, seed)
            assert _bits([np.array(points)]) == _bits([np.array(want)]), (example, which, seed)


def test_example_b_has_one_point_on_each_intersection():
    assert intersection_points("B", "P_Q", 1) == ("eta", [(0j, 0j)])
    assert intersection_points("B", "P_S", 1) == ("eta", [(0j, 1 + 0j)])
    assert intersection_points("B", "Q_S", 1) == ("eta", [(-0.5 + 0j, 0.5 + 0j)])
    for example, which, message in (
            ("B", "P_Q_S", r"Example B has no intersection 'P_Q_S': it has P_Q, P_S, Q_S$"),
            ("A", "P_Q", r"no intersections for Example 'A': the examples are B, C1, C2, D and E$"),
            ("C1", "Q_Q", r"no intersection 'Q_Q' of Example C1: it has P_Q, P_S, Q_S and P_Q_S$")):
        with pytest.raises(InputError, match=message):
            intersection_points(example, which, 1)


def test_transversality_margin_golden_ratio():
    p = surface_catalog("P", chart="eta")
    q = surface_catalog("Q", chart="eta")
    margin = transversality_margin([p, q], [(0, 0)])
    assert margin == pytest.approx(GOLDEN_MARGIN, abs=1e-12)


def test_transversality_margin_p_sb_positive():
    p = surface_catalog("P", chart="eta")
    s_b = surface_catalog("S_B", chart="eta")
    margin = transversality_margin([p, s_b], [(0, 1)])
    assert margin > 1e-6


def test_transversality_degenerate_point_of_s_d():
    p = surface_catalog("P", chart="U1")
    s_d = surface_catalog("S_D", chart="U1")
    margin = transversality_margin([p, s_d], [(0, 0, 1, 0)])
    assert margin < 1e-6


def test_transversality_margin_requires_on_surface_point():
    p = surface_catalog("P", chart="eta")
    q = surface_catalog("Q", chart="eta")
    with pytest.raises(InputError):
        transversality_margin([p, q], [(0.5, 0.5)])


def test_transversality_margin_requires_a_surface_and_points_of_its_chart():
    with pytest.raises(InputError, match="need at least one surface"):
        transversality_margin([], [(0, 0)])
    with pytest.raises(InputError, match="point dimension does not match the chart"):
        transversality_margin([surface_catalog("Q", chart="eta")], [(0, 0, 0)])


def test_transversality_margin_requires_shared_chart():
    p = surface_catalog("P", chart="eta")
    s_d = surface_catalog("S_D", chart="U2")
    with pytest.raises(InputError):
        transversality_margin([p, s_d], [(0, 0)])


# ------------------------------------- the catalog on columns, against Python

def _reference_catalog(name, chart, params):
    """``(value, gradient)`` of one catalog surface as per-point Python
    complex expressions, one function per gradient entry: the reference the
    column functions must round as."""
    a = params[0] if params else 0j

    def quad(p):
        return p[1] ** 2 + 3 * p[1] * p[3] + 2 * p[3] ** 2

    def const(c):
        return lambda p: c

    one, zero = const(1 + 0j), const(0j)
    return {
        ("P", "eta"): (lambda p: p[0], (one, zero)),
        ("P", "U2"): (lambda p: p[0], (one, zero, zero, zero)),
        ("P", "U1"): (lambda p: p[0], (one, zero, zero, zero)),
        ("Q", "eta"): (lambda p: p[0] + p[1], (one, one)),
        ("Q", "U2"): (lambda p: p[0] + p[1] * p[2] + p[3],
                      (one, lambda p: p[2], lambda p: p[1], one)),
        ("S_A", "eta"): (lambda p: a * p[0] + p[1] - 1, (const(a), one)),
        ("S_B", "eta"): (lambda p: p[0] ** 2 + (p[0] + 1) * (p[1] - 1),
                         (lambda p: 2 * p[0] + p[1] - 1, lambda p: p[0] + 1)),
        ("S_C1", "U2"): (
            lambda p: p[0] ** 3 + p[1] ** 3 * (p[2] - 1) + (p[3] - 2),
            (lambda p: 3 * p[0] ** 2, lambda p: 3 * p[1] ** 2 * (p[2] - 1),
             lambda p: p[1] ** 3, one)),
        ("S_C2", "U2"): (
            lambda p: (p[0] ** 3 + p[1] ** 3 * (p[2] - 1) + (p[3] - 2)
                       + 2 * p[1] ** 2),
            (lambda p: 3 * p[0] ** 2,
             lambda p: 3 * p[1] ** 2 * (p[2] - 1) + 4 * p[1],
             lambda p: p[1] ** 3, one)),
        ("S_D", "U2"): (
            lambda p: (p[0] ** 2 + p[1] * (p[1] + 1) * (p[2] - 1) * p[3]
                       + p[3] ** 2 + 1),
            (lambda p: 2 * p[0],
             lambda p: (2 * p[1] + 1) * (p[2] - 1) * p[3],
             lambda p: p[1] * (p[1] + 1) * p[3],
             lambda p: p[1] * (p[1] + 1) * (p[2] - 1) + 2 * p[3])),
        ("S_D", "U1"): (
            lambda p: (p[0] ** 2 + (1 + p[1]) * (p[2] - 1) * p[3]
                       + p[1] ** 2 * (p[3] ** 2 + 1)),
            (lambda p: 2 * p[0],
             lambda p: (p[2] - 1) * p[3] + 2 * p[1] * (p[3] ** 2 + 1),
             lambda p: (1 + p[1]) * p[3],
             lambda p: (1 + p[1]) * (p[2] - 1) + 2 * p[1] ** 2 * p[3])),
        ("S_E", "U2"): (
            lambda p: p[0] ** 2 + quad(p) * (p[2] - 1) + p[3] ** 3 + 1,
            (lambda p: 2 * p[0],
             lambda p: (2 * p[1] + 3 * p[3]) * (p[2] - 1),
             quad,
             lambda p: (3 * p[1] + 4 * p[3]) * (p[2] - 1) + 3 * p[3] ** 2)),
    }[name, chart]


_CATALOG_CASES = [
    ("P", "eta", ()), ("P", "U2", ()), ("P", "U1", ()), ("Q", "eta", ()), ("Q", "U2", ()),
    ("S_A", "eta", (2 + 0.5j,)), ("S_B", "eta", ()), ("S_C1", "U2", ()),
    ("S_C2", "U2", ()), ("S_D", "U2", ()), ("S_D", "U1", ()), ("S_E", "U2", ()),
]
_UNIFORM = st.integers(-2 ** 53, 2 ** 53).map(lambda k: k * 2.0 ** -52)  # in [-2, 2]
_PART = st.one_of(_UNIFORM, st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 1e77, -1e103,
                                   1e154, 1e200, 1.7976931348623157e308]))
_ORDINARY, _ANY = st.builds(complex, _UNIFORM, _UNIFORM), st.builds(complex, _PART, _PART)


def _points(dim):
    """Batches of ordinary points, and of points with signed zeros, tiny or
    huge parts in some coordinates."""
    return st.lists(st.one_of(st.tuples(*[_ORDINARY] * dim),
                              st.tuples(*[st.one_of(_ORDINARY, _ANY)] * dim)),
                    min_size=1, max_size=6)


def _python_entry(fn, points):
    """repr of ``fn`` at each point, or ``OverflowError`` where it overflows."""
    out = []
    for p in points:
        try:
            out.append(repr(complex(fn(p))))
        except OverflowError:
            out.append(OverflowError)
    return out


def _column_entry(fn, points):
    """repr of ``fn`` on the columns at each row, or its error's row."""
    try:
        with np.errstate(all="ignore"):
            values = np.broadcast_to(fn(_cols(points)), len(points))
    except OverflowError as exc:
        return exc.row
    return [repr(complex(v)) for v in values.tolist()]


@pytest.mark.parametrize("name, chart, params", _CATALOG_CASES,
                         ids=[f"{n}_{c}" for n, c, _ in _CATALOG_CASES])
@settings(_PROFILE, max_examples=40)
@given(data=st.data())
def test_catalog_columns_round_as_the_python_expressions(name, chart, params, data):
    spec = surface_catalog(name, params, chart=chart)
    value, gradient = _reference_catalog(name, chart, spec.params)
    points = data.draw(_points(spec.dim))
    assert len(gradient) == len(spec.gradient) == spec.dim
    for reference, column in zip((value, *gradient), (spec.value, *spec.gradient)):
        want = _python_entry(reference, points)
        # one row at a time: the same value, or an overflow on the same row;
        # on the point's own numbers, Python's value or its overflow
        for row, point in enumerate(points):
            got = _column_entry(column, [point])
            assert got == (0 if want[row] is OverflowError else [want[row]])
            assert _python_entry(column, [point]) == [want[row]]
        # the whole batch: every value, or an overflow on a row that overflows
        got = _column_entry(column, points)
        if OverflowError in want:
            assert want[got] is OverflowError
        else:
            assert got == want


def _margin_cases():
    for example in ("C1", "C2", "D", "E"):
        for which in ("P_Q", "P_S", "Q_S", "P_Q_S"):
            for seed in (3, 4):
                chart, points = intersection_points(example, which, seed)
                yield casebook._margin_specs(example, which, chart), points


def test_stacked_margin_is_the_least_per_point_margin_bit_for_bit():
    for specs, points in _margin_cases():
        per_point = []
        for point in points:
            rows = [[g(point) for g in _reference_catalog(s.name, s.chart, s.params)[1]]
                    for s in specs]
            per_point.append(np.linalg.svd(np.array(rows), compute_uv=False)[-1])
        assert transversality_margin(specs, points) == min(per_point)


def test_margin_names_the_first_point_off_a_surface():
    p = surface_catalog("P", chart="eta")
    q = surface_catalog("Q", chart="eta")
    with pytest.raises(InputError, match=r"point 2 \(0j, \(1\+0j\)\) is not on Q"):
        transversality_margin([p, q], [(0, 0), (0, 0), (0, 1), (1, 0)])
    with pytest.raises(InputError, match=r"point 1 .* is not on P "):
        transversality_margin([p, q], [(0, 0), (1, -1), (0, 1)])
    with pytest.raises(InputError):
        transversality_margin([p, q], [])


def test_sampler_batches_draw_what_the_point_loop_draws():
    spec = surface_catalog("S_E", chart="U2")
    value = _reference_catalog("S_E", "U2", ())[0]
    real = spec.solve

    def forcing(rngs):
        def solver(rng, params):  # the third candidate is moved off the surface
            rngs.append(rng)
            point = real(rng, params)
            if len(rngs) == 3 and point is not None:
                point = point[:2] + (point[2] + 1,) + point[3:]
            return point
        return solver

    reference, ref_rngs = [], []
    solver = forcing(ref_rngs)
    rng = random.Random(17)
    while len(reference) < 12:
        point = solver(rng, ())
        if point is None or abs(value(point)) >= 1e-12 * (1 + max(map(abs, point))):
            continue
        reference.append(point)
    assert len(ref_rngs) > 12  # the forced rejection happened

    rngs = []
    forced = dataclasses.replace(spec, solve=forcing(rngs))
    assert repr(sample_on_surface(forced, seed=17, count=12)) == repr(reference)
    assert len(rngs) == len(ref_rngs)
    assert rngs[-1].getstate() == rng.getstate()


def test_sample_count_is_bounded_before_any_draw():
    def drawing(rng, params):
        raise AssertionError("drew a candidate")

    spec = dataclasses.replace(surface_catalog("S_E", chart="U2"), solve=drawing)
    for count in (0, geometry.MAX_SAMPLE_COUNT + 1):
        with pytest.raises(InputError, match="count must be in"):
            sample_on_surface(spec, seed=1, count=count)


def test_catalog_holds_what_the_report_reaches(monkeypatch):
    built, sampled = set(), set()
    real_catalog, real_sample = geometry.surface_catalog, kernels.sample_on_surface

    def catalog(name, params=(), *, chart):
        built.add((name, chart))
        return real_catalog(name, params, chart=chart)

    def sample(spec, seed, count):
        sampled.add((spec.name, spec.chart))
        return real_sample(spec, seed, count)

    monkeypatch.setattr(geometry, "surface_catalog", catalog)
    monkeypatch.setattr(kernels, "surface_catalog", catalog)
    monkeypatch.setattr(kernels, "sample_on_surface", sample)
    casebook._margin_specs.cache_clear()  # build every margin spec again
    assert all(c.passed for c in casebook.full_report(seed=7))
    assert built == set(geometry._CATALOG)
    assert sampled == {key for key in geometry._CATALOG
                       if _catalog_spec(*key).solve is not None}
