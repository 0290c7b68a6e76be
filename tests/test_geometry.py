import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cflab import casebook, cycles, geometry
from cflab.errors import InputError, PreconditionError
from cflab.geometry import (intersection_points, rand_c, sample_on_surface,
                            sample_points, surface_catalog,
                            transversality_margin)

GOLDEN_MARGIN = 0.6180339887498949  # smallest singular value of [[1,0],[1,1]]


def test_m_cycle_points_pair_to_zero_and_eps_sq():
    for z, eps in (((0.3 + 0.1j,), 0.7), ((0.2 + 0j, -0.1 + 0j), 0.5)):
        sphere = cycles.make_cycle("sphere_M", z=z, eps=eps)
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


def test_surface_catalog_values():
    s_a = surface_catalog("S_A", (1,))
    s_b = surface_catalog("S_B")
    q = surface_catalog("Q", chart="eta")
    assert s_a.value(_cols([(1, 0), (0, 1)])).tolist() == [0, 0]
    assert s_b.value(_cols([(1, 0.5)])).tolist() == [0]  # 1 + 2*(-0.5)
    assert q.value(_cols([(-1, 1)])).tolist() == [0]


def test_surface_catalog_unknown_name():
    with pytest.raises(InputError):
        surface_catalog("S_X")
    with pytest.raises(InputError):
        surface_catalog("S_B", chart="U2")


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
    surfaces = [
        surface_catalog("S_A", (2 + 1j,)),
        surface_catalog("S_B"),
        surface_catalog("Q", chart="eta"),
        surface_catalog("P", (0j,), chart="eta"),
        surface_catalog("S_C1"),
        surface_catalog("S_C2"),
        surface_catalog("S_D"),
        surface_catalog("S_D", chart="U1"),
        surface_catalog("S_E"),
        surface_catalog("Q", chart="U2"),
        surface_catalog("P", (0j, 0j), chart="U2"),
    ]
    for spec in surfaces:
        points = sample_on_surface(spec, seed=100, count=10)
        assert _gradient_fd_gap(spec, points) < 1e-6, spec.name


def test_samplers_land_on_surface():
    for name, chart in [("S_A", None), ("S_B", None), ("S_C1", None),
                        ("S_C2", None), ("S_D", None), ("S_E", None),
                        ("S_D", "U1"), ("Q", "eta"), ("Q", "U2")]:
        params = (2 + 1j,) if name == "S_A" else ()
        spec = surface_catalog(name, params, chart=chart)
        points = sample_on_surface(spec, seed=5, count=20)
        bound = 1e-12 * (1 + np.abs(points).max(axis=1))
        assert (np.abs(spec.value(_cols(points))) < bound).all()


def test_sampler_s_b_closed_form():
    spec = surface_catalog("S_B")
    for eta, x in sample_on_surface(spec, seed=9, count=10):
        assert x == pytest.approx(1 - eta ** 2 / (eta + 1))


def test_sampler_q_eta_closed_form():
    spec = surface_catalog("Q", chart="eta")
    for eta, x in sample_on_surface(spec, seed=9, count=10):
        assert x == -eta


def test_sampler_s_d_solves_x1():
    spec = surface_catalog("S_D")
    for y0, y1, x1, x2 in sample_on_surface(spec, seed=9, count=10):
        expected = 1 - (y0 ** 2 + x2 ** 2 + 1) / (y1 * (y1 + 1) * x2)
        assert x1 == pytest.approx(expected)


def test_sampler_reproducible_bit_for_bit():
    spec = surface_catalog("S_E")
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
    assert [repr(c) for c in bulk] == [repr(c) for c in scalar]
    assert all(type(c) is complex for c in bulk)
    assert bulk_rng.getstate() == scalar_rng.getstate()


@settings(_PROFILE, max_examples=60)
@given(seed=_SEEDS, count=st.integers(min_value=0, max_value=30),
       dim=st.integers(min_value=1, max_value=5),
       degree=st.integers(min_value=0, max_value=4),
       extra=st.integers(min_value=0, max_value=2),
       threshold=st.sampled_from([0.0, 0.4, 0.9, 1.2]))
def test_sample_points_draws_what_the_scalar_loop_draws(
        scalar_sampler, seed, count, dim, degree, extra, threshold):
    # threshold 1.2 accepts about one candidate in eleven
    def accept(p):
        return abs(p[0]) >= threshold

    bulk_rng, scalar_rng = random.Random(seed), random.Random(seed)
    bulk = sample_points(bulk_rng, count, dim, degree, accept, extra)
    scalar = scalar_sampler(scalar_rng, count, dim, degree, accept, extra)
    assert repr(bulk) == repr(scalar)
    assert bulk_rng.getstate() == scalar_rng.getstate()


def test_sample_points_gives_up_on_a_predicate_that_never_holds():
    with pytest.raises(PreconditionError):
        sample_points(random.Random(1), 5, 3, 2, lambda p: False)


def test_intersection_points_gives_up_when_no_draw_lands(monkeypatch):
    monkeypatch.setattr(geometry, "_p_cap_s", lambda example, rng: [])
    with pytest.raises(PreconditionError):
        intersection_points("C1", "P_S", seed=1)


def test_transversality_margin_golden_ratio():
    p = surface_catalog("P", (0j,), chart="eta")
    q = surface_catalog("Q", chart="eta")
    margin = transversality_margin([p, q], [(0, 0)])
    assert margin == pytest.approx(GOLDEN_MARGIN, abs=1e-12)


def test_transversality_margin_p_sb_positive():
    p = surface_catalog("P", (0j,), chart="eta")
    s_b = surface_catalog("S_B")
    margin = transversality_margin([p, s_b], [(0, 1)])
    assert margin > 1e-6


def test_transversality_degenerate_point_of_s_d():
    p = surface_catalog("P", (0j, 0j), chart="U1")
    s_d = surface_catalog("S_D", chart="U1")
    margin = transversality_margin([p, s_d], [(0, 0, 1, 0)])
    assert margin < 1e-6


def test_transversality_margin_requires_on_surface_point():
    p = surface_catalog("P", (0j,), chart="eta")
    q = surface_catalog("Q", chart="eta")
    with pytest.raises(PreconditionError):
        transversality_margin([p, q], [(0.5, 0.5)])


def test_transversality_margin_requires_shared_chart():
    p = surface_catalog("P", (0j,), chart="eta")
    s_d = surface_catalog("S_D")
    with pytest.raises(InputError):
        transversality_margin([p, s_d], [(0, 0)])


# ------------------------------------- the catalog on columns, against Python

def _reference_catalog(name, chart, params):
    """``(value, gradient)`` of one catalog surface as per-point Python
    complex expressions, one function per gradient entry: the reference the
    column functions must round as."""
    z = params if len(params) == 2 else (0j, 0j)
    a = params[0] if params else 0j

    def quad(p):
        return p[1] ** 2 + 3 * p[1] * p[3] + 2 * p[3] ** 2

    def const(c):
        return lambda p: c

    one, zero = const(1 + 0j), const(0j)
    return {
        ("P", "eta"): (lambda p: p[0] + a, (one, zero)),
        ("P", "U2"): (lambda p: p[0] + p[1] * z[0] + z[1],
                      (one, const(z[0]), zero, zero)),
        ("P", "U1"): (lambda p: p[0] + z[0] + p[1] * z[1],
                      (one, const(z[1]), zero, zero)),
        ("Q", "eta"): (lambda p: p[0] + p[1], (one, one)),
        ("Q", "U2"): (lambda p: p[0] + p[1] * p[2] + p[3],
                      (one, lambda p: p[2], lambda p: p[1], one)),
        ("Q", "U1"): (lambda p: p[0] + p[2] + p[1] * p[3],
                      (one, lambda p: p[3], one, lambda p: p[1])),
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
    ("P", "eta", (0.3 - 0.2j,)), ("P", "U2", (0.2 + 0.1j, -0.4j)),
    ("P", "U1", (-0.0, 0.5)), ("Q", "eta", ()), ("Q", "U2", ()), ("Q", "U1", ()),
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
    p = surface_catalog("P", (0j,), chart="eta")
    q = surface_catalog("Q", chart="eta")
    with pytest.raises(PreconditionError, match=r"point 2 \(0j, \(1\+0j\)\) is not on Q"):
        transversality_margin([p, q], [(0, 0), (0, 0), (0, 1), (1, 0)])
    with pytest.raises(PreconditionError, match=r"point 1 .* is not on P "):
        transversality_margin([p, q], [(0, 0), (1, -1), (0, 1)])
    with pytest.raises(InputError):
        transversality_margin([p, q], [])


def test_sampler_batches_draw_what_the_point_loop_draws(monkeypatch):
    spec = surface_catalog("S_E")
    value = _reference_catalog("S_E", "U2", ())[0]
    real = geometry._SAMPLERS["S_E", "U2"]

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
    monkeypatch.setitem(geometry._SAMPLERS, ("S_E", "U2"), forcing(rngs))
    assert repr(sample_on_surface(spec, seed=17, count=12)) == repr(reference)
    assert len(rngs) == len(ref_rngs)
    assert rngs[-1].getstate() == rng.getstate()


def test_sample_count_is_bounded_before_any_draw(monkeypatch):
    def drawing(rng, params):
        raise AssertionError("drew a candidate")

    monkeypatch.setitem(geometry._SAMPLERS, ("S_E", "U2"), drawing)
    for count in (0, geometry.MAX_SAMPLE_COUNT + 1):
        with pytest.raises(InputError, match="count must be in"):
            sample_on_surface(surface_catalog("S_E"), seed=1, count=count)
