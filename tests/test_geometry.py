import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cflab import cycles, geometry
from cflab.errors import (ChartDomainError, DimensionMismatchError,
                          InputError, PreconditionError)
from cflab.geometry import (affine_chart, dual_pairing, intersection_points,
                            rand_c, sample_on_surface, sample_points,
                            surface_catalog, transversality_margin)

GOLDEN_MARGIN = 0.6180339887498949  # smallest singular value of [[1,0],[1,1]]


def test_dual_pairing_examples():
    assert dual_pairing((1, 0, 0), (5, 7)) == 1
    assert dual_pairing((1, 2, 3), (1j, 1)) == 4 + 2j


def test_dual_pairing_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        dual_pairing((1, 2), (1, 2))


def test_dual_pairing_rejects_zero_xi():
    with pytest.raises(InputError):
        dual_pairing((0, 0), (1,))


def test_dual_pairing_linearity():
    rng = random.Random(4)

    def rc():
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    for _ in range(25):
        xi1 = tuple(rc() for _ in range(3))
        xi2 = tuple(rc() for _ in range(3))
        x = (rc(), rc())
        a, b = rc(), rc()
        combo = tuple(a * u + b * v for u, v in zip(xi1, xi2))
        lhs = dual_pairing(combo, x)
        rhs = a * dual_pairing(xi1, x) + b * dual_pairing(xi2, x)
        assert lhs == pytest.approx(rhs)
        # affine-linear in x: pairing at a convex-type combination
        x2 = (rc(), rc())
        t = rng.uniform(-2, 2)
        blend = tuple(t * u + (1 - t) * v for u, v in zip(x, x2))
        lhs = dual_pairing(xi1, blend)
        rhs = t * dual_pairing(xi1, x) + (1 - t) * dual_pairing(xi1, x2)
        assert lhs == pytest.approx(rhs)


def test_m_cycle_points_pair_to_zero_and_eps_sq():
    for z, eps in (((0.3 + 0.1j,), 0.7), ((0.2 + 0j, -0.1 + 0j), 0.5)):
        sphere = cycles.make_cycle("sphere_M", z=z, eps=eps)
        n = len(z)
        params = [sphere.reference_param,
                  tuple(0.2 for _ in sphere.reference_param),
                  tuple(1.0 for _ in sphere.reference_param)]
        for param in params:
            point = sphere.map(param)
            xi, x = point[:n + 1], point[n + 1:]
            assert abs(dual_pairing(xi, x)) < 1e-12 * (1 + eps)
            assert dual_pairing(xi, z) == pytest.approx(-eps * eps, rel=1e-12)


def test_affine_chart_examples():
    assert affine_chart((2, 4), 1) == (0.5,)
    assert affine_chart((1, 2, 4), 2) == (0.25, 0.5)
    with pytest.raises(ChartDomainError):
        affine_chart((0, 1), 0)


def test_surface_catalog_values():
    s_a = surface_catalog("S_A", (1,))
    assert s_a.value((1, 0)) == 0
    s_b = surface_catalog("S_B")
    assert s_b.value((1, 0.5)) == 0  # 1 + 2*(-0.5)
    q = surface_catalog("Q", chart="eta")
    assert q.value((-1, 1)) == 0


def test_surface_catalog_unknown_name():
    with pytest.raises(InputError):
        surface_catalog("S_X")
    with pytest.raises(InputError):
        surface_catalog("S_B", chart="U2")


def _gradient_fd_gap(spec, point, step=1e-6):
    """Relative disagreement between the analytic gradient and central FDs."""
    point = tuple(complex(c) for c in point)
    grad = spec.gradient(point)
    worst = 0.0
    scale = max(1.0, max(abs(g) for g in grad))
    for i in range(len(point)):
        plus = tuple(c + (step if j == i else 0) for j, c in enumerate(point))
        minus = tuple(c - (step if j == i else 0) for j, c in enumerate(point))
        fd = (spec.value(plus) - spec.value(minus)) / (2 * step)
        worst = max(worst, abs(fd - grad[i]) / scale)
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
        for i, point in enumerate(sample_on_surface(spec, seed=100, count=10)):
            assert _gradient_fd_gap(spec, point) < 1e-6, (spec.name, i)


def test_samplers_land_on_surface():
    for name, chart in [("S_A", None), ("S_B", None), ("S_C1", None),
                        ("S_C2", None), ("S_D", None), ("S_E", None),
                        ("S_D", "U1"), ("Q", "eta"), ("Q", "U2")]:
        params = (2 + 1j,) if name == "S_A" else ()
        spec = surface_catalog(name, params, chart=chart)
        for point in sample_on_surface(spec, seed=5, count=20):
            bound = 1e-12 * (1 + max(abs(c) for c in point))
            assert abs(spec.value(point)) < bound


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
    margin = transversality_margin([p, q], (0, 0))
    assert margin == pytest.approx(GOLDEN_MARGIN, abs=1e-12)


def test_transversality_margin_p_sb_positive():
    p = surface_catalog("P", (0j,), chart="eta")
    s_b = surface_catalog("S_B")
    margin = transversality_margin([p, s_b], (0, 1))
    assert margin > 1e-6


def test_transversality_degenerate_point_of_s_d():
    p = surface_catalog("P", (0j, 0j), chart="U1")
    s_d = surface_catalog("S_D", chart="U1")
    margin = transversality_margin([p, s_d], (0, 0, 1, 0))
    assert margin < 1e-6


def test_transversality_margin_requires_on_surface_point():
    p = surface_catalog("P", (0j,), chart="eta")
    q = surface_catalog("Q", chart="eta")
    with pytest.raises(PreconditionError):
        transversality_margin([p, q], (0.5, 0.5))


def test_transversality_margin_requires_shared_chart():
    p = surface_catalog("P", (0j,), chart="eta")
    s_d = surface_catalog("S_D")
    with pytest.raises(InputError):
        transversality_margin([p, s_d], (0, 0))
