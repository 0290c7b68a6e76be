import functools
import itertools
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cflab import exprlang, forms, geometry, kernels
from cflab.errors import InputError, PoleError
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
    with pytest.raises(InputError):
        forms.wedge(KForm.basis(2, 0), KForm.basis(3, 0))


def test_basis_checks_the_index_range_before_a_repeated_index():
    for indices in ((5,), (5, 5)):
        with pytest.raises(InputError, match="index 5 outside ambient dim 2"):
            KForm.basis(2, *indices)
    repeated = KForm.basis(3, 1, 1)
    assert (repeated.degree, repeated.dim, repeated.terms) == (2, 3, {})


def _merge_sign(left, right):
    # Parity of interleaving two increasing index tuples into sorted order.
    inversions = 0
    for i in left:
        inversions += sum(1 for j in right if j < i)
    return (-1) ** inversions


def test_sorted_key_of_a_merge_is_its_interleaving_parity():
    # Every pair of disjoint increasing index tuples on C^6: each index is
    # in the left tuple, the right one or neither.
    for owner in itertools.product((0, 1, 2), repeat=6):
        left = tuple(i for i, o in enumerate(owner) if o == 1)
        right = tuple(i for i, o in enumerate(owner) if o == 2)
        key, sign = forms._sorted_key(left + right)
        assert key == tuple(sorted(left + right))
        assert sign == _merge_sign(left, right), (left, right)


def _cycle_parity_sign(indices):
    # Sign of the permutation that sorts ``indices``: (-1)^(length - cycles).
    perm = sorted(range(len(indices)), key=indices.__getitem__)
    seen, cycles = set(), 0
    for start in range(len(perm)):
        if start not in seen:
            cycles += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return (-1) ** (len(perm) - cycles)


def test_sorted_key_sign_is_the_sorting_permutations_cycle_parity():
    # Every ordering of up to 6 distinct indices from 0..7: 28 961 tuples.
    count = 0
    for size in range(7):
        for indices in itertools.permutations(range(8), size):
            key, sign = forms._sorted_key(indices)
            assert key == tuple(sorted(indices))
            assert sign == _cycle_parity_sign(indices), indices
            count += 1
    assert count == 28961


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
    with pytest.raises(InputError):
        f.evaluate((0, 0), [(1, 0, 0)])
    with pytest.raises(InputError):
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
    f = functools.reduce(forms.wedge, [KForm.basis(4, 0), KForm.basis(4, 1),
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


def _d_form(form, pointwise):
    """d(form) as terms: the coefficient of dz_J is d_numeric on the unit
    frame e_J."""
    def unit(i):
        return tuple(1 if j == i else 0 for j in range(form.dim))

    terms = {
        key: pointwise(lambda p, frame=tuple(unit(i) for i in key):
                       forms.d_numeric(form, p, frame))
        for key in itertools.combinations(range(form.dim), form.degree + 1)
    }
    return KForm(form.degree + 1, form.dim, terms=terms)


def test_d_numeric_squared_is_small(pointwise):
    rng = random.Random(21)
    f = KForm.basis(3, 1, coeff=lambda p: p[0] ** 2 * p[2] + p[1])
    df = _d_form(f, pointwise)
    for _ in range(10):
        p = _rand_vec(rng, 3)
        v = [_rand_vec(rng, 3) for _ in range(3)]
        scale = max(1.0, abs(df.evaluate(p, v[:2])))
        assert abs(forms.d_numeric(df, p, v)) < 1e-4 * scale


def test_pullback_integrand_circle():
    from cflab import cycles

    circle = cycles.Cycle(kind="circle", factors=(cycles.Circle(),),
                          map=lambda t: (np.exp(1j * t[0]),),
                          tangent=lambda t: ((1j * np.exp(1j * t[0]),),))
    form = KForm.basis(1, 0, coeff=lambda p: 1 / p[0])
    val = forms.pullback_integrand(form, circle, (0.0,))
    assert val == pytest.approx(1j)


def test_pullback_integrand_segment_constant():
    from cflab import cycles

    seg = cycles.segment(1 + 0j, 0j)
    form = KForm.basis(1, 0)
    for t in (0.0, 0.3, 0.9):
        assert forms.pullback_integrand(form, seg, (t,)) == -1


def test_pullback_integrand_rejects_a_zero_form_on_a_one_cycle():
    # integrate rejects the same pair: form degree 0 != cycle dimension 1
    from cflab import cycles

    seg = cycles.segment(0j, 1 + 0j)
    form = KForm(0, 1, terms={(): lambda p: p[0] ** 2})
    with pytest.raises(InputError, match="degree-0 form needs 0 vectors, got 1"):
        forms.pullback_integrand(form, seg, (0.5,))


def test_pole_error_carries_point():
    form = KForm.basis(1, 0, coeff=lambda p: forms.div(1, p[0]))
    with pytest.raises(PoleError) as err:
        form.evaluate((0j,), [(1,)])
    assert err.value.point == (0j,) and err.value.row == 0


def test_coefficient_scale_terms(monkeypatch):
    # the scale of vanishing_max_and_scale: the sup norm of the coefficients
    # at the sampled points (here given), at least 0.0, NaN passed over
    spec = geometry.surface_catalog("Q", chart="eta")

    def scale(form, points):
        monkeypatch.setattr(kernels, "sample_on_surface", lambda spec, seed, count: points)
        return kernels.vanishing_max_and_scale(form, spec, 0, len(points))[1]

    f = forms.add(KForm.basis(2, 0, coeff=lambda p: 3 * p[1]),
                  KForm.basis(2, 1, coeff=lambda p: p[0]))
    assert scale(f, [(2, 5)]) == pytest.approx(15.0)
    assert scale(f, [(2, 5), (7, 1), (1, 0)]) == pytest.approx(15.0)
    nan = KForm.basis(2, 0, coeff=lambda p: np.where(p[0] == 1, np.nan, p[0]))
    assert scale(nan, [(1, 0), (-2, 0)]) == 2.0  # NaN passed over
    assert scale(KForm(1, 2, terms={}), [(1, 0)]) == 0.0


# ------------------------------------------------ batched evaluation, properties

_PROFILE = settings.get_profile("cflab")
_FLOATS = st.floats(-1.0, 1.0)
_COMPLEX = st.builds(complex, _FLOATS, _FLOATS)
# Real parts of xi_0 and xi_1 in [1, 2] keep xi.z (|z_k| <= 0.3) and the
# chart formula's xi_0, xi_1 away from zero.
_LEAD = st.builds(complex, st.floats(1.0, 2.0), _FLOATS)

_SWAP_FORMS = {
    "psi_n1": kernels.psi(1, (0.3 + 0.1j,)),
    "psi_n1_f": kernels.psi(1, (0.3 + 0.1j,),
                            exprlang.parse_expr("exp(x)+x^2", 1)),
    "phi_n2": kernels.phi(2, (0.2 + 0j, -0.1 + 0j)),
    "psi_n2": kernels.psi(2, (0.2 + 0j, -0.1 + 0j)),
    "chart_formula_n3": kernels.phi_chart_formula(3),
}
_BATCH_FORMS = dict(_SWAP_FORMS, **{
    "phi_n1": kernels.phi(1, (0.3 + 0.1j,)),
    "scalar": KForm(0, 2, terms={(): lambda p: p[0] * p[1] - 1j}),
    "tau_D": kernels.casebook_form("tau_D"),
    "one_form_unsorted_terms": KForm(1, 3, terms={
        (2,): lambda p: p[0] + 2, (0,): lambda p: p[1] * p[2]}),
})


@st.composite
def _point_and_frame(draw, form):
    point = tuple(draw(_LEAD if i < 2 else _COMPLEX) for i in range(form.dim))
    frame = [tuple(draw(_COMPLEX) for _ in range(form.dim))
             for _ in range(form.degree)]
    return point, frame


@pytest.mark.parametrize("name", sorted(_SWAP_FORMS))
@settings(_PROFILE, max_examples=60)
@given(data=st.data())
def test_swapping_two_vectors_flips_the_sign_exactly(name, data):
    form = _SWAP_FORMS[name]
    point, frame = data.draw(_point_and_frame(form))
    i, j = data.draw(st.lists(st.integers(0, form.degree - 1), min_size=2,
                              max_size=2, unique=True))
    swapped = list(frame)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert form.evaluate(point, swapped) == -form.evaluate(point, frame)


@pytest.mark.parametrize("name", sorted(_BATCH_FORMS))
@settings(_PROFILE, max_examples=30)
@given(data=st.data())
def test_every_batch_row_matches_a_one_point_evaluation(name, data):
    form = _BATCH_FORMS[name]
    rows = data.draw(st.lists(_point_and_frame(form), min_size=1, max_size=6))
    points = [p for p, _ in rows]
    frames = [f for _, f in rows]
    values = form.evaluate_many(points, frames)
    assert values.shape == (len(rows),)
    for value, (point, frame) in zip(values, rows):
        one = form.evaluate(point, frame)
        assert abs(value - one) <= 1e-13 * abs(one)


def test_evaluate_many_validates_shapes_once():
    form = KForm.basis(3, 0, 2)
    with pytest.raises(InputError, match="point has 2 coordinates"):
        form.evaluate_many(np.zeros((4, 2)), np.zeros((4, 2, 3)))
    with pytest.raises(InputError, match="needs 2 vectors, got 1"):
        form.evaluate_many(np.zeros((4, 3)), np.zeros((4, 1, 3)))
    with pytest.raises(InputError, match="4 components, expected 3"):
        form.evaluate_many(np.zeros((4, 3)), np.zeros((4, 2, 4)))
    with pytest.raises(InputError):
        form.evaluate_many(np.zeros((4, 3)), np.zeros((5, 2, 3)))
    assert form.evaluate_many(np.zeros((0, 3)), np.zeros((0, 2, 3))).shape == (0,)


def test_evaluate_many_raises_for_the_first_pole_with_its_row():
    calls = []

    def coeff(cols):
        calls.append(cols[0].tolist())
        return forms.div(1, cols[0] - 2)

    form = KForm.basis(1, 0, coeff=coeff)
    points = [(0j,), (1 + 0j,), (2 + 0j,), (3 + 0j,), (2 + 0j,)]
    with pytest.raises(PoleError, match="has a pole") as err:
        form.evaluate_many(points, [[(1,)]] * 5)
    assert err.value.row == 2 and err.value.point == (2 + 0j,)
    # once on the batch, then once on the rows before the pole
    assert calls == [[p for p, in points], [0j, 1 + 0j]]


def test_evaluate_many_raises_what_point_by_point_evaluation_meets_first():
    # Term (0,) fails at row 3, term (1,) at row 1 with a later check of its
    # own, and both again at row 1 for the other two: in point then term
    # order, row 1's first failing step wins.
    def first(cols):
        forms.fault(cols[0] == 3, lambda row: InputError(f"first at {row}"))
        return cols[0]

    def second(cols):
        forms.fault(cols[1] == 5, lambda row: InputError(f"second-a at {row}"))
        forms.fault(cols[1] == 7, lambda row: InputError(f"second-b at {row}"))
        return cols[1]

    form = forms.add(KForm.basis(2, 0, coeff=first), KForm.basis(2, 1, coeff=second))
    frames = [[(1, 0)]] * 5
    with pytest.raises(InputError, match="second-b at 1"):
        form.evaluate_many([(0, 0), (0, 7), (0, 5), (3, 0), (0, 0)], frames)
    with pytest.raises(InputError, match="first at 1"):
        form.evaluate_many([(0, 0), (3, 7), (0, 5), (3, 0), (0, 0)], frames)
    with pytest.raises(InputError, match="second-a at 2"):
        form.evaluate_many([(0, 0), (0, 0), (0, 5), (3, 7), (0, 0)], frames)


def _counted(calls, name, fn):
    """``fn`` that counts its calls in ``calls[name]``."""
    def counted(cols):
        calls[name] = calls.get(name, 0) + 1
        return fn(cols)
    return counted


def _shared_operand_form(calls):
    """scale(wedge(a, b) + scale(wedge(a, b), h), g) on C^3: a's dz_0 and b's
    dz_2 coefficients each meet two wedge terms, every wedge term meets the
    sum and the inner scaling, and g and h meet every term.  a's dz_0 has a
    pole where p_0 = 2, b's dz_2 one where p_2 = -3."""
    def a0(p):
        forms.pole_at(p, p[0] == 2, "a0 pole at p_0 = 2")
        return forms.mul(p[0], p[1]) + 1

    a = KForm(1, 3, terms={(0,): _counted(calls, "a0", a0),
                           (1,): _counted(calls, "a1", lambda p: p[2] - 2j)})
    b = KForm(1, 3, terms={(1,): _counted(calls, "b1", lambda p: forms.power(p[1], 3)),
                           (2,): _counted(calls, "b2", lambda p: forms.div(1, p[2] + 3))})
    w = forms.wedge(a, b)
    h = _counted(calls, "h", lambda p: 0.5 - p[0])
    g = _counted(calls, "g", lambda p: forms.mul(p[1], p[2]))
    return forms.scale(forms.add(w, forms.scale(w, h)), g)


def test_each_operand_runs_once_per_batch_and_rows_equal_one_point_calls():
    calls = {}
    form = _shared_operand_form(calls)
    rng = random.Random(17)
    points = [_rand_vec(rng, 3) for _ in range(6)]
    frames = [[_rand_vec(rng, 3), _rand_vec(rng, 3)] for _ in range(6)]
    values = form.evaluate_many(points, frames)
    assert calls == dict.fromkeys(["a0", "a1", "b1", "b2", "h", "g"], 1)
    # without a batch's columns every term asks again: a0 in two wedge terms,
    # each of them in the sum and in the inner scaling
    calls.clear()
    for c in form.terms.values():
        c(tuple(np.array(points, dtype=complex).T))
    assert calls["a0"] == 4 and calls["b2"] == 4 and calls["g"] == 3
    one = [form.evaluate(p, f) for p, f in zip(points, frames)]
    assert [repr(v) for v in values.tolist()] == [repr(v) for v in one]


@pytest.mark.parametrize("poles", [
    {0: (2, 4)},  # a0 at rows 2 and 4
    {2: (2, 4)},  # b2 (a zero divisor) at rows 2 and 4
    {0: (4,), 2: (2,)},  # b2 first, in a later term
    {0: (2,), 2: (2,)},  # both at row 2: term order decides
])
def test_a_shared_operand_failing_at_a_row_raises_as_without_sharing(monkeypatch, poles):
    rng = random.Random(19)
    points = [list(_rand_vec(rng, 3)) for _ in range(6)]
    for i, rows in poles.items():
        for row in rows:
            points[row][i] = (2, None, -3)[i] + 0j
    frames = [[_rand_vec(rng, 3), _rand_vec(rng, 3)] for _ in range(6)]
    form = _shared_operand_form({})

    def raised():
        with pytest.raises(PoleError) as err:
            form.evaluate_many(points, frames)
        return type(err.value), str(err.value), err.value.row, err.value.point

    shared = raised()
    monkeypatch.setattr(forms, "shared", lambda fn, cols: fn(cols))
    assert raised() == shared
    assert shared[2] == min(min(rows) for rows in poles.values())
    assert shared[3] == tuple(points[shared[2]])


def test_a_coefficient_error_without_a_row_propagates_as_raised():
    def coeff(cols):
        raise PoleError("no row", point=None)

    with pytest.raises(PoleError, match="no row") as err:
        KForm.basis(1, 0, coeff=coeff).evaluate_many([(0j,), (1j,)], [[(1,)]] * 2)
    assert err.value.row is None


def test_d_numeric_many_equals_one_sample_calls_exactly():
    rng = random.Random(31)
    form = kernels.phi(2, (0.2 + 0j, -0.1 + 0j))
    points = [tuple(_rand_c(rng) + (1 if i < 2 else 0) for i in range(5))
              for _ in range(7)]
    frames = [[_rand_vec(rng, 5) for _ in range(4)] for _ in range(7)]
    batch = forms.d_numeric_many(form, points, frames)
    for value, point, frame in zip(batch, points, frames):
        assert value == forms.d_numeric(form, point, frame)
    with pytest.raises(InputError):
        forms.d_numeric_many(form, points, [f[:3] for f in frames])


def test_frame_order_is_a_stable_lexicographic_sort_with_its_parity():
    # Few distinct parts, so most frames tie on a leading coordinate.
    rng = random.Random(41)
    parts = [0.0, -0.0, 1.0, -1.0, 0.5]
    k, dim = 4, 3
    frames = [[tuple(complex(rng.choice(parts), rng.choice(parts))
                     for _ in range(dim)) for _ in range(k)]
              for _ in range(400)]
    order, odd = forms._frame_order(np.array(frames).transpose(1, 2, 0))
    for j, frame in enumerate(frames):
        keys = [tuple((c.real, c.imag) for c in v) for v in frame]
        want = sorted(range(k), key=keys.__getitem__)
        assert list(order[:, j]) == want
        inversions = sum(want[a] > want[b]
                         for a in range(k) for b in range(a + 1, k))
        assert odd[j] == (inversions % 2 == 1)


def _tied_frames(k, dim, m, seed):
    """(vector, coordinate, point) frames, C-contiguous, whose leading real
    parts tie at every third point, and whose first two vectors are equal
    at every fifth."""
    rng = np.random.default_rng(seed)
    frames = rng.normal(size=(k, dim, m)) + 1j * rng.normal(size=(k, dim, m))
    frames.real[:, 0, ::3] = frames.real[0, 0, ::3]
    frames[1, :, ::5] = frames[0, :, ::5]
    return frames


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_flat_gather_equals_the_three_index_gather(monkeypatch, k):
    dim, m = k + 1, 61
    kdm = _tied_frames(k, dim, m, seed=k)
    layouts = {"integrate (k, dim, m)": kdm,
               "evaluate_many (m, k, dim)":
                   np.ascontiguousarray(kdm.transpose(2, 0, 1)).transpose(1, 2, 0),
               "strided, copied first": _tied_frames(k, dim, 2 * m, seed=k)[:, :, ::2]}
    for name, frames in layouts.items():
        order, _ = forms._frame_order(frames)
        want = frames[order[:, None, :], np.arange(dim)[:, None], np.arange(frames.shape[2])]
        with monkeypatch.context() as patch:
            if not name.startswith("strided"):  # no copy on the two layouts
                patch.setattr(forms.np, "ascontiguousarray", None)
                assert np.shares_memory(frames.ravel(order="K"), frames)
            got = forms._gather(frames, order)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


# ------------------------------------------- scalar reference, exact equality

def _reference_minor(indices, vectors):
    """Cofactor expansion along the first row, in Python complex numbers."""
    if not indices:
        return 1 + 0j
    if len(indices) == 1:
        return vectors[0][indices[0]]
    total = 0j
    for col in range(len(indices)):
        rest = vectors[:col] + vectors[col + 1:]
        term = vectors[col][indices[0]] * _reference_minor(indices[1:], rest)
        total = total + term if col % 2 == 0 else total - term
    return total


def _reference_evaluate(form, point, vectors):
    """One point, one frame: stable sort of the vectors by (re, im) parts,
    the permutation's sign, then the coefficient-minor sum in term order."""
    point = tuple(complex(c) for c in point)
    vectors = [tuple(complex(c) for c in v) for v in vectors]
    keys = [tuple((c.real, c.imag) for c in v) for v in vectors]
    order = sorted(range(len(vectors)), key=keys.__getitem__)
    inversions = sum(order[a] > order[b] for a in range(len(order))
                     for b in range(a + 1, len(order)))
    ordered = tuple(vectors[i] for i in order)
    total = 0j
    for key, coeff in form.terms.items():
        # the coefficient's value, read from its own one-row batch call
        value = np.broadcast_to(coeff(tuple(np.array([c]) for c in point)), 1)
        total += complex(value[0]) * _reference_minor(key, ordered)
    return -total if inversions % 2 else total


def _reference_d(form, point, vectors):
    point = tuple(complex(c) for c in point)
    h = 1e-5 * (1.0 + max(abs(c) for c in point))
    total = 0j
    for i, v in enumerate(vectors):
        rest = vectors[:i] + vectors[i + 1:]
        plus = tuple(p + h * c for p, c in zip(point, v))
        minus = tuple(p - h * c for p, c in zip(point, v))
        deriv = (_reference_evaluate(form, plus, rest)
                 - _reference_evaluate(form, minus, rest)) / (2 * h)
        total += deriv if i % 2 == 0 else -deriv
    return total


@pytest.mark.parametrize("name", sorted(_BATCH_FORMS))
@settings(_PROFILE, max_examples=25)
@given(data=st.data())
def test_evaluate_and_d_numeric_equal_the_scalar_reference_exactly(name, data):
    form = _BATCH_FORMS[name]
    point, frame = data.draw(_point_and_frame(form))
    assert form.evaluate(point, frame) == _reference_evaluate(form, point, frame)
    extra = [tuple(data.draw(_COMPLEX) for _ in range(form.dim))]
    assert forms.d_numeric(form, point, frame + extra) == \
        _reference_d(form, point, frame + extra)


def test_coefficient_overflow_is_a_pole_error():
    form = KForm.basis(1, 0, coeff=lambda p: forms.power(p[0], 2))
    with pytest.raises(PoleError, match="overflows") as err:
        form.evaluate_many([(1 + 0j,), (1e200 + 0j,)], [[(1,)], [(1,)]])
    assert err.value.row == 1 and err.value.point == (1e200 + 0j,)


# ----------------------------------- batch arithmetic, rounded as Python's

_SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 1e-200, 1e154,
                            1e200, 1.7976931348623157e308, float("inf"),
                            -float("inf"), float("nan")])
_PART = st.one_of(_SPECIAL, st.floats(allow_nan=True, allow_infinity=True),
                  st.floats(-2.0, 2.0))
_ANY_C = st.builds(complex, _PART, _PART)


def _python_rows(op, xs, ys):
    """repr of ``op`` on each pair in Python complex arithmetic, or the type
    and row of the first error."""
    out = []
    for row, (x, y) in enumerate(zip(xs, ys)):
        try:
            out.append(repr(op(x, y)))
        except (ZeroDivisionError, OverflowError) as exc:
            return type(exc), row
    return out


def _batch_rows(fn, xs, ys):
    try:
        with np.errstate(all="ignore"):
            value = fn(np.array(xs, dtype=complex), ys)
    except (ZeroDivisionError, OverflowError) as exc:
        return type(exc), exc.row
    return [repr(v) for v in np.broadcast_to(value, len(xs)).tolist()]


@settings(_PROFILE, max_examples=300)
@given(xs=st.lists(_ANY_C, min_size=1, max_size=6), data=st.data())
def test_mul_div_power_round_as_python_complex_arithmetic(xs, data):
    ys = data.draw(st.lists(_ANY_C, min_size=len(xs), max_size=len(xs)))
    y = data.draw(_ANY_C)
    n = data.draw(st.integers(0, 9))
    # array by array, array by scalar (as a coefficient's constants), powers
    cases = [
        (lambda a, b: a * b, lambda a, b: forms.mul(a, np.array(b)), ys),
        (lambda a, b: a / b, lambda a, b: forms.div(a, np.array(b)), ys),
        (lambda a, b: a * b, forms.mul, [y] * len(xs)),
        (lambda a, b: b / a, lambda a, b: forms.div(b[0], a), [y] * len(xs)),
        (lambda a, b: a ** b, lambda a, b: forms.power(a, n), [n] * len(xs)),
    ]
    for op, fn, second in cases:
        arg = second if fn is not forms.mul else y
        assert _batch_rows(fn, xs, arg) == _python_rows(op, xs, second)


def test_int_and_float_scalars_multiply_and_divide_as_python():
    xs = [0j, -0j, complex(-0.0, 0.0), 1 + 2j, complex("inf-1j"), complex("nan+1j")]
    for s in (1, -1, 2, 0.5):
        assert _batch_rows(lambda a, b: forms.mul(s, a), xs, None) == \
            [repr(s * x) for x in xs]
    assert _batch_rows(lambda a, b: forms.div(1, a), xs[3:], None) == \
        [repr(1 / x) for x in xs[3:]]
    with pytest.raises(ZeroDivisionError) as err:
        forms.div(1, np.array(xs))
    assert err.value.row == 0


def test_numbers_take_pythons_own_operators():
    # mul and power test for exact int, float and complex first; every pair
    # of numbers, exact or a subclass (bool, numpy scalars), must give the
    # bits and the type of complex(a) * complex(b) and complex(a) ** n
    xs = [0j, complex(-0.0, 0.0), 1 + 2j, complex("inf-1j"), complex("nan+1j"),
          complex(1e300, -1e300), 2, 0, -7, 2 ** 60, True, False, -0.5, -0.0, 1e308,
          float("nan"), np.complex128(1e200 - 3j), np.complex128(complex(-0.0, 1e-310)),
          np.float64(-0.0), np.float64(-1.5)]

    def bits(value):
        return type(value), struct.pack("<dd", value.real, value.imag)

    for x in xs:
        for y in xs:
            assert bits(forms.mul(x, y)) == bits(complex(x) * complex(y))
        for n in (0, 1, 2, 3, 7, 8):
            try:
                want = complex(x) ** n
            except OverflowError:
                with pytest.raises(OverflowError):
                    forms.power(x, n)
            else:
                assert bits(forms.power(x, n)) == bits(want)


def test_index_plans_are_cached_and_read_only():
    keys = ((1, 2, 3), (2, 3, 4))
    steps, pick = forms._minor_plan(keys, 3)
    assert forms._minor_plan(keys, 3)[0] is steps
    assert forms._pairs(3) is forms._pairs(3)
    for array in [pick, forms._pairs(3), *(a for step in steps for a in step)]:
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 0
