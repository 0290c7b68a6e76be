"""Degree-k complex multilinear antisymmetric forms as evaluators.

A form is a linear combination of coordinate wedge monomials
``c(p) dz_{i1} ^ ... ^ dz_{ik}``: a dict from strictly increasing index
tuples to coefficient callables.  Wedge, sum and scaling all build new
term dicts, so every form is evaluated the same way.

Evaluation is batched (:meth:`KForm.evaluate_many`): coefficients take a
batch's coordinate columns, each frame is canonicalized (vectors sorted, the
value multiplied by the permutation sign), so that swapping two vectors
flips the sign exactly, and the frame minors are taken on whole arrays.
Within one batch each operand of a wedge, sum or scaling runs once, when a
term first asks for it, in term order (:func:`shared`).
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, PoleError

# dim coordinate columns (complex, length m) -> m values, or one for all rows
CoeffFn = Callable[[tuple[np.ndarray, ...]], "np.ndarray | complex"]
PLAN_CACHE_SIZE = 256  # entries kept by each of _minor_plan and _pairs


def _const_fn(value: complex) -> CoeffFn:
    value = complex(value)
    return lambda cols: value


# ------------------------------------------------------- batch arithmetic

class Columns(tuple):
    """A batch's coordinate columns, with the ``memo`` of its :func:`shared` values."""

    def __init__(self, columns):
        self.memo = {}


def shared(fn: CoeffFn, cols):
    """``fn(cols)``, once per batch: on :class:`Columns` the first call keeps
    its value (never to be written to) and later calls return it; a call that
    raises keeps nothing.  On other columns ``fn`` just runs."""
    memo = getattr(cols, "memo", {})
    if fn not in memo:
        memo[fn] = fn(cols)
    return memo[fn]


def fault(bad, error) -> None:
    """Raise ``error(row)``, ``row`` set, at the first row where ``bad`` holds."""
    if bad.any():
        exc = error(row := int(bad.argmax()))
        exc.row = row
        raise exc


def pole_at(cols, bad, message: str) -> None:
    """:func:`fault` with a :class:`PoleError` carrying the row's point."""
    fault(bad, lambda row: PoleError(message, point=tuple(complex(c[row]) for c in cols)))


def _join(re, im) -> np.ndarray:
    out = np.asarray(re, dtype=complex)  # a new array: re is real
    out.imag = im
    return out


# Products, quotients and int powers of complex arrays or scalars, rounded as
# Python's complex arithmetic rounds them (numpy's complex product may fuse a
# multiply-add).  numpy's sums and negation are exact already.  ``mul`` and
# ``power`` on numbers only (a point's coordinates) are Python's own operators.
_NUMBER = (int, float, complex)


def _mul(x, y):  # on (re, im) pairs
    (xr, xi), (yr, yi) = x, y
    return xr * yr - xi * yi, xr * yi + xi * yr


def mul(a, b) -> np.ndarray:
    """``a * b`` rounded as Python's complex product; on two numbers it is
    Python's ``*`` itself, two exact complex numbers tested before ``isinstance``."""
    if type(a) is complex and type(b) is complex:
        return a * b
    if isinstance(a, _NUMBER) and isinstance(b, _NUMBER):
        return complex(a) * complex(b)
    return _join(*_mul((a.real, a.imag), (b.real, b.imag)))


def div(a, b) -> np.ndarray:
    """CPython's ``_Py_c_quot``: scaled by the divisor part of larger modulus
    (real on ties); a NaN part fails that test and gives NaN through the other
    branch, as CPython's NaN case; a zero divisor raises for its first row."""
    (xr, xi), (yr, yi) = (a.real, a.imag), (b.real, b.imag)
    by_re = np.abs(yr) >= np.abs(yi)
    big, small = np.where(by_re, yr, yi), np.where(by_re, yi, yr)
    fault(by_re & (big == 0), lambda row: ZeroDivisionError("complex division by zero"))
    ratio = small / big
    den = big + small * ratio
    # (p, q) is (xr, xi) on the real branch, (xi, xr) on the other: re is
    # xr + xi*ratio | xr*ratio + xi, im is xi - xr*ratio | xi*ratio - xr
    p, q = np.where(by_re, xr, xi), np.where(by_re, xi, xr)
    pt = p * ratio
    return _join((p + q * ratio) / den, np.where(by_re, q - pt, pt - q) / den)


def power(a, n: int) -> np.ndarray:
    """``a ** n``, int n >= 0, by binary squaring as CPython's ``c_powu``; an
    infinite part raises ``OverflowError`` for its first row, as ``**`` does."""
    if type(a) is complex:  # Python's own operator, before any isinstance test
        return a ** n
    if isinstance(a, _NUMBER):
        return complex(a) ** n
    r, bit = 1 + 0j, 1
    while bit <= n:
        if n & bit:  # the first factor, (1 + 0j) * a, exactly
            r = mul(r, a) if n & (bit - 1) else _join(a.real - 0.0 * a.imag, a.imag + 0.0 * a.real)
        bit <<= 1
        a = mul(a, a) if bit <= n else a
    if not np.isfinite(r).all():
        fault(np.isinf(r.real) | np.isinf(r.imag),
              lambda row: OverflowError("complex exponentiation"))
    return r


def modulus(values) -> np.ndarray:
    """``abs`` of complex values, rounded as Python's ``abs`` rounds it
    (numpy's complex absolute value differs in the last bit)."""
    values = np.asarray(values, dtype=complex)
    return np.hypot(values.real, values.imag)


def _frame_order(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable order, shape (vector, point), that sorts each frame's
    vectors (``frames`` is (vector, coordinate, point)) lexicographically by
    the (re, im) parts of their coordinates, and whether it is odd.  The
    leading real parts settle almost every frame; ties are sorted on all."""
    k, _, m = frames.shape
    lead = frames[:, 0].real
    order = np.argsort(lead, axis=0, kind="stable")
    lead = lead[order, np.arange(m)]
    tied = ~(lead[1:] > lead[:-1]).all(axis=0)
    if tied.any():
        parts = frames[:, :, tied]
        keys = np.stack([parts.real, parts.imag], axis=2).reshape(k, -1, len(parts[0, 0]))
        order[:, tied] = np.lexsort(keys.transpose(1, 0, 2)[::-1], axis=0)
    lo, hi = _pairs(k)
    return order, (order[lo] > order[hi]).sum(axis=0) % 2 == 1


def _gather(frames: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``frames[order[v, p], c, p]`` by one flat ``take`` from the memory of
    frames C-contiguous as (vector, coordinate, point) or (point, vector,
    coordinate), the layouts callers pass; other frames are copied first."""
    if not (frames.flags.c_contiguous or frames.transpose(2, 0, 1).flags.c_contiguous):
        frames = np.ascontiguousarray(frames)
    _, dim, m = frames.shape
    sk, sd, sm = (s // frames.itemsize for s in frames.strides)  # in elements
    grid = (np.arange(dim) * sd)[:, None] + np.arange(m) * sm
    return frames.ravel(order="K").take((order * sk)[:, None, :] + grid)


def _index(values) -> np.ndarray:
    """A read-only index array, for the cached plans below."""
    values = np.array(values, dtype=np.intp)
    values.flags.writeable = False
    return values


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _pairs(k: int) -> np.ndarray:
    """The index pairs (lo, hi), lo < hi, of k vectors."""
    return _index(list(itertools.combinations(range(k), 2))).reshape(-1, 2).T


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _minor_plan(keys: tuple[tuple[int, ...], ...], k: int):
    """The index arrays of :func:`_minors` (they do not depend on the dim)."""
    steps, subset_at, rows_at = [], {(c,): c for c in range(k)}, \
        {key[-1:]: key[-1] for key in keys}
    for size in range(2, k + 1):
        rows = sorted({key[-size:] for key in keys})
        subsets = list(itertools.combinations(range(k), size))
        sub = [[subset_at[S[:p] + S[p + 1:]] for p in range(size)] for S in subsets]
        steps.append((_index(subsets)[:, :, None], _index(sub)[:, :, None],
                      _index([r[0] for r in rows]), _index([rows_at[r[1:]] for r in rows])))
        subset_at = {S: i for i, S in enumerate(subsets)}
        rows_at = {r: j for j, r in enumerate(rows)}
    return tuple(steps), _index([rows_at[key] for key in keys])


def _minors(keys: tuple[tuple[int, ...], ...], frames: np.ndarray) -> np.ndarray:
    """The minor of every term on every frame (vector, coordinate, point),
    complex (term, point): the determinant of the rows ``keys[t]``, expanded
    along its first row (alternating cofactor sum, left to right).  The
    sub-minors of one size are computed together, once per subset of vectors
    and trailing rows of some key."""
    k, _, m = frames.shape
    if k == 0:
        return np.ones((len(keys), m), dtype=complex)
    steps, pick = _minor_plan(keys, k)
    re, im = frames.real, frames.imag
    minor = (re, im)  # minor[.][i, j]: the minor of vector subset i on trailing rows j
    for size, (at, sub, first, rest) in enumerate(steps, start=2):
        term = _mul((re[at, first], im[at, first]), (minor[0][sub, rest], minor[1][sub, rest]))
        minor = (term[0][:, 0], term[1][:, 0])
        for pos in range(1, size):
            for part, t in zip(minor, term):
                (np.subtract if pos % 2 else np.add)(part, t[:, pos], out=part)
    return _join(minor[0][0][pick], minor[1][0][pick])


# ------------------------------------------------------------------ KForm

class KForm:
    """A degree-k form on C^dim, evaluated on k complex tangent vectors."""

    __slots__ = ("degree", "dim", "terms")

    def __init__(self, degree: int, dim: int, *,
                 terms: dict[tuple[int, ...], CoeffFn]):
        if degree < 0 or dim < 1:
            raise InputError("form degree must be >= 0 on an ambient of dim >= 1")
        self.degree = degree
        self.dim = dim
        self.terms = terms

    # -- construction helpers ------------------------------------------

    @staticmethod
    def basis(dim: int, *indices: int, coeff: complex | CoeffFn = 1) -> "KForm":
        """The wedge monomial ``coeff * dz_{i1} ^ ... ^ dz_{ik}``."""
        for i in indices:
            if not 0 <= i < dim:
                raise InputError(f"index {i} outside ambient dim {dim}")
        if len(set(indices)) != len(indices):
            return KForm(len(indices), dim, terms={})
        key, sign = _sorted_key(tuple(indices))
        fn = coeff if callable(coeff) else _const_fn(coeff)
        if sign < 0:
            inner = fn
            fn = lambda cols: -inner(cols)
        return KForm(len(indices), dim, terms={key: fn})

    # -- evaluation -----------------------------------------------------

    def evaluate(self, point, vectors: Sequence[Sequence[complex]]) -> complex:
        """The form at one point on one frame: a one-row :meth:`evaluate_many`."""
        return complex(self.evaluate_many((point,), (vectors,))[0])

    def evaluate_many(self, points, frames) -> np.ndarray:
        """The form at m points, each on its own frame of ``degree`` vectors:
        :meth:`on_frames` of the :meth:`coefficients` at ``points``.

        ``points`` has shape (m, dim) and ``frames`` shape (m, degree, dim);
        the result is m complex values.  The arithmetic is Python's, so each
        row equals a one-point evaluation bit for bit.
        """
        points = np.asarray(points, dtype=complex)
        frames = np.asarray(frames, dtype=complex)
        if frames.ndim < 3 and frames.size == 0:  # frames of no vectors
            frames = frames.reshape(len(frames), 0, self.dim)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise InputError(f"point has {points.shape[-1]} "
                             f"coordinates, form lives on C^{self.dim}")
        if frames.ndim != 3 or frames.shape[1] != self.degree:
            raise InputError(f"degree-{self.degree} form needs {self.degree} "
                             f"vectors, got {frames.shape[1]}")
        if self.degree and frames.shape[2] != self.dim:
            raise InputError(f"tangent vector has {frames.shape[2]} "
                             f"components, expected {self.dim}")
        if len(frames) != len(points):
            raise InputError(
                f"{len(points)} points but {len(frames)} frames")
        return self.on_frames(self.coefficients(points), frames)

    def coefficients(self, points: np.ndarray) -> np.ndarray:
        """Every term coefficient at m points (an (m, dim) complex array):
        complex (term, m), terms in order.

        Each coefficient is called on the batch's :class:`Columns`, where an
        operand several terms share runs once, for the first (:func:`shared`).
        One that fails raises with its first failing row in ``row``
        (:func:`fault`), and the batch is cut before that row and evaluated
        again until none fails, so the error raised is the one point-by-point
        evaluation (point, then term order) meets first.  ``ZeroDivisionError``
        and ``OverflowError`` become a :class:`PoleError` with the point and row.
        """
        coeff = np.empty((len(self.terms), len(points)), dtype=complex)
        n, error = len(points), None
        with np.errstate(all="ignore"):
            while True:
                try:
                    cols = Columns(points[:n].T)
                    for t, c in enumerate(self.terms.values()):
                        coeff[t, :n] = c(cols)
                    break
                except Exception as exc:
                    row = getattr(exc, "row", None)
                    if row is None or not 0 <= row < n:
                        raise
                    n, error = row, exc
        if isinstance(error, (ZeroDivisionError, OverflowError)):
            what = "has a pole" if isinstance(error, ZeroDivisionError) else "overflows"
            error = PoleError(f"form coefficient {what}", point=tuple(points[n].tolist()))
            error.row = n
            raise error from None
        if error is not None:
            raise error
        return coeff

    def on_frames(self, coeff: np.ndarray, frames: np.ndarray) -> np.ndarray:
        """The form from its :meth:`coefficients` ``coeff`` on one frame
        (an (m, degree, dim) complex array) per point: each frame is sorted
        (see :func:`_frame_order`), its terms' minors are multiplied by the
        coefficients and summed in term order, and the value is negated for
        an odd permutation."""
        m = frames.shape[0]
        frames = frames.transpose(1, 2, 0)  # (vector, coordinate, point)
        odd = None
        if self.degree >= 2:
            order, odd = _frame_order(frames)
            frames = _gather(frames, order)
        value = np.zeros(m, dtype=complex)
        with np.errstate(all="ignore"):
            for term in mul(coeff, _minors(tuple(self.terms), frames)):
                value += term
        if odd is not None:
            np.negative(value, out=value, where=odd)
        return value


def _sorted_key(indices: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The distinct ``indices`` sorted, and the sign of the sorting
    permutation: the parity of their inversions."""
    inversions = sum(a > b for a, b in itertools.combinations(indices, 2))
    return tuple(sorted(indices)), (-1) ** inversions


# ------------------------------------------------------------ form algebra

def wedge(f1: KForm, f2: KForm) -> KForm:
    """Exterior product, merging the wedge monomials of the two factors."""
    if f1.dim != f2.dim:
        raise InputError("wedge factors live on different ambients")
    degree = f1.degree + f2.degree
    if degree > 2 * f1.dim:
        raise InputError("wedge degree exceeds the ambient real capacity")
    terms: dict[tuple[int, ...], list] = {}
    for k1, c1 in f1.terms.items():
        for k2, c2 in f2.terms.items():
            if set(k1) & set(k2):
                continue
            key, sign = _sorted_key(k1 + k2)
            terms.setdefault(key, []).append((sign, c1, c2))
    merged: dict[tuple[int, ...], CoeffFn] = {}
    for key, parts in terms.items():
        def coeff(cols, parts=tuple(parts)):
            total = 0j
            for sign, c1, c2 in parts:
                total = total + mul(mul(sign, shared(c1, cols)), shared(c2, cols))
            return total
        merged[key] = coeff
    return KForm(degree, f1.dim, terms=merged)


def add(f1: KForm, f2: KForm) -> KForm:
    if f1.dim != f2.dim or f1.degree != f2.degree:
        raise InputError("can only add forms of equal degree and ambient")
    terms = dict(f1.terms)
    for key, c2 in f2.terms.items():
        if key in terms:
            c1 = terms[key]
            terms[key] = lambda cols, c1=c1, c2=c2: shared(c1, cols) + shared(c2, cols)
        else:
            terms[key] = c2
    return KForm(f1.degree, f1.dim, terms=terms)


def scale(form: KForm, factor: complex | CoeffFn) -> KForm:
    fn = factor if callable(factor) else _const_fn(factor)
    terms = {
        key: (lambda cols, c=c, fn=fn: mul(shared(fn, cols), shared(c, cols)))
        for key, c in form.terms.items()
    }
    return KForm(form.degree, form.dim, terms=terms)


# -------------------------------------------------- numeric exterior derivative

def d_numeric(form: KForm, point, vectors) -> complex:
    """Exterior derivative of ``form`` at one point on k+1 constant vectors:
    a one-sample :func:`d_numeric_many`."""
    return complex(d_numeric_many(form, (point,), (vectors,))[0])


def d_numeric_many(form: KForm, points, frames) -> np.ndarray:
    """Exterior derivative of ``form`` at m points, each on its own k+1
    constant vectors (``frames`` has shape (m, k+1, dim)).

    The alternating sum of directional derivatives
    ``sum_i (-1)^i D_{v_i} [form(.; v_0 .. v_i-hat .. v_k)]`` by central
    differences of step ``1e-5 * (1 + max_j |p_j|)`` at each point.  The
    stencil of every sample is one :meth:`KForm.evaluate_many` call.
    """
    points = np.asarray(points, dtype=complex)
    frames = np.asarray(frames, dtype=complex)
    m, k = len(points), form.degree + 1
    if frames.ndim != 3 or frames.shape[1] != k:
        raise InputError(f"d of a degree-{form.degree} form needs {k} vectors")
    if points.shape != (m, form.dim) or frames.shape != (m, k, form.dim):
        raise InputError(f"need points (m, {form.dim}) and frames "
                         f"(m, {k}, {form.dim}), got {points.shape} "
                         f"and {frames.shape}")
    h = 1e-5 * (1.0 + modulus(points).max(axis=1, initial=0.0))
    shift = h[:, None, None] * frames
    stencil = np.stack([points[:, None] + shift, points[:, None] - shift], axis=2)
    drop = np.array([[j for j in range(k) if j != i] for i in range(k)], dtype=np.intp)
    rest = frames[:, drop.reshape(k, k - 1)]
    rest = np.broadcast_to(rest[:, :, None], (m, k, 2, k - 1, form.dim))
    values = form.evaluate_many(stencil.reshape(2 * m * k, form.dim),
                                rest.reshape(2 * m * k, k - 1, form.dim))
    values = values.reshape(m, k, 2)
    diff = values[..., 0] - values[..., 1]
    twice = (2 * h)[:, None]
    deriv_re, deriv_im = diff.real / twice, diff.imag / twice
    total = np.zeros(m, dtype=complex)
    for i in range(k):
        sign = -1 if i % 2 else 1
        total.real += sign * deriv_re[:, i]
        total.imag += sign * deriv_im[:, i]
    return total


def pullback_integrand(form: KForm, cycle, param) -> complex:
    """Evaluate ``form`` on a cycle's pushforward frame at a parameter point.

    The point and frame are the cycle's at ``param`` (``cycle.at``, which
    raises :class:`PoleError` if either is not finite); the frame has one
    analytic tangent vector per cycle dimension, which must equal the form's
    degree.
    """
    point, frame = cycle.at(param)
    return form.evaluate(point, frame)
