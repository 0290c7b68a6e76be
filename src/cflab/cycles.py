"""Parametrized cycles and deterministic tensor-product quadrature.

Periodic parameter directions use the trapezoid rule (spectrally accurate
for analytic periodic integrands); interval directions use Gauss-Legendre.
Cycle maps are numpy ufunc expressions called on parameter arrays only:
:func:`integrate` evaluates the grid in blocks of them, and a one-point probe
(:meth:`Cycle.at`) is a block of one.  The real and imaginary parts are
each reduced to their correctly rounded sum (exact extraction of long
chunks, then one ``math.fsum``), so an integral does not depend on the
evaluation order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import forms
from .errors import InputError, PoleError

Param = tuple[float, ...]

# Grid points per vectorized evaluation pass, the largest size whose
# temporaries stay inside the heap: glibc gives a freed heap top above its trim
# threshold back to the kernel, and the next block or integral faults it in
# again.  The n = 2 sphere's (3, 5, m) complex frame and its sorted copy take
# 240 bytes a point each, and the (2, total) reduction buffer of integrate sets
# the threshold.  Minor faults of one warm in-process `cflab suite`, median of
# 5 fresh processes at each of seeds 7, 101 and 211 (2-core VM, Python 3.11.7,
# numpy 2.4.6), and its ms: 1024 points 40-43 (246-249 ms), 1280 22-28
# (233-237), 1536 35-36 (229), 1792 13-20 (223), 1920 about 2 000 (223-225),
# 2048 2 050 (219-222), 2304 2 050-2 280 (217-221), 2560 2 450 (212-213),
# 3072 2 700 (208), 4096 71 300-71 700 (264-266).  From 1920 points on, each
# n = 2 integral leaves more than the threshold free and the heap is trimmed.
BLOCK_POINTS = 1792
EXTRACT_MIN = 512  # _fsum extracts longer chunks: below, fsum alone is as fast
EXTRACT_LEVELS = 2  # extractions per chunk in _fsum
MAX_GRID_POINTS = 2 ** 22  # budget of one integrate call, checked up front
MAX_GAUSS_NODES = 1024  # per Gauss-Legendre factor: leggauss is O(n^2) memory
RULE_CACHE_SIZE = 64  # (factor, node count) rules kept by _factor_rule

TWO_PI = 2.0 * math.pi


# ----------------------------------------------------------------- domains

@dataclass(frozen=True)
class Circle:
    """A periodic factor of period 2*pi."""


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise InputError("interval needs a < b")


@dataclass(frozen=True)
class Cycle:
    """A parametrized cycle with an analytic tangent frame.

    ``factors`` holds one :class:`Circle` or :class:`Interval` per parameter
    direction.  ``map`` sends a tuple of parameter arrays, one per factor, to
    a tuple of ambient coordinate arrays; ``tangent`` returns one ambient
    vector per factor (hand differentiated, never by finite differences).
    Both are called on parameter arrays only, through :func:`_on_block`: by
    :func:`integrate` on blocks of grid points and by :meth:`at` on one,
    each block one :class:`forms.Columns`, so a part both need runs once
    per block (:func:`forms.shared`).
    ``x_indices`` names the ambient coordinates that project to affine
    space, used by the orientation test.
    """

    kind: str
    factors: tuple
    map: Callable[[tuple[np.ndarray, ...]], tuple] = field(repr=False)
    tangent: Callable[[tuple[np.ndarray, ...]], tuple] = field(repr=False)
    x_indices: tuple[int, ...] = ()
    reference_param: Param = ()
    _last: list = field(default_factory=list, init=False, repr=False,
                        compare=False)  # (param, (point, frame)) of at()

    def __post_init__(self):
        if len(self.factors) < 1:
            raise InputError("a cycle needs at least one parameter factor")

    @property
    def dim(self) -> int:
        return len(self.factors)

    def at(self, param: Param) -> tuple[np.ndarray, np.ndarray]:
        """The point (ambient,) and the frame (dim, ambient) at one param.

        The callables run on one-element parameter arrays, as on a grid
        block; a point or frame that is not finite raises :class:`PoleError`
        carrying ``param``.  The last result is kept, read-only, so the
        orientation sign costs nothing after the probe at the same param.
        """
        param = tuple(param)
        if self._last and self._last[0] == param:
            return self._last[1]
        params = forms.Columns(np.array([t], dtype=float) for t in param)
        point = _on_block(self.map, params)[..., 0]
        frame = _on_block(self.tangent, params)[..., 0]
        if not (np.isfinite(point).all() and np.isfinite(frame).all()):
            raise PoleError("cycle point or frame is not finite", param=param)
        point.flags.writeable = frame.flags.writeable = False
        self._last[:] = (param, (point, frame))
        return point, frame


# ------------------------------------------------------------ constructors

def segment(start: complex, end: complex) -> Cycle:
    """The straight path from start to end in C, over [0, 1]."""
    start, end = complex(start), complex(end)
    delta = end - start

    def smap(param):
        return (start + param[0] * delta,)

    def stan(param):
        return ((delta,),)

    return Cycle(kind="segment", factors=(Interval(0.0, 1.0),),
                 map=smap, tangent=stan,
                 x_indices=(0,), reference_param=(0.5,))


def sphere_M(z: Sequence[complex], eps: float) -> Cycle:
    """The residue sphere: x on the eps-sphere about z, with the attached
    homogeneous coordinates xi = (x.conj(z) - |x|^2, conj(x - z)).

    Every mapped point satisfies xi.x = 0 and xi.z = -eps^2.
    """
    if eps <= 0:
        raise InputError("sphere radius eps must be positive")
    z = tuple(complex(c) for c in z)
    n = len(z)
    if n == 1:
        z0 = z[0]

        def offset(param):  # x - z, once per block (forms.shared)
            return eps * np.exp(1j * param[0])

        def mmap(param):
            delta = forms.shared(offset, param)
            xi1 = delta.conjugate()
            return (-z0 * xi1 - eps * eps, xi1, z0 + delta)

        def mtan(param):
            d_delta = 1j * forms.shared(offset, param)
            d_conj = d_delta.conjugate()
            return ((-z0 * d_conj, d_conj, d_delta),)

        return Cycle(kind="sphere_M", factors=(Circle(),),
                     map=mmap, tangent=mtan,
                     x_indices=(2,), reference_param=(0.7,))
    if n == 2:
        z1, z2 = z

        def parts(param):  # once per block (forms.shared)
            psi, p1, p2 = param
            return (eps * np.cos(psi), eps * np.sin(psi),
                    np.exp(1j * p1), np.exp(1j * p2))

        def mmap(param):
            a1, a2, e1, e2 = forms.shared(parts, param)
            d1, d2 = a1 * e1, a2 * e2
            c1, c2 = d1.conjugate(), d2.conjugate()
            xi0 = -(z1 * c1 + z2 * c2) - eps * eps
            return (xi0, c1, c2, z1 + d1, z2 + d2)

        def mtan(param):
            a1, a2, e1, e2 = forms.shared(parts, param)
            d1_psi, d2_psi = -a2 * e1, a1 * e2           # d/dpsi
            d1_1, d2_2 = 1j * a1 * e1, 1j * a2 * e2      # d/dphi1, d/dphi2
            c1_psi, c2_psi = d1_psi.conjugate(), d2_psi.conjugate()
            c1_1, c2_2 = d1_1.conjugate(), d2_2.conjugate()
            return ((-(z1 * c1_psi + z2 * c2_psi), c1_psi, c2_psi, d1_psi, d2_psi),
                    (-(z1 * c1_1), c1_1, 0j, d1_1, 0j),
                    (-(z2 * c2_2), 0j, c2_2, 0j, d2_2))

        return Cycle(kind="sphere_M",
                     factors=(Interval(0.0, math.pi / 2), Circle(), Circle()),
                     map=mmap, tangent=mtan,
                     x_indices=(3, 4), reference_param=(0.9, 0.7, 1.3))
    raise InputError("sphere_M is implemented for n in {1, 2}")


def torus_D(eps: float) -> Cycle:
    """The two-cycle inside S_D over P: y1 and x2 on eps-circles, x1 solved
    from the chart equation.  Ambient coordinates are (y1, x2, x1)."""
    if not 0 < eps < 1:
        raise InputError("torus_D needs 0 < eps < 1")

    def parts(param):  # once per block (forms.shared)
        th, et = param
        y1, x2 = eps * np.exp(1j * th), eps * np.exp(1j * et)
        num = 1 + x2 * x2
        scale = eps * eps * np.exp(1j * (th + et))
        return y1, x2, num, scale * (1 + y1), scale

    def dmap(param):
        y1, x2, num, den, _ = forms.shared(parts, param)
        return (y1, x2, 1 - num / den)

    def dtan(param):
        y1, x2, num, den, scale = forms.shared(parts, param)
        dy1, dx2 = 1j * y1, 1j * x2
        # d/dtheta: num constant, den has factor exp(i theta)(1 + y1)
        dden_th = 1j * den + scale * dy1
        # d/deta: num' = 2i x2^2, den' = i den
        dx1_et = (num * (1j * den) - 2j * x2 * x2 * den) / (den * den)
        return ((dy1, 0j, num * dden_th / (den * den)), (0j, dx2, dx1_et))

    return Cycle(kind="torus_D", factors=(Circle(), Circle()),
                 map=dmap, tangent=dtan,
                 x_indices=(0, 1, 2), reference_param=(0.4, 1.1))


def torus_E(r1: float, r2: float) -> Cycle:
    """The torus |x1| = r1, |x2| = r2 in C^2."""
    if r1 <= 0 or r2 <= 0:
        raise InputError("torus_E radii must be positive")

    def parts(param):  # once per block (forms.shared)
        return np.exp(1j * param[0]), np.exp(1j * param[1])

    def emap(param):
        e1, e2 = forms.shared(parts, param)
        return (r1 * e1, r2 * e2)

    def etan(param):
        e1, e2 = forms.shared(parts, param)
        return ((1j * r1 * e1, 0j), (0j, 1j * r2 * e2))

    return Cycle(kind="torus_E", factors=(Circle(), Circle()),
                 map=emap, tangent=etan,
                 x_indices=(0, 1), reference_param=(0.4, 1.1))


# ------------------------------------------------------------- orientation

def orientation_sign(cycle: Cycle, interior_point: Sequence[complex]) -> int:
    """+1 if the parametrization induces the outward-normal orientation.

    Works on the residue sphere only: the sign of the determinant of the
    real matrix [outward normal | tangent frame], realified, taken at the
    reference parameter (:meth:`Cycle.at`) with the ambient projected to
    affine x-space.
    """
    if cycle.kind != "sphere_M":
        raise InputError(
            f"orientation_sign needs a boundary sphere, got {cycle.kind!r}")
    interior = np.asarray(interior_point, dtype=complex)
    point, frame = cycle.at(cycle.reference_param)
    xs = list(cycle.x_indices)
    if interior.shape != (len(xs),):
        raise InputError("interior point dimension mismatch")
    columns = np.array([point[xs] - interior, *frame[:, xs]])
    # realified: each entry becomes (re, im); slogdet's sign cannot overflow
    sign = np.linalg.slogdet(columns.view(float).T)[0]
    if sign == 0:
        raise InputError(f"degenerate frame at the reference param "
                         f"{cycle.reference_param}")
    return int(sign)


# -------------------------------------------------------------- quadrature

@functools.lru_cache(maxsize=RULE_CACHE_SIZE)
def _factor_rule(factor, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of one factor; cached, so both are read-only."""
    if isinstance(factor, Circle):
        h = TWO_PI / n
        nodes, weights = h * np.arange(n), np.full(n, h)
    else:
        nodes, weights = np.polynomial.legendre.leggauss(n)
        mid = 0.5 * (factor.a + factor.b)
        half = 0.5 * (factor.b - factor.a)
        nodes, weights = mid + half * nodes, half * weights
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _fill(grid: np.ndarray, out) -> bool:
    """Write a cycle callable's nested output (tuples of scalars or length-m
    arrays) into ``grid``; False when its nesting is not ``grid``'s."""
    if grid.ndim == 1:
        if isinstance(out, (tuple, list)):
            return False
        grid[...] = out
        return True
    return (isinstance(out, (tuple, list)) and len(out) == len(grid)
            and all(_fill(g, o) for g, o in zip(grid, out)))


def _on_block(fn, params: tuple[np.ndarray, ...]) -> np.ndarray:
    """A cycle callable on m block points, as a complex array shaped as its
    output's tuple nesting, then m.

    ``fn`` takes the block's parameter arrays (see :class:`Cycle`): one that
    fails on them, or whose output is ragged, raises :class:`InputError`.
    """
    try:
        with np.errstate(all="ignore"):
            value = fn(params)
    except (TypeError, ValueError) as exc:
        raise InputError(f"cycle callables take parameter arrays: {exc}") from None
    shape, inner = (), value
    while isinstance(inner, (tuple, list)) and inner:
        shape, inner = shape + (len(inner),), inner[0]
    out = np.empty(shape + (len(params[0]),), dtype=complex)
    try:
        fits = _fill(out, value)
    except (TypeError, ValueError):
        fits = False
    if not fits:
        raise InputError("cycle output is not a regular nesting "
                         "of tuples")
    return out


def _weighted_block(form: forms.KForm, cycle: Cycle,
                    params: tuple[np.ndarray, ...],
                    weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted real and imaginary integrand parts on one block of the grid,
    by one :meth:`KForm.evaluate_many` call on the block's points and frames.
    """
    m = len(weights)
    point, frame = _on_block(cycle.map, params), _on_block(cycle.tangent, params)
    if point.shape[:-1] != (form.dim,) or frame.shape[:-1] != (form.degree, form.dim):
        raise InputError(
            f"cycle point and frame need shapes {(form.dim,)} and "
            f"{(form.degree, form.dim)}, got {point.shape[:-1]} and {frame.shape[:-1]}")
    finite = np.isfinite(point).all(axis=0) & np.isfinite(frame).all(axis=(0, 1))
    stop = m if finite.all() else int(finite.argmin())
    points, frames = point.T, frame.transpose(2, 0, 1)
    n, pole, cause = stop, None, ""
    try:
        value = form.evaluate_many(points[:stop], frames[:stop])
    except PoleError as exc:
        # A value before the pole that is not finite comes first in grid order.
        n, pole, cause = exc.row, exc.point, f": {exc}"
        value = form.evaluate_many(points[:n], frames[:n])
    with np.errstate(all="ignore"):
        re, im = weights[:n] * value.real, weights[:n] * value.imag
    bad = np.flatnonzero(~(np.isfinite(re) & np.isfinite(im)))
    if len(bad) or n < m:
        j = int(bad[0]) if len(bad) else n
        param = tuple(float(a[j]) for a in params)
        what = f"pole on the grid at param {param}{cause}" if j == n < stop \
            else f"is not finite on the grid at param {param}"
        raise PoleError(f"integrand {what}", point=pole if j == n else None,
                        param=param)
    return re, im


def _fsum(values: np.ndarray) -> float:
    """``math.fsum`` of ``values``, bit for bit (zero sign and
    ``OverflowError`` included), from a few floats per chunk.

    Each :data:`BLOCK_POINTS` chunk longer than :data:`EXTRACT_MIN` is cut by
    error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31(1),
    2008, Lemma 3.3).  With 2^m >= len + 2 and sigma = 2^(m + e), where
    max|p| < 2^e, q = (sigma + p) - sigma and p - q are exact, and every
    partial sum of q, in any order, is a multiple of ulp(sigma)/2 below
    sigma, so ``q.sum()`` is exact too.  The nonzero p - q left after
    :data:`EXTRACT_LEVELS` levels go to the one ``math.fsum`` as they are.
    A chunk whose maximum is below 2^-960 (ulp(sigma) could be subnormal) is
    not extracted.  A value at or above 2^(1000 - m), or not finite, hands
    all of ``values`` to ``math.fsum``: below that bound neither sum can
    overflow (under 2^24 values), so an overflow is always fsum's own.
    """
    if len(values) <= EXTRACT_MIN:
        return math.fsum(values.tolist())
    partials = []
    for lo in range(0, len(values), BLOCK_POINTS):
        rest = values[lo:lo + BLOCK_POINTS]
        for _ in range(EXTRACT_LEVELS):
            m = (len(rest) + 1).bit_length()
            top = float(np.abs(rest).max(initial=0.0))
            if not top < 2.0 ** (1000 - m):
                return math.fsum(values.tolist())
            if len(rest) <= EXTRACT_MIN or top < 2.0 ** -960:
                break
            sigma = 2.0 ** (m + math.frexp(top)[1])
            q = (sigma + rest) - sigma
            partials.append(float(q.sum()))
            rest = (rest - q)[rest != q]
        partials += rest.tolist()
    return math.fsum(partials)


def integrate(form: forms.KForm, cycle: Cycle, quad: Sequence[int]) -> complex:
    """Integrate a form over a cycle on the tensor-product grid.

    ``quad`` holds one node count per factor of the cycle, each at least 4;
    a :class:`Circle` factor gets the trapezoid rule and an
    :class:`Interval` factor Gauss-Legendre.
    The grid is walked in parameter-lexicographic order, :data:`BLOCK_POINTS`
    points at a time, with one ``cycle.map`` and ``cycle.tangent`` call per
    block.  The weighted real and imaginary parts of the whole grid are each
    reduced by :func:`_fsum`: exact extraction of each long chunk into a few
    floats, then one ``math.fsum``, with the bits of ``math.fsum`` on the
    values (correctly rounded, so independent of the order and of the block
    size).
    A pole or a non-finite map, frame or value raises :class:`PoleError`
    carrying the first offending param in grid order, and so does a sum that
    overflows (without a param).  A grid above
    :data:`MAX_GRID_POINTS` points, or a Gauss-Legendre factor above
    :data:`MAX_GAUSS_NODES` nodes, raises :class:`InputError` before any
    allocation.
    """
    if form.degree != cycle.dim:
        raise InputError(
            f"form degree {form.degree} != cycle dimension {cycle.dim}")
    sizes = tuple(int(n) for n in quad)
    if len(sizes) != cycle.dim:
        raise InputError(f"need {cycle.dim} quadrature sizes, got {len(sizes)}")
    if any(n < 4 for n in sizes):
        raise InputError("quadrature sizes must be >= 4")
    total = math.prod(sizes)
    if total > MAX_GRID_POINTS:
        raise InputError(f"quadrature grid of {total} points exceeds the "
                         f"budget of {MAX_GRID_POINTS}")
    if any(n > MAX_GAUSS_NODES for f, n in zip(cycle.factors, sizes)
           if not isinstance(f, Circle)):
        raise InputError(f"a Gauss-Legendre factor needs at most "
                         f"{MAX_GAUSS_NODES} nodes, got {sizes}")
    rules = [_factor_rule(f, n) for f, n in zip(cycle.factors, sizes)]
    # One chunk for both parts: freed, it raises glibc's trim threshold to twice
    # its size, above what the next integral frees, so its pages stay mapped.
    re, im = np.empty((2, total))
    for lo in range(0, total, BLOCK_POINTS):
        hi = min(lo + BLOCK_POINTS, total)
        index = np.unravel_index(np.arange(lo, hi), sizes)
        params = forms.Columns(nodes[i] for (nodes, _), i in zip(rules, index))
        weights = math.prod(w[i] for (_, w), i in zip(rules, index))
        re[lo:hi], im[lo:hi] = _weighted_block(form, cycle, params, weights)
    try:
        return complex(_fsum(re), _fsum(im))
    except OverflowError:  # finite weighted values whose sum is not
        raise PoleError("integral is not finite: its sum overflows") from None
