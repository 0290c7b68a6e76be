"""Parametrized cycles and deterministic tensor-product quadrature.

Periodic parameter directions use the trapezoid rule (spectrally accurate
for analytic periodic integrands); interval directions use Gauss-Legendre.
Cycle maps are numpy ufunc expressions, so :func:`integrate` evaluates the
grid in blocks of parameter arrays; one correctly rounded ``math.fsum`` per
real and imaginary part makes the result independent of evaluation order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import forms
from .errors import (DimensionMismatchError, InputError, PoleError,
                     UnsupportedKindError)

Point = tuple[complex, ...]
Param = tuple[float, ...]

BLOCK_POINTS = 4096  # grid points per vectorized evaluation pass
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
class ParamDomain:
    factors: tuple

    def __post_init__(self):
        if len(self.factors) < 1:
            raise InputError("a parameter domain needs at least one factor")

    @property
    def dim(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class QuadratureSpec:
    """Per-factor node counts; the rule is implied by the factor type."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        if any(n < 4 for n in self.sizes):
            raise InputError("quadrature sizes must be >= 4")

    @staticmethod
    def of(sizes: int | Sequence[int], dim: int) -> "QuadratureSpec":
        if isinstance(sizes, int):
            return QuadratureSpec((sizes,) * dim)
        sizes = tuple(int(n) for n in sizes)
        if len(sizes) != dim:
            raise InputError(f"need {dim} quadrature sizes, got {len(sizes)}")
        return QuadratureSpec(sizes)


@dataclass(frozen=True)
class Cycle:
    """A parametrized cycle with an analytic tangent frame.

    ``map`` sends a parameter tuple to an ambient point; ``tangent`` returns
    one ambient vector per parameter factor (hand differentiated, never by
    finite differences); both also take a tuple of parameter arrays.
    ``x_indices`` names the ambient coordinates that project to affine
    space, used by the orientation test.
    """

    kind: str
    domain: ParamDomain
    map: Callable[[Param], Point] = field(repr=False)
    tangent: Callable[[Param], tuple[Point, ...]] = field(repr=False)
    ambient_dim: int
    orientation: int = 1
    x_indices: tuple[int, ...] = ()
    reference_param: Param = ()

    @property
    def dim(self) -> int:
        return self.domain.dim

    def reversed_factor(self, k: int) -> "Cycle":
        """Same cycle with the k-th parameter direction reversed."""
        factor = self.domain.factors[k]

        def flip(param):
            param = list(param)
            if isinstance(factor, Circle):
                param[k] = -param[k]
            else:
                param[k] = factor.a + factor.b - param[k]
            return tuple(param)

        def fmap(param):
            return self.map(flip(param))

        def ftan(param):
            frame = list(self.tangent(flip(param)))
            frame[k] = tuple(-c for c in frame[k])
            return tuple(frame)

        return Cycle(kind=self.kind, domain=self.domain, map=fmap,
                     tangent=ftan, ambient_dim=self.ambient_dim,
                     orientation=self.orientation, x_indices=self.x_indices,
                     reference_param=flip(self.reference_param))


# --------------------------------------------------------------- factories

def make_cycle(kind: str, **params) -> Cycle:
    """Construct one of the catalog cycles.

    Kinds: ``circle`` (center, radius), ``segment`` (start, end),
    ``sphere_M`` (z, eps), ``torus_D`` (eps), ``torus_E`` (r1, r2).
    """
    builder = _CYCLE_BUILDERS.get(kind)
    if builder is None:
        raise InputError(f"unknown cycle kind {kind!r}")
    return builder(**params)


def _circle(center: complex = 0j, radius: float = 1.0) -> Cycle:
    if radius <= 0:
        raise InputError("circle radius must be positive")
    center = complex(center)

    def cmap(param):
        return (center + radius * np.exp(1j * param[0]),)

    def ctan(param):
        return ((1j * radius * np.exp(1j * param[0]),),)

    return Cycle(kind="circle", domain=ParamDomain((Circle(),)),
                 map=cmap, tangent=ctan, ambient_dim=1,
                 x_indices=(0,), reference_param=(0.7,))


def _segment(start: complex, end: complex) -> Cycle:
    start, end = complex(start), complex(end)
    delta = end - start

    def smap(param):
        return (start + param[0] * delta,)

    def stan(param):
        return ((delta,),)

    return Cycle(kind="segment", domain=ParamDomain((Interval(0.0, 1.0),)),
                 map=smap, tangent=stan, ambient_dim=1,
                 x_indices=(0,), reference_param=(0.5,))


def _sphere_M(z: Sequence[complex], eps: float) -> Cycle:
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

        def mmap(param):
            delta = eps * np.exp(1j * param[0])
            xi1 = delta.conjugate()
            return (-z0 * xi1 - eps * eps, xi1, z0 + delta)

        def mtan(param):
            delta = eps * np.exp(1j * param[0])
            d_delta = 1j * delta
            d_conj = d_delta.conjugate()
            return ((-z0 * d_conj, d_conj, d_delta),)

        return Cycle(kind="sphere_M", domain=ParamDomain((Circle(),)),
                     map=mmap, tangent=mtan, ambient_dim=3,
                     x_indices=(2,), reference_param=(0.7,))
    if n == 2:
        z1, z2 = z

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
            d1_psi, d2_psi = -a2 * e1, a1 * e2           # d/dpsi
            d1_1, d2_2 = 1j * a1 * e1, 1j * a2 * e2      # d/dphi1, d/dphi2
            c1_psi, c2_psi = d1_psi.conjugate(), d2_psi.conjugate()
            c1_1, c2_2 = d1_1.conjugate(), d2_2.conjugate()
            return ((-(z1 * c1_psi + z2 * c2_psi), c1_psi, c2_psi, d1_psi, d2_psi),
                    (-(z1 * c1_1), c1_1, 0j, d1_1, 0j),
                    (-(z2 * c2_2), 0j, c2_2, 0j, d2_2))

        return Cycle(kind="sphere_M",
                     domain=ParamDomain((Interval(0.0, math.pi / 2),
                                         Circle(), Circle())),
                     map=mmap, tangent=mtan, ambient_dim=5,
                     x_indices=(3, 4), reference_param=(0.9, 0.7, 1.3))
    raise InputError("sphere_M is implemented for n in {1, 2}")


def _torus_D(eps: float) -> Cycle:
    """The two-cycle inside S_D over P: y1 and x2 on eps-circles, x1 solved
    from the chart equation.  Ambient coordinates are (y1, x2, x1)."""
    if not 0 < eps < 1:
        raise InputError("torus_D needs 0 < eps < 1")

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
        # d/dtheta: num constant, den has factor exp(i theta)(1 + y1)
        dden_th = 1j * den + eps * eps * np.exp(1j * (param[0] + param[1])) * dy1
        # d/deta: num' = 2i x2^2, den' = i den
        dx1_et = (num * (1j * den) - 2j * x2 * x2 * den) / (den * den)
        return ((dy1, 0j, num * dden_th / (den * den)), (0j, dx2, dx1_et))

    return Cycle(kind="torus_D", domain=ParamDomain((Circle(), Circle())),
                 map=dmap, tangent=dtan, ambient_dim=3,
                 x_indices=(0, 1, 2), reference_param=(0.4, 1.1))


def _torus_E(r1: float, r2: float) -> Cycle:
    if r1 <= 0 or r2 <= 0:
        raise InputError("torus_E radii must be positive")

    def emap(param):
        return (r1 * np.exp(1j * param[0]), r2 * np.exp(1j * param[1]))

    def etan(param):
        return ((1j * r1 * np.exp(1j * param[0]), 0j),
                (0j, 1j * r2 * np.exp(1j * param[1])))

    return Cycle(kind="torus_E", domain=ParamDomain((Circle(), Circle())),
                 map=emap, tangent=etan, ambient_dim=2,
                 x_indices=(0, 1), reference_param=(0.4, 1.1))


_CYCLE_BUILDERS = {
    "circle": _circle,
    "segment": _segment,
    "sphere_M": _sphere_M,
    "torus_D": _torus_D,
    "torus_E": _torus_E,
}


# ------------------------------------------------------------- orientation

def orientation_sign(cycle: Cycle, interior_point: Sequence[complex]) -> int:
    """+1 if the parametrization induces the outward-normal orientation.

    Works on boundary-sphere kinds only: the determinant of the real matrix
    [outward normal | realified tangent frame], taken at the reference
    parameter with the ambient projected to affine x-space.
    """
    if cycle.kind not in ("circle", "sphere_M"):
        raise UnsupportedKindError(
            f"orientation_sign needs a boundary sphere, got {cycle.kind!r}")
    interior = tuple(complex(c) for c in interior_point)
    param = cycle.reference_param
    point = cycle.map(param)
    xs = [point[i] for i in cycle.x_indices]
    if len(interior) != len(xs):
        raise InputError("interior point dimension mismatch")
    normal = [a - b for a, b in zip(xs, interior)]
    norm = math.sqrt(sum(abs(c) ** 2 for c in normal))
    columns = np.array([[c / norm for c in normal]]
                       + [[vec[i] for i in cycle.x_indices]
                          for vec in cycle.tangent(param)], dtype=complex)
    matrix = columns.view(float).T  # realified: each entry becomes (re, im)
    det = float(np.linalg.det(matrix))
    if det == 0.0:
        raise InputError("degenerate frame at the reference parameter")
    return 1 if det > 0 else -1


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


def _on_block(fn, params: tuple[np.ndarray, ...],
              shape: tuple[int, ...]) -> np.ndarray:
    """A cycle callable on m block points, as a complex array ``shape + (m,)``.

    A callable that takes only floats is called point by point, and a
    ``ZeroDivisionError`` there leaves NaN: a non-finite value at its param.
    """
    m = len(params[0])
    out = np.empty(shape + (m,), dtype=complex)
    try:
        with np.errstate(all="ignore"):
            fits = _fill(out, fn(params))
    except (TypeError, ValueError):
        rows = []
        for param in zip(*(a.tolist() for a in params)):
            try:
                rows.append(fn(param))
            except ZeroDivisionError:
                rows.append(np.full(shape, np.nan))
        out = np.moveaxis(np.array(rows, dtype=complex), 0, -1)
        fits = out.shape == shape + (m,)
    if not fits:
        raise DimensionMismatchError(f"cycle output does not have shape {shape}")
    return out


def _weighted_block(form: forms.KForm, cycle: Cycle,
                    params: tuple[np.ndarray, ...],
                    weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted real and imaginary integrand parts on one block of the grid,
    by one :meth:`KForm.evaluate_many` call on the block's points and frames.
    """
    m = len(weights)
    point = _on_block(cycle.map, params, (form.dim,))
    frame = _on_block(cycle.tangent, params, (form.degree, form.dim))
    finite = np.isfinite(point).all(axis=0) & np.isfinite(frame).all(axis=(0, 1))
    stop = m if finite.all() else int(finite.argmin())
    points, frames = point.T, frame.transpose(2, 0, 1)
    n, pole = stop, None
    try:
        value = form.evaluate_many(points[:stop], frames[:stop])
    except PoleError as exc:
        # A value before the pole that is not finite comes first in grid order.
        n, pole = exc.row, exc.point
        value = form.evaluate_many(points[:n], frames[:n])
    with np.errstate(all="ignore"):
        value = cycle.orientation * value
        re, im = weights[:n] * value.real, weights[:n] * value.imag
    bad = np.flatnonzero(~(np.isfinite(re) & np.isfinite(im)))
    if len(bad) or n < m:
        j = int(bad[0]) if len(bad) else n
        param = tuple(float(a[j]) for a in params)
        what = "pole" if j == n < stop else "is not finite"
        raise PoleError(f"integrand {what} on the grid at param {param}",
                        point=pole if j == n else None, param=param)
    return re, im


def integrate(form: forms.KForm, cycle: Cycle,
              quad: QuadratureSpec | int | Sequence[int],
              workers: int = 1) -> complex:
    """Integrate a form over a cycle on the tensor-product grid.

    The grid is walked in parameter-lexicographic order, :data:`BLOCK_POINTS`
    points at a time, with one ``cycle.map`` and ``cycle.tangent`` call per
    block.  The weighted real and imaginary parts of the whole grid are each
    reduced by one ``math.fsum`` (correctly rounded, so order-independent).
    A pole or a non-finite map, frame or value raises :class:`PoleError`
    carrying the first offending param in grid order, and so does a sum that
    overflows (without a param).  A grid above
    :data:`MAX_GRID_POINTS` points, or a Gauss-Legendre factor above
    :data:`MAX_GAUSS_NODES` nodes, raises :class:`InputError` before any
    allocation.  ``workers`` is accepted and changes nothing.
    """
    if form.degree != cycle.dim:
        raise InputError(
            f"form degree {form.degree} != cycle dimension {cycle.dim}")
    quad = quad if isinstance(quad, QuadratureSpec) else QuadratureSpec.of(quad, cycle.dim)
    if len(quad.sizes) != cycle.dim:
        raise InputError("quadrature spec does not match the cycle dimension")
    total = math.prod(quad.sizes)
    if total > MAX_GRID_POINTS:
        raise InputError(f"quadrature grid of {total} points exceeds the "
                         f"budget of {MAX_GRID_POINTS}")
    factors = cycle.domain.factors
    if any(n > MAX_GAUSS_NODES for f, n in zip(factors, quad.sizes)
           if not isinstance(f, Circle)):
        raise InputError(f"a Gauss-Legendre factor needs at most "
                         f"{MAX_GAUSS_NODES} nodes, got {quad.sizes}")
    rules = [_factor_rule(f, n) for f, n in zip(factors, quad.sizes)]
    re, im = np.empty(total), np.empty(total)
    for lo in range(0, total, BLOCK_POINTS):
        hi = min(lo + BLOCK_POINTS, total)
        index = np.unravel_index(np.arange(lo, hi), quad.sizes)
        params = tuple(nodes[i] for (nodes, _), i in zip(rules, index))
        weights = math.prod(w[i] for (_, w), i in zip(rules, index))
        re[lo:hi], im[lo:hi] = _weighted_block(form, cycle, params, weights)
    try:
        return complex(math.fsum(re.tolist()), math.fsum(im.tolist()))
    except OverflowError:  # finite weighted values whose sum is not
        raise PoleError("integral is not finite: its sum overflows") from None
