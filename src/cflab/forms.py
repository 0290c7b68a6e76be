"""Degree-k complex multilinear antisymmetric forms as evaluators.

A form is a linear combination of coordinate wedge monomials
``c(p) dz_{i1} ^ ... ^ dz_{ik}``: a dict from strictly increasing index
tuples to coefficient callables.  Wedge, sum, scaling and chart sections
all build new term dicts, so every form is evaluated the same way.

Evaluation canonicalizes the tangent-vector order (sort by coordinates,
multiply by the permutation sign) so that swapping two vectors flips the
sign exactly, not just up to rounding.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .errors import DimensionMismatchError, InputError, PoleError

Point = tuple[complex, ...]
Vector = tuple[complex, ...]
CoeffFn = Callable[[Point], complex]


def _as_point(seq) -> Point:
    return tuple(complex(c) for c in seq)


def _const_fn(value: complex) -> CoeffFn:
    value = complex(value)
    return lambda p: value


# ------------------------------------------------------------ determinants

def _minor(indices: tuple[int, ...], vectors: Sequence[Vector]) -> complex:
    """Determinant of the rows ``indices`` of the column matrix ``vectors``."""
    k = len(indices)
    if k == 0:
        return 1 + 0j
    if k == 1:
        return vectors[0][indices[0]]
    if k == 2:
        i, j = indices
        a, b = vectors
        return a[i] * b[j] - a[j] * b[i]
    if k == 3:
        i, j, l = indices
        a, b, c = vectors
        return (a[i] * (b[j] * c[l] - b[l] * c[j])
                - b[i] * (a[j] * c[l] - a[l] * c[j])
                + c[i] * (a[j] * b[l] - a[l] * b[j]))
    # Laplace expansion along the first row for k >= 4 (the degree-4
    # derivative kernel at n = 2, degree-5 chart identity at n = 3).
    total = 0j
    rest = indices[1:]
    for col in range(k):
        sub = vectors[:col] + tuple(vectors[col + 1:])
        term = vectors[col][indices[0]] * _minor(rest, sub)
        total = total + term if col % 2 == 0 else total - term
    return total


def _sort_parity(vectors: Sequence[Vector]) -> tuple[tuple[Vector, ...], int]:
    keys = [tuple((c.real, c.imag) for c in v) for v in vectors]
    order = sorted(range(len(vectors)), key=keys.__getitem__)
    parity = 1
    seen = [False] * len(order)
    for start in range(len(order)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = order[j]
            length += 1
        if length % 2 == 0:
            parity = -parity
    return tuple(vectors[i] for i in order), parity


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
    def constant(dim: int, value: complex) -> "KForm":
        return KForm(0, dim, terms={(): _const_fn(value)})

    @staticmethod
    def scalar(dim: int, fn: CoeffFn) -> "KForm":
        return KForm(0, dim, terms={(): fn})

    @staticmethod
    def zero(dim: int, degree: int = 0) -> "KForm":
        return KForm(degree, dim, terms={})

    @staticmethod
    def basis(dim: int, *indices: int, coeff: complex | CoeffFn = 1) -> "KForm":
        """The wedge monomial ``coeff * dz_{i1} ^ ... ^ dz_{ik}``."""
        if len(set(indices)) != len(indices):
            return KForm.zero(dim, len(indices))
        for i in indices:
            if not 0 <= i < dim:
                raise DimensionMismatchError(f"index {i} outside ambient dim {dim}")
        key, sign = _sorted_key(tuple(indices))
        fn = coeff if callable(coeff) else _const_fn(coeff)
        if sign < 0:
            inner = fn
            fn = lambda p: -inner(p)
        return KForm(len(indices), dim, terms={key: fn})

    # -- evaluation -----------------------------------------------------

    def evaluate(self, point, vectors: Sequence[Sequence[complex]]) -> complex:
        point = _as_point(point)
        if len(point) != self.dim:
            raise DimensionMismatchError(
                f"point has {len(point)} coordinates, form lives on C^{self.dim}")
        if len(vectors) != self.degree:
            raise InputError(
                f"degree-{self.degree} form needs {self.degree} vectors, "
                f"got {len(vectors)}")
        vecs = tuple(_as_point(v) for v in vectors)
        for v in vecs:
            if len(v) != self.dim:
                raise DimensionMismatchError(
                    f"tangent vector has {len(v)} components, expected {self.dim}")
        parity = 1
        if self.degree >= 2:
            vecs, parity = _sort_parity(vecs)
        try:
            value = self._eval_inner(point, vecs)
        except ZeroDivisionError:
            raise PoleError("form coefficient has a pole", point=point) from None
        return value if parity == 1 else -value

    def _eval_inner(self, point: Point, vecs: tuple[Vector, ...]) -> complex:
        total = 0j
        for key, coeff in self.terms.items():
            c = coeff(point)
            if c != 0:
                total += c * _minor(key, vecs)
        return total

    def coefficient_scale(self, point) -> float:
        """Sup norm of the coefficients at ``point`` (frame-insensitive size)."""
        point = _as_point(point)
        best = 0.0
        for coeff in self.terms.values():
            best = max(best, abs(coeff(point)))
        return best


def _sorted_key(indices: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    order = sorted(range(len(indices)), key=indices.__getitem__)
    inversions = sum(
        1
        for a in range(len(order))
        for b in range(a + 1, len(order))
        if order[a] > order[b]
    )
    return tuple(indices[i] for i in order), (-1) ** inversions


# ------------------------------------------------------------ form algebra

def _merge_sign(left: tuple[int, ...], right: tuple[int, ...]) -> int:
    # Parity of interleaving two increasing index tuples into sorted order.
    inversions = 0
    for i in left:
        inversions += sum(1 for j in right if j < i)
    return (-1) ** inversions


def wedge(f1: KForm, f2: KForm) -> KForm:
    """Exterior product, merging the wedge monomials of the two factors."""
    if f1.dim != f2.dim:
        raise DimensionMismatchError("wedge factors live on different ambients")
    degree = f1.degree + f2.degree
    if degree > 2 * f1.dim:
        raise InputError("wedge degree exceeds the ambient real capacity")
    terms: dict[tuple[int, ...], list] = {}
    for k1, c1 in f1.terms.items():
        for k2, c2 in f2.terms.items():
            if set(k1) & set(k2):
                continue
            sign = _merge_sign(k1, k2)
            key = tuple(sorted(k1 + k2))
            terms.setdefault(key, []).append((sign, c1, c2))
    merged: dict[tuple[int, ...], CoeffFn] = {}
    for key, parts in terms.items():
        def coeff(p, parts=tuple(parts)):
            total = 0j
            for sign, c1, c2 in parts:
                total += sign * c1(p) * c2(p)
            return total
        merged[key] = coeff
    return KForm(degree, f1.dim, terms=merged)


def wedge_all(factors: Sequence[KForm]) -> KForm:
    out = factors[0]
    for f in factors[1:]:
        out = wedge(out, f)
    return out


def add(f1: KForm, f2: KForm) -> KForm:
    if f1.dim != f2.dim or f1.degree != f2.degree:
        raise DimensionMismatchError("can only add forms of equal degree and ambient")
    terms = dict(f1.terms)
    for key, c2 in f2.terms.items():
        if key in terms:
            c1 = terms[key]
            terms[key] = lambda p, c1=c1, c2=c2: c1(p) + c2(p)
        else:
            terms[key] = c2
    return KForm(f1.degree, f1.dim, terms=terms)


def scale(form: KForm, factor: complex | CoeffFn) -> KForm:
    fn = factor if callable(factor) else _const_fn(factor)
    terms = {
        key: (lambda p, c=c, fn=fn: fn(p) * c(p))
        for key, c in form.terms.items()
    }
    return KForm(form.degree, form.dim, terms=terms)


def differential(dim: int, gradient: Callable[[Point], Sequence[complex]]) -> KForm:
    """The 1-form ``sum_i g_i(p) dz_i`` from an analytic gradient."""
    terms: dict[tuple[int, ...], CoeffFn] = {}
    for i in range(dim):
        terms[(i,)] = lambda p, i=i: complex(gradient(p)[i])
    return KForm(1, dim, terms=terms)


# -------------------------------------------------- numeric exterior derivative

def default_step(point: Point) -> float:
    return 1e-5 * (1.0 + max((abs(c) for c in point), default=0.0))


def d_numeric(form: KForm, point, vectors, step: float | None = None) -> complex:
    """Exterior derivative of ``form`` evaluated on k+1 constant vectors.

    Uses the alternating sum of directional derivatives
    ``sum_i (-1)^i D_{v_i} [form(.; v_0 .. v_i-hat .. v_k)]`` with central
    differences of the given step.
    """
    point = _as_point(point)
    if len(vectors) != form.degree + 1:
        raise InputError(
            f"d of a degree-{form.degree} form needs {form.degree + 1} vectors")
    vecs = tuple(_as_point(v) for v in vectors)
    h = step if step is not None else default_step(point)
    total = 0j
    for i, v in enumerate(vecs):
        rest = vecs[:i] + vecs[i + 1:]
        plus = tuple(p + h * c for p, c in zip(point, v))
        minus = tuple(p - h * c for p, c in zip(point, v))
        deriv = (form.evaluate(plus, rest) - form.evaluate(minus, rest)) / (2 * h)
        total += deriv if i % 2 == 0 else -deriv
    return total


# ------------------------------------------------------------ chart sections

def chart_section(form: KForm, layout: Sequence[int | complex]) -> KForm:
    """Restrict an ambient form along a linear section of the coordinates.

    ``layout`` has one entry per ambient coordinate: an ``int`` names the
    chart coordinate mapped there, anything else is held constant.  Used to
    evaluate kernels on homogeneous-coordinate lifts such as
    ``(eta, x) -> (xi0, xi1, x) = (eta, 1, x)``.  A held coordinate has no
    differential on the chart, so only the terms whose indices are all
    chart coordinates survive, re-indexed to the chart.
    """
    if len(layout) != form.dim:
        raise DimensionMismatchError(
            f"section layout has {len(layout)} entries, form lives on C^{form.dim}")
    chart_dim = sum(1 for entry in layout if isinstance(entry, int))

    def lift(q):
        return tuple(
            q[entry] if isinstance(entry, int) else complex(entry)
            for entry in layout)

    terms: dict[tuple[int, ...], CoeffFn] = {}
    for key, coeff in form.terms.items():
        if not all(isinstance(layout[i], int) for i in key):
            continue
        chart_key, sign = _sorted_key(tuple(layout[i] for i in key))
        fn = lambda q, c=coeff: c(lift(q))
        if sign < 0:
            fn = lambda q, inner=fn: -inner(q)
        terms[chart_key] = fn
    return KForm(form.degree, chart_dim, terms=terms)


def pullback_integrand(form: KForm, cycle, param) -> complex:
    """Evaluate ``form`` on a cycle's pushforward frame at a parameter point.

    The frame is the tuple of analytic tangent vectors in parameter order;
    the result carries the cycle's orientation sign.  Degree-0 forms simply
    evaluate at the mapped point.
    """
    point = cycle.map(param)
    if form.degree == 0:
        return cycle.orientation * form.evaluate(point, ())
    frame = cycle.tangent(param)
    if len(frame) != form.degree:
        raise DimensionMismatchError(
            f"cycle dimension {len(frame)} != form degree {form.degree}")
    return cycle.orientation * form.evaluate(point, frame)
