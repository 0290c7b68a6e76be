"""The Cauchy-Fantappie kernels and the named forms of the example casebook.

Kernels are evaluated directly on homogeneous coordinates: the ambient space
is C^(n+1) x C^n with coordinates (xi_0..xi_n, x_1..x_n), and degree-zero
homogeneity under xi -> lambda*xi is the well-definedness guarantee.  The
same evaluators therefore serve the residue sphere (which produces
unnormalized xi) and the affine-chart computations.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import exprlang, forms
from .errors import ChartDomainError, InputError, PoleError
from .exprlang import HolomorphicExpr
from .forms import KForm
from .geometry import SurfaceSpec, sample_on_surface

Point = tuple[complex, ...]


def joint_dim(n: int) -> int:
    return 2 * n + 1


def _check_n(n: int):
    if n < 1:
        raise InputError("dimension n must be >= 1")


# --------------------------------------------------------- basis kernels

def kernel_basis_form(kind: str, n: int) -> KForm:
    """omega, omega' or omega* on the joint (xi, x) ambient space.

    omega(x)  = dx_1 ^ ... ^ dx_n
    omega'(xi) = sum_{k=1..n} (-1)^(k-1) xi_k  dxi_1 ^..^ omit k ^..^ dxi_n
    omega*(xi) = sum_{k=0..n} (-1)^k      xi_k  dxi_0 ^..^ omit k ^..^ dxi_n
    """
    _check_n(n)
    dim = joint_dim(n)
    if kind == "omega":
        return KForm.basis(dim, *range(n + 1, 2 * n + 1))
    if kind == "omega_prime":
        terms: dict[tuple[int, ...], forms.CoeffFn] = {}
        for k in range(1, n + 1):
            key = tuple(j for j in range(1, n + 1) if j != k)
            sign = (-1) ** (k - 1)
            terms[key] = lambda p, k=k, s=sign: s * p[k]
        return KForm(n - 1, dim, terms=terms)
    if kind == "omega_star":
        terms = {}
        for k in range(0, n + 1):
            key = tuple(j for j in range(0, n + 1) if j != k)
            sign = (-1) ** k
            terms[key] = lambda p, k=k, s=sign: s * p[k]
        return KForm(n, dim, terms=terms)
    raise InputError(f"unknown kernel basis form {kind!r}")


def _kernel(name: str, first: int, power: int, n: int, z: Sequence[complex],
            f: HolomorphicExpr | None) -> KForm:
    """f(x) / (xi.z)^power * basis(xi) ^ omega(x), one closure per term.

    ``basis`` is omega' (``first`` = 1) or omega* (``first`` = 0): the sum
    over k >= first of (-1)^(k-first) xi_k times the dxi_j, j >= first,
    without dxi_k.  Term keys, signs and order are those of
    ``wedge(basis, omega)``, whose merge signs are all +1; the ``0j +``
    keeps the signed zeros of that wedge's accumulation.
    """
    _check_n(n)
    z = tuple(complex(c) for c in z)
    if len(z) != n:
        raise InputError(f"base point z must have {n} coordinates")
    xi, x = slice(1, n + 1), slice(n + 1, None)
    message = f"{name} evaluated on xi.z = 0"

    def term(k: int, s: int) -> forms.CoeffFn:
        def coeff(p: Point) -> complex:
            den = p[0] + sum(map(operator.mul, p[xi], z))
            if den == 0:
                raise PoleError(message, point=p)
            fx = 1 + 0j if f is None else exprlang.eval_expr(f, p[x])
            return fx / den ** power * (0j + s * p[k])

        return coeff

    omega = tuple(range(n + 1, 2 * n + 1))
    terms = {
        tuple(j for j in range(first, n + 1) if j != k) + omega:
            term(k, (-1) ** (k - first))
        for k in range(first, n + 1)
    }
    return KForm(2 * n - first, joint_dim(n), terms=terms)


def phi(n: int, z: Sequence[complex], f: HolomorphicExpr | None = None) -> KForm:
    """The reproducing kernel f * omega'(xi)^omega(x) / (xi.z)^n.

    A (2n-1)-form on the joint ambient, holomorphic off the hyperplane
    xi.z = 0 where evaluation raises :class:`PoleError`.
    """
    return _kernel("phi", 1, n, n, z, f)


def psi(n: int, z: Sequence[complex], f: HolomorphicExpr | None = None) -> KForm:
    """The derivative kernel f * omega*(xi)^omega(x) / (xi.z)^(n+1), a 2n-form."""
    return _kernel("psi", 0, n + 1, n, z, f)


# -------------------------------------------------- chart identity (z = 0)

def phi_chart_formula(n: int) -> KForm:
    """y1^n d(y2/y1)^...^d(yn/y1)^omega(x) with y_j = xi_j/xi_0, as a form on
    the joint ambient (valid on xi_0 != 0, y_1 != 0, base point z = 0)."""
    _check_n(n)
    if n < 2:
        raise InputError("the chart formula needs n >= 2")
    dim = joint_dim(n)

    def prefactor(p: Point) -> complex:
        if p[0] == 0:
            raise ChartDomainError("chart formula needs xi_0 != 0")
        if p[1] == 0:
            raise ChartDomainError("chart formula needs y_1 != 0")
        return (p[1] / p[0]) ** n

    factors = []
    for j in range(2, n + 1):
        # d(y_j/y_1) = d(xi_j/xi_1) = (xi_1 dxi_j - xi_j dxi_1)/xi_1^2
        terms = {
            (j,): (lambda p, j=j: p[1] / p[1] ** 2),
            (1,): (lambda p, j=j: -p[j] / p[1] ** 2),
        }
        factors.append(KForm(1, dim, terms=terms))
    factors.append(kernel_basis_form("omega", n))
    return forms.scale(forms.wedge_all(factors), prefactor)


def phi_chart_identity_gap(n: int, point, vectors) -> float:
    """Relative gap between phi (z = 0) and its y-chart product formula."""
    point = tuple(complex(c) for c in point)
    if point[0] == 0 or point[1] == 0:
        raise ChartDomainError("chart identity needs xi_0 != 0 and xi_1 != 0")
    lhs = phi(n, (0j,) * n).evaluate(point, vectors)
    rhs = phi_chart_formula(n).evaluate(point, vectors)
    scale = max(abs(lhs), abs(rhs), 1e-30)
    return abs(lhs - rhs) / scale


# ------------------------------------------------------------ chart lifts

_SECTION_LAYOUTS = {
    # (eta, x) -> (xi0, xi1, x) = (eta, 1, x)
    "eta": (0, (1 + 0j), 1),
    # (y0, y1, x1, x2) -> (xi0, xi1, xi2, x1, x2) = (y0, y1, 1, x1, x2)
    "U2": (0, 1, (1 + 0j), 2, 3),
}


def kernel_on_chart(kernel: KForm, chart: str) -> KForm:
    """Pull a homogeneous-ambient kernel back along the chart's unit section."""
    layout = _SECTION_LAYOUTS.get(chart)
    if layout is None:
        raise InputError(f"no kernel section for chart {chart!r}")
    return forms.chart_section(kernel, layout)


# ---------------------------------------------------------- casebook forms

CASEBOOK_IDS = ("sigma_A", "sigma_B", "tau_D", "tau_E",
                "residue_A", "residue_B", "theta_D", "integrand_E")


def _expr_times(f: HolomorphicExpr | None, g: HolomorphicExpr) -> HolomorphicExpr:
    if f is None:
        return g
    return exprlang.Mul(f, g)


def _d_of_product(f: HolomorphicExpr | None, g: HolomorphicExpr) -> KForm:
    """d(f(x) * g(x)) on C^1, expanded by symbolic differentiation."""
    product = _expr_times(f, g)
    derivative = exprlang.differentiate(product, 0)
    return KForm.basis(1, 0, coeff=lambda p: exprlang.eval_expr(derivative, p))


def casebook_form(form_id: str, params: dict | None = None,
                  f: HolomorphicExpr | None = None) -> KForm:
    """The explicitly written forms of Examples A-E.

    sigma_A, sigma_B live on the (eta, x) chart; tau_D, tau_E on the
    (y0, y1, x1, x2) chart; residue_A, residue_B on the x-line; theta_D on
    (y1, x2, x1) matching the torus_D ambient; integrand_E on (u, v).
    """
    params = params or {}
    if form_id == "sigma_A":
        return _sigma_A(complex(params["a"]), f)
    if form_id == "sigma_B":
        return _sigma_B(f)
    if form_id == "tau_D":
        return _tau_D()
    if form_id == "tau_E":
        return _tau_E()
    if form_id == "residue_A":
        a = complex(params["a"])
        g = exprlang.Add(exprlang.Mul(exprlang.Num(a - 1), exprlang.Var(0)),
                         exprlang.ONE)
        return _d_of_product(f, g)
    if form_id == "residue_B":
        g = exprlang.Pow(exprlang.Sub(exprlang.Var(0), exprlang.ONE), 2)
        return _d_of_product(f, g)
    if form_id == "theta_D":
        return KForm.basis(3, 0, 1, coeff=lambda p: 1 - p[2])
    if form_id == "integrand_E":
        def coeff(p):
            den = p[0] * p[1]
            if den == 0:
                raise PoleError("integrand pole at uv = 0", point=p)
            return ((p[1] - p[0]) ** 3 + 1) / den
        return KForm.basis(2, 0, 1, coeff=coeff)
    raise InputError(f"unknown casebook form {form_id!r}")


def _feval(f: HolomorphicExpr | None, x: complex) -> complex:
    return 1 + 0j if f is None else exprlang.eval_expr(f, (x,))


def _sigma_A(a: complex, f: HolomorphicExpr | None) -> KForm:
    # (f/eta) * [ (a eta + x - 1)(d eta + dx) - (eta + x)(a d eta + dx) ];
    # vanishes on Q and on S_A by construction.
    def c_eta(p):
        eta, x = p
        if eta == 0:
            raise PoleError("sigma_A pole at eta = 0", point=p)
        return _feval(f, x) * ((a * eta + x - 1) - a * (eta + x)) / eta

    def c_x(p):
        eta, x = p
        if eta == 0:
            raise PoleError("sigma_A pole at eta = 0", point=p)
        return _feval(f, x) * ((a * eta + x - 1) - (eta + x)) / eta

    return KForm(1, 2, terms={(0,): c_eta, (1,): c_x})


def _sigma_B(f: HolomorphicExpr | None) -> KForm:
    # (f/eta) * (s dq - q ds) for s = eta^2 + (eta+1)(x-1), q = eta + x.
    def pieces(p):
        eta, x = p
        if eta == 0:
            raise PoleError("sigma_B pole at eta = 0", point=p)
        s = eta ** 2 + (eta + 1) * (x - 1)
        q = eta + x
        ds = (2 * eta + x - 1, eta + 1)
        dq = (1 + 0j, 1 + 0j)
        fac = _feval(f, x) / eta
        return s, q, ds, dq, fac

    def c_eta(p):
        s, q, ds, dq, fac = pieces(p)
        return fac * (s * dq[0] - q * ds[0])

    def c_x(p):
        s, q, ds, dq, fac = pieces(p)
        return fac * (s * dq[1] - q * ds[1])

    return KForm(1, 2, terms={(0,): c_eta, (1,): c_x})


def _inv_y0_sq(name: str, denom_factor: float):
    def inv(p):
        if p[0] == 0:
            raise PoleError(f"{name} pole at y0 = 0", point=p)
        return 1 / (denom_factor * p[0] ** 2)

    return inv


def _tau_D() -> KForm:
    # s/y0^2 dy1^dx1^dx2 + [(x1-1)dy1^dx2 - x2 dy1^dx1]/(2 y0^2) ^ ds
    surface = _surface("S_D")
    inv1 = _inv_y0_sq("tau_D", 1.0)
    inv2 = _inv_y0_sq("tau_D", 2.0)
    lead = KForm.basis(4, 1, 2, 3, coeff=lambda p: surface.value(p) * inv1(p))
    ds = forms.differential(4, surface.gradient)
    bracket = forms.add(
        KForm.basis(4, 1, 3, coeff=lambda p: (p[2] - 1) * inv2(p)),
        KForm.basis(4, 1, 2, coeff=lambda p: -p[3] * inv2(p)))
    return forms.add(lead, forms.wedge(bracket, ds))


def _tau_E() -> KForm:
    # s/y0^2 dy1^dx1^dx2
    #   - [y1 dx1^dx2 - (x1-1) dy1^dx2 + x2 dy1^dx1]/(3 y0^2) ^ ds
    surface = _surface("S_E")
    inv1 = _inv_y0_sq("tau_E", 1.0)
    inv3 = _inv_y0_sq("tau_E", 3.0)
    lead = KForm.basis(4, 1, 2, 3, coeff=lambda p: surface.value(p) * inv1(p))
    ds = forms.differential(4, surface.gradient)
    bracket = forms.add(
        forms.add(
            KForm.basis(4, 2, 3, coeff=lambda p: -p[1] * inv3(p)),
            KForm.basis(4, 1, 3, coeff=lambda p: (p[2] - 1) * inv3(p))),
        KForm.basis(4, 1, 2, coeff=lambda p: -p[3] * inv3(p)))
    return forms.add(lead, forms.wedge(bracket, ds))


def _surface(name: str) -> SurfaceSpec:
    from . import geometry

    return geometry.surface_catalog(name)


# -------------------------------------------------------------- vanishing

def tangent_basis(spec: SurfaceSpec, point) -> list[Point]:
    """Orthonormal basis of the complex tangent space (gradient nullspace)."""
    grad = np.array([spec.gradient(point)], dtype=complex)
    _, _, vh = np.linalg.svd(grad)
    null = vh[1:].conj()
    return [tuple(row) for row in null]


def vanishing_max(form: KForm, spec: SurfaceSpec, seed: int, count: int) -> float:
    """Max |form| over unit tangent frames at sampled on-surface points."""
    import itertools as it

    if form.dim != spec.dim:
        raise InputError("form and surface live on different charts")
    worst = 0.0
    for point in sample_on_surface(spec, seed, count):
        basis = tangent_basis(spec, point)
        if form.degree > len(basis):
            raise InputError("form degree exceeds the surface dimension")
        for frame in it.combinations(basis, form.degree):
            worst = max(worst, abs(form.evaluate(point, frame)))
    return worst


def vanishing_scale(form: KForm, spec: SurfaceSpec, seed: int, count: int) -> float:
    """Coefficient sup-norm of the form over the same sampled points."""
    best = 0.0
    for point in sample_on_surface(spec, seed, count):
        best = max(best, form.coefficient_scale(point))
    return best


# ------------------------------------------------------------- catalogue

@dataclass(frozen=True)
class KernelCatalogEntry:
    id: str
    n: int
    chart: str
    degree: int
    form: KForm


def catalog_entries() -> list[KernelCatalogEntry]:
    """Every named form, instantiated at generic parameters (tests sweep it)."""
    z1 = (0.3 + 0.1j,)
    z2 = (0.2 - 0.1j, 0.1 + 0.05j)
    f = exprlang.parse_expr("exp(x)+x^2", 1)
    entries = [
        KernelCatalogEntry("omega_n2", 2, "joint", 2, kernel_basis_form("omega", 2)),
        KernelCatalogEntry("omega_prime_n2", 2, "joint", 1,
                           kernel_basis_form("omega_prime", 2)),
        KernelCatalogEntry("omega_star_n2", 2, "joint", 2,
                           kernel_basis_form("omega_star", 2)),
        KernelCatalogEntry("phi_n1", 1, "joint", 1, phi(1, z1, f)),
        KernelCatalogEntry("phi_n2", 2, "joint", 3, phi(2, z2)),
        KernelCatalogEntry("psi_n1", 1, "joint", 2, psi(1, z1, f)),
        KernelCatalogEntry("psi_n2", 2, "joint", 4, psi(2, z2)),
        KernelCatalogEntry("sigma_A", 1, "eta", 1,
                           casebook_form("sigma_A", {"a": 2 + 0.5j}, f)),
        KernelCatalogEntry("sigma_B", 1, "eta", 1, casebook_form("sigma_B", f=f)),
        KernelCatalogEntry("tau_D", 2, "U2", 3, casebook_form("tau_D")),
        KernelCatalogEntry("tau_E", 2, "U2", 3, casebook_form("tau_E")),
        KernelCatalogEntry("theta_D", 2, "torus", 2, casebook_form("theta_D")),
        KernelCatalogEntry("integrand_E", 2, "uv", 2, casebook_form("integrand_E")),
        KernelCatalogEntry("residue_A", 1, "x", 1,
                           casebook_form("residue_A", {"a": 2}, f)),
        KernelCatalogEntry("residue_B", 1, "x", 1, casebook_form("residue_B", f=f)),
    ]
    return entries
