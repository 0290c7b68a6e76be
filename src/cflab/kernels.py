"""The Cauchy-Fantappie kernels and the named forms of the example casebook.

Kernels are evaluated on homogeneous coordinates only: the ambient space
is C^(n+1) x C^n with coordinates (xi_0..xi_n, x_1..x_n), and degree-zero
homogeneity under xi -> lambda*xi is the well-definedness guarantee.  The
residue sphere hands them unnormalized xi; an affine chart's points are
lifted to its unit section xi_n = 1, where a term with dxi_n vanishes, so
the chart identities evaluate the kernel without those terms.
"""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

import numpy as np

from . import exprlang, forms
from .errors import InputError
from .exprlang import HolomorphicExpr
from .forms import KForm
from .geometry import SurfaceSpec, sample_on_surface, surface_catalog


def joint_dim(n: int) -> int:
    return 2 * n + 1


# --------------------------------------------------------------- kernels

def _lists(cols) -> list:  # a batch's columns as lists of Python complex
    return [c.tolist() for c in cols]


def _f_at(f: HolomorphicExpr | None, cols) -> np.ndarray | complex:
    """``f`` at each point of the coordinate columns ``cols``, 1 without f:
    ``exprlang.eval_expr`` called by ``map`` on each point (a tuple of Python
    complex numbers) in row order, an error with its row (the number of
    values before it).  The columns are made Python numbers once per batch
    (:func:`forms.shared`).  An ``f`` that reads no coordinate (a number) is
    evaluated once, at the first row, and returned as a Python complex, so
    its error is the per-point loop's, at row 0; an empty batch evaluates
    nothing.  ``eval_expr`` is looked up on the module at each call, so a
    wrapped or patched one is the one that runs."""
    if f is None:
        return 1 + 0j
    once = f.constant and len(cols[0]) > 0
    lists = forms.shared(_lists, [c[:1] for c in cols] if once else cols)
    values: list = []
    try:  # extend keeps the values before an error
        values.extend(map(exprlang.eval_expr, itertools.repeat(f), zip(*lists)))
    except Exception as exc:
        exc.row = len(values)
        raise
    return complex(values[0]) if once else np.array(values, dtype=complex)


def _kernel(name: str, first: int, power: int, n: int, z: Sequence[complex],
            f: HolomorphicExpr | None) -> KForm:
    """f(x) / (xi.z)^power * basis(xi) ^ omega(x), one closure per term.

    ``basis`` is omega' (``first`` = 1) or omega* (``first`` = 0): the sum
    over k >= first of (-1)^(k-first) xi_k times the dxi_j, j >= first,
    without dxi_k.  Term keys, signs and order are those of
    ``wedge(basis, omega)``, whose merge signs are all +1; the ``0j +``
    keeps the signed zeros of that wedge's accumulation.  The pairing, its
    power and ``s_k xi_k`` are taken on whole arrays, as Python's complex
    arithmetic rounds them, the pairing and power once per batch
    (:func:`forms.shared`, in the order pairing, pole test, ``f``, power);
    ``f`` by :func:`_f_at`, and ``f / (xi.z)^power`` once per batch for a
    number ``f``; any other ``f`` once per point per term (one shared
    ``f(x)`` per point waits for ROADMAP item 1: the benchmark counts
    expression calls).
    """
    if n < 1:
        raise InputError("dimension n must be >= 1")
    z = tuple(complex(c) for c in z)
    if len(z) != n:
        raise InputError(f"base point z must have {n} coordinates")
    xi, x = slice(1, n + 1), slice(n + 1, None)
    message = f"{name} evaluated on xi.z = 0"

    def pairing(cols):
        den = cols[0] + sum(map(forms.mul, cols[xi], z))
        forms.pole_at(cols, den == 0, message)
        return den

    def den_power(cols):
        return forms.power(forms.shared(pairing, cols), power)

    def x_cols(cols):  # made Python numbers once for every term's f
        return forms.Columns(cols[x])

    def quotient(cols):
        top = _f_at(f, forms.shared(x_cols, cols))
        return forms.div(top, forms.shared(den_power, cols))

    once = f is None or f.constant

    def term(k: int, s: int) -> forms.CoeffFn:
        def coeff(cols):
            forms.shared(pairing, cols)  # its pole test comes before f
            q = forms.shared(quotient, cols) if once else quotient(cols)
            return forms.mul(q, 0j + forms.mul(s, cols[k]))

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
    if n < 2:
        raise InputError("the chart formula needs n >= 2")
    dim = joint_dim(n)

    def prefactor(p):
        for i, what in ((0, "xi_0"), (1, "y_1")):
            forms.fault(p[i] == 0, lambda row: InputError(
                f"chart formula needs {what} != 0"))
        return forms.power(forms.div(p[1], p[0]), n)

    def xi1_sq(p):  # once per batch (forms.shared), for every factor
        return forms.power(p[1], 2)

    factors = []
    for j in range(2, n + 1):
        # d(y_j/y_1) = d(xi_j/xi_1) = (xi_1 dxi_j - xi_j dxi_1)/xi_1^2
        terms = {
            (j,): (lambda p: forms.div(p[1], forms.shared(xi1_sq, p))),
            (1,): (lambda p, j=j: forms.div(-p[j], forms.shared(xi1_sq, p))),
        }
        factors.append(KForm(1, dim, terms=terms))
    factors.append(KForm.basis(dim, *range(n + 1, 2 * n + 1)))
    return forms.scale(functools.reduce(forms.wedge, factors), prefactor)


# ---------------------------------------------------------- casebook forms

def _d_of_product(f: HolomorphicExpr | None, g: HolomorphicExpr) -> KForm:
    """d(f(x) * g(x)) on C^1, expanded by symbolic differentiation."""
    product = g if f is None else exprlang.Mul(f, g)
    derivative = exprlang.differentiate(product, 0)
    return KForm.basis(1, 0, coeff=functools.partial(_f_at, derivative))


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
            den = forms.mul(p[0], p[1])
            forms.pole_at(p, den == 0, "integrand pole at uv = 0")
            return forms.div(forms.power(p[1] - p[0], 3) + 1, den)
        return KForm.basis(2, 0, 1, coeff=coeff)
    raise InputError(f"unknown casebook form {form_id!r}")


def _sigma_A(a: complex, f: HolomorphicExpr | None) -> KForm:
    # (f/eta) * [ (a eta + x - 1)(d eta + dx) - (eta + x)(a d eta + dx) ];
    # vanishes on Q and on S_A by construction.

    def term(w):  # the coefficient of d eta (w = a) or of dx (w = 1)
        def coeff(p):
            eta, x = p
            forms.pole_at(p, eta == 0, "sigma_A pole at eta = 0")
            bracket = forms.mul(a, eta) + x - 1 - forms.mul(w, eta + x)
            return forms.div(forms.mul(_f_at(f, (x,)), bracket), eta)

        return coeff

    return KForm(1, 2, terms={(0,): term(a), (1,): term(1)})


def _sigma_B(f: HolomorphicExpr | None) -> KForm:
    # (f/eta) * (s dq - q ds) for s = eta^2 + (eta+1)(x-1), q = eta + x.

    def term(i):  # the coefficient of d eta (i = 0) or of dx (i = 1)
        def coeff(p):
            eta, x = p
            forms.pole_at(p, eta == 0, "sigma_B pole at eta = 0")
            s = forms.power(eta, 2) + forms.mul(eta + 1, x - 1)
            ds = forms.mul(2 + 0j, eta) + x - 1 if i == 0 else eta + 1
            fac = forms.div(_f_at(f, (x,)), eta)
            return forms.mul(fac, forms.mul(s, 1 + 0j) - forms.mul(eta + x, ds))

        return coeff

    return KForm(1, 2, terms={(0,): term(0), (1,): term(1)})


def _inv_y0_sq(name: str, denom_factor: float):
    def inv(p):
        forms.pole_at(p, p[0] == 0, f"{name} pole at y0 = 0")
        return forms.div(1, forms.mul(denom_factor, forms.power(p[0], 2)))

    return inv


def _tau(example: str, denom: float, bracket: dict) -> KForm:
    """s/y0^2 dy1^dx1^dx2 + [sum_J b_J dz_J]/(denom y0^2) ^ ds on S_example."""
    surface = surface_catalog(f"S_{example}", chart="U2")
    inv1 = _inv_y0_sq(f"tau_{example}", 1.0)
    inv = _inv_y0_sq(f"tau_{example}", denom)
    lead = KForm.basis(4, 1, 2, 3, coeff=lambda p: forms.mul(surface.value(p), inv1(p)))
    parts = [KForm.basis(4, *key, coeff=lambda p, b=b: forms.mul(b(p), forms.shared(inv, p)))
             for key, b in bracket.items()]
    ds = KForm(1, 4, terms={(i,): g for i, g in enumerate(surface.gradient)})
    return forms.add(lead, forms.wedge(functools.reduce(forms.add, parts), ds))


def _tau_D() -> KForm:
    # s/y0^2 dy1^dx1^dx2 + [(x1-1)dy1^dx2 - x2 dy1^dx1]/(2 y0^2) ^ ds
    return _tau("D", 2.0, {(1, 3): lambda p: p[2] - 1, (1, 2): lambda p: -p[3]})


def _tau_E() -> KForm:
    # s/y0^2 dy1^dx1^dx2
    #   - [y1 dx1^dx2 - (x1-1) dy1^dx2 + x2 dy1^dx1]/(3 y0^2) ^ ds
    return _tau("E", 3.0, {(2, 3): lambda p: -p[1], (1, 3): lambda p: p[2] - 1,
                           (1, 2): lambda p: -p[3]})


# -------------------------------------------------------------- vanishing

def vanishing_max_and_scale(form: KForm, spec: SurfaceSpec, seed: int,
                            count: int) -> tuple[float, float]:
    """Max |form| over unit tangent frames at sampled on-surface points, and
    the sup norm of its coefficients there (at least 0.0, passing over NaN):
    one draw, and every frame of every point in one batch, whose
    :meth:`KForm.coefficients` give both."""
    if form.dim != spec.dim:
        raise InputError("form and surface live on different charts")
    points = np.asarray(sample_on_surface(spec, seed, count), dtype=complex)
    cols = tuple(points.T)
    # orthonormal tangent bases: the nullspaces of the gradients (m, 1, dim)
    grads = np.stack([np.broadcast_to(g(cols), count) for g in spec.gradient], axis=-1)
    bases = np.linalg.svd(grads[:, None])[2][:, 1:].conj()
    if form.degree > bases.shape[1]:
        raise InputError("form degree exceeds the surface dimension")
    combos = list(itertools.combinations(range(bases.shape[1]), form.degree))
    frames = bases[:, combos].reshape(-1, form.degree, form.dim)
    coeff = form.coefficients(np.repeat(points, len(combos), axis=0))
    values = form.on_frames(coeff, frames)
    return float(forms.modulus(values).max()), float(np.fmax.reduce(
        forms.modulus(coeff), axis=None, initial=0.0))
