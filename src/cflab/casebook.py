"""The representation-formula evaluators and the five example verifications.

Every operation returns :class:`CheckReport` records: computed value,
expected value (pinned from an independent oracle where no closed form
exists), absolute error, tolerance and a pass flag.  :data:`CHECKS` holds
one ``(id, group, run)`` row per report row, where ``run(seed)`` returns
that row's report; ``full_report`` runs the table in order, and
``identity_suite`` and ``transversality_suite`` run parts of it.
"""

from __future__ import annotations

import functools
import math
import random
import time
import zlib
from dataclasses import dataclass

import numpy as np

from . import cycles, exprlang, forms, geometry, kernels
from .errors import CflabError, InputError, PoleError
from .exprlang import HolomorphicExpr, eval_expr, parse_expr
from .forms import KForm

TWO_PI_I = 2j * math.pi
MINUS_FOUR_PI_SQ = -4.0 * math.pi ** 2


# ------------------------------------------------------------- check report

@dataclass
class CheckReport:
    id: str
    params: dict
    computed: complex
    expected: complex
    abs_error: float
    tol: float
    passed: bool
    quad_sizes: tuple[int, ...]
    runtime_ms: float
    group: str = "core"


def _cfmt(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return repr(z.real)
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"


def _value_report(check_id, group, params, computed, expected, tol,
                  quad_sizes, t0, extra_ok=True) -> CheckReport:
    computed = complex(computed)
    expected = complex(expected)
    abs_error = abs(computed - expected)
    return CheckReport(
        id=check_id, params=params, computed=computed, expected=expected,
        abs_error=abs_error, tol=float(tol),
        passed=bool(abs_error <= tol and extra_ok),
        quad_sizes=tuple(quad_sizes),
        runtime_ms=(time.perf_counter() - t0) * 1e3, group=group)


def _predicate_report(check_id, group, params, computed, bound, passed,
                      quad_sizes, t0, violation=0.0) -> CheckReport:
    return CheckReport(
        id=check_id, params=params, computed=complex(computed),
        expected=complex(bound), abs_error=float(violation), tol=0.0,
        passed=bool(passed), quad_sizes=tuple(quad_sizes),
        runtime_ms=(time.perf_counter() - t0) * 1e3, group=group)


def _subseed(seed: int, check_id: str) -> int:
    return (seed + zlib.crc32(check_id.encode())) & 0x7FFFFFFF


# --------------------------------------------------------- the first formula

def alpha_orientation_factor(n: int, z, cycle: cycles.Cycle) -> int:
    """Sign that orients the residue sphere as the canonical cycle class.

    The class is normalized by pointwise positivity of i^(-n) * phi on the
    cycle; the sign returned here makes the parametrized integral agree with
    that normalization (and hence makes the reproducing formula return
    +f(z)).  The probe is phi at the cycle's reference param; a point,
    frame or value there that is not finite raises :class:`PoleError`
    naming that param.
    """
    param = cycle.reference_param
    try:
        probe = forms.pullback_integrand(kernels.phi(n, z), cycle, param)
    except PoleError as exc:
        raise PoleError(f"orientation probe at param {param}: {exc}",
                        point=exc.point, param=param) from None
    return 1 if (probe / 1j ** n).real > 0 else -1


def first_formula(n: int, f: HolomorphicExpr, z, eps: float,
                  quad=None, tol: float = 1e-8,
                  check_id: str = "first") -> CheckReport:
    """Reproduce f(z) as (n-1)!/(2 pi i)^n times the kernel integral."""
    t0 = time.perf_counter()
    if n not in (1, 2):
        raise InputError("the first formula is implemented for n in {1, 2}")
    z = tuple(complex(c) for c in z)
    if quad is None:
        quad = (128,) if n == 1 else (32, 64, 64)
    sphere = cycles.make_cycle("sphere_M", z=z, eps=eps)
    factor = alpha_orientation_factor(n, z, sphere)
    outward = cycles.orientation_sign(sphere, z)
    raw = cycles.integrate(kernels.phi(n, z, f), sphere, quad)
    constant = math.factorial(n - 1) / TWO_PI_I ** n
    computed = constant * factor * raw
    expected = eval_expr(f, z)
    params = {
        "n": n, "f": exprlang.to_str(f), "z": ";".join(_cfmt(c) for c in z),
        "eps": eps, "orientation_sign": outward, "alpha_factor": factor,
    }
    return _value_report(check_id, "core", params, computed, expected, tol,
                         quad, t0)


# -------------------------------------------------------- the second formula

def second_formula_n1(f: HolomorphicExpr, z: complex, r: float,
                      nodes: int = 128, tol: float = 1e-10,
                      check_id: str = "second") -> CheckReport:
    """n = 1 residue form: f(z) = -Res of the kernel pulled back to the
    incidence surface, the residue taken on a small positively-oriented
    circle about z."""
    t0 = time.perf_counter()
    z = complex(z)
    if r <= 0:
        raise InputError("residue circle radius must be positive")

    def qmap(param):
        x = z + r * np.exp(1j * param[0])
        return (-x, 1 + 0j, x)

    def qtan(param):
        dx = 1j * r * np.exp(1j * param[0])
        return ((-dx, 0j, dx),)

    lifted = cycles.Cycle(kind="circle_on_Q", factors=(cycles.Circle(),),
                          map=qmap, tangent=qtan)
    loop = cycles.integrate(kernels.phi(1, (z,), f), lifted, (nodes,))
    residue = loop / TWO_PI_I
    computed = -residue
    expected = eval_expr(f, (z,))
    params = {"f": exprlang.to_str(f), "z": _cfmt(z), "r": r}
    return _value_report(check_id, "core", params, computed, expected, tol,
                         (nodes,), t0)


# --------------------------------------------------------- the third formula

def third_formula_case(case_id: str, f: HolomorphicExpr,
                       a: complex | None = None, nodes: int = 16,
                       tol: float = 1e-10,
                       check_id: str | None = None) -> CheckReport:
    """Examples A and B: integrate the explicit residue representative over
    a path from 1 to 0 and compare with the closed form.

    The pass flag asserts the closed form (f(0) - a f(1) for A, f(0) for B);
    whether the representation formula's claim f(0) holds is recorded
    separately as ``pass_formula``.
    """
    t0 = time.perf_counter()
    if case_id == "A":
        if a is None:
            raise InputError("Example A needs the parameter a")
        a = complex(a)
        form = kernels.casebook_form("residue_A", {"a": a}, f)
        expected = eval_expr(f, (0j,)) - a * eval_expr(f, (1 + 0j,))
        group = "A"
    elif case_id == "B":
        form = kernels.casebook_form("residue_B", f=f)
        expected = eval_expr(f, (0j,))
        group = "B"
    else:
        raise InputError("third formula cases are 'A' and 'B'")
    path = cycles.make_cycle("segment", start=1 + 0j, end=0j)
    computed = cycles.integrate(form, path, (nodes,))
    f_at_zero = eval_expr(f, (0j,))
    formula_holds = abs(computed - f_at_zero) <= tol
    params = {"f": exprlang.to_str(f),
              "pass_formula": formula_holds,
              "f0": _cfmt(f_at_zero)}
    if case_id == "A":
        params["a"] = _cfmt(a)
    return _value_report(check_id or f"third_{case_id}", group, params,
                         computed, expected, tol, (nodes,), t0)


# ---------------------------------------------------- necessary condition

def _loop_integral(fn, center: complex, radius: float, n: int = 512) -> complex:
    """Plain one-variable trapezoid loop integral of an array-valued ``fn``,
    summed in node order (independent oracle path)."""
    h = 2.0 * math.pi / n
    e = np.exp(1j * (h * np.arange(n)))
    with np.errstate(all="ignore"):  # a non-finite oracle fails its check
        return complex(np.cumsum(fn(center + radius * e) * 1j * radius * e * h)[-1])


def residue_oracle_D(eps: float, n: int = 512) -> complex:
    """Iterated one-variable residues for the separable Example D integrand."""
    inner_y = _loop_integral(lambda y1: 1 / (y1 * (y1 + 1)), 0j, eps, n)
    inner_x = _loop_integral(lambda x2: (x2 * x2 + 1) / x2, 0j, eps, n)
    return inner_y * inner_x


def residue_oracle_E(r1: float, r2: float, n: int = 512) -> complex:
    """Nested one-variable loops for ((v-u)^3+1)/(uv), u outside, v inside:
    a Python loop over the u nodes, each v loop one array sum."""

    def inner(us):
        return np.array([
            _loop_integral(lambda v: ((v - u) ** 3 + 1) / (u * v), 0j, r2, n)
            for u in us.tolist()])

    return _loop_integral(inner, 0j, r1, n)


def necessary_condition_case(case_id: str, eps: float = 0.5,
                             radii=(0.5, 0.5), quad=(128, 128),
                             tol: float = 1e-8) -> CheckReport:
    """Obstruction torus integrals for Examples D and E.

    A nonzero value certifies that the vanishing-residue necessary condition
    fails; the expected value is pinned by the iterated-residue oracle
    (both equal -4 pi^2).
    """
    t0 = time.perf_counter()
    if case_id == "D":
        if not 0 < eps < 1:
            raise InputError("Example D needs 0 < eps < 1")
        torus = cycles.make_cycle("torus_D", eps=eps)
        form = kernels.casebook_form("theta_D")
        oracle = residue_oracle_D(eps)
        params = {"eps": eps}
    elif case_id == "E":
        r1, r2 = radii
        torus = cycles.make_cycle("torus_E", r1=r1, r2=r2)
        form = kernels.casebook_form("integrand_E")
        oracle = residue_oracle_E(r1, r2)
        params = {"r1": r1, "r2": r2}
    else:
        raise InputError("necessary-condition cases are 'D' and 'E'")
    computed = cycles.integrate(form, torus, quad)
    nonzero = abs(computed) > 0.1
    params.update({
        "oracle": _cfmt(oracle),
        "minus_four_pi_sq": repr(MINUS_FOUR_PI_SQ),
        "predicate": "|computed| > 0.1",
        "predicate_holds": nonzero,
    })
    return _value_report(f"necessary_{case_id}", case_id, params,
                         computed, oracle, tol, quad, t0,
                         extra_ok=nonzero)


def necessary_condition_eps_invariance(eps_a: float = 0.3, eps_b: float = 0.7,
                                       quad=(128, 128), tol: float = 1e-8) -> CheckReport:
    """Example D's class does not depend on the torus radius."""
    t0 = time.perf_counter()
    form = kernels.casebook_form("theta_D")
    va = cycles.integrate(form, cycles.make_cycle("torus_D", eps=eps_a), quad)
    vb = cycles.integrate(form, cycles.make_cycle("torus_D", eps=eps_b), quad)
    params = {"eps_a": eps_a, "eps_b": eps_b,
              "value_a": _cfmt(va), "value_b": _cfmt(vb)}
    return _value_report("necessary_D_eps_invariance", "D", params,
                         va - vb, 0j, tol, quad, t0)


# ------------------------------------------------------------ identity suite

_GENERIC_F = "exp(x)+x^2"
_Z1 = (0.3 + 0.1j,)
_Z2 = (0.2 + 0j, -0.1 + 0j)
_SIGMA_A_PARAM = 2 + 0.5j


def _off_pole(n, z):
    """Accept joint points with |xi.z| >= 0.4."""
    return lambda p: abs(p[0] + sum(p[1 + k] * z[k] for k in range(n))) >= 0.4


def _worst_gap(lhs, rhs) -> float:
    """Largest relative gap |lhs - rhs| / max(|lhs|, |rhs|, 1e-30)."""
    scale = np.maximum(np.maximum(forms.modulus(lhs), forms.modulus(rhs)), 1e-30)
    return float((forms.modulus(lhs - rhs) / scale).max())


def _identity_dphi_npsi(n, z, seed, count):
    points, frames, _ = geometry.sample_points(
        random.Random(seed), count, 2 * n + 1, 2 * n, _off_pole(n, z))
    lhs = forms.d_numeric_many(kernels.phi(n, z), points, frames)
    return _worst_gap(lhs, n * kernels.psi(n, z).evaluate_many(points, frames))


def _identity_scale(seed, count=100):
    rng = random.Random(seed)
    worst = 0.0
    for n, z in ((1, _Z1), (2, _Z2)):
        for kernel in (kernels.phi(n, z), kernels.psi(n, z)):
            drawn = geometry.sample_points(rng, count // 2, 2 * n + 1,
                                           kernel.degree, _off_pole(n, z), extra=1)
            points, frames = [], []
            for p, vecs, (lam,) in zip(*drawn):
                lam += 1.5 + 0.5j
                points += [p, tuple(lam * c for c in p[:n + 1]) + p[n + 1:]]
                frames += [vecs, [tuple(lam * c for c in v[:n + 1]) + v[n + 1:]
                                  for v in vecs]]
            values = kernel.evaluate_many(points, frames)
            base, scaled = values[0::2], values[1::2]
            gaps = forms.modulus(base - scaled) / np.maximum(forms.modulus(base), 1e-30)
            worst = max(worst, float(gaps.max()))
    return worst


def _identity_chart(n, seed, count):
    points, frames, _ = geometry.sample_points(
        random.Random(seed), count, 2 * n + 1, 2 * n - 1,
        lambda p: abs(p[0]) >= 0.3 and abs(p[1]) >= 0.3)
    return _worst_gap(kernels.phi(n, (0j,) * n).evaluate_many(points, frames),
                      kernels.phi_chart_formula(n).evaluate_many(points, frames))


def _on_section(kernel, points, frames):
    """``kernel`` at chart points and frames lifted to its unit section
    xi_n = 1, n = kernel.dim // 2: (eta, x) -> (eta, 1, x) and (y0, y1, x1,
    x2) -> (y0, y1, 1, x1, x2), with 0 in that slot of each frame vector.
    A term with dxi_n is 0 there, so only the others are evaluated."""
    n = kernel.dim // 2
    kept = KForm(kernel.degree, kernel.dim,
                 terms={key: c for key, c in kernel.terms.items() if n not in key})
    return kept.evaluate_many(np.insert(np.asarray(points, dtype=complex), n, 1, axis=-1),
                              np.insert(np.asarray(frames, dtype=complex), n, 0, axis=-1))


def _exactness_gap(seed, count, psi, potential, factor, rhs):
    """Worst relative gap of ``psi + factor * d(potential) = rhs`` on the
    potential's chart (:func:`_on_section`), at seeded points with
    |p_0| >= 0.3."""
    points, frames, _ = geometry.sample_points(
        random.Random(seed), count, potential.dim, psi.degree,
        lambda p: abs(p[0]) >= 0.3)
    lhs = (_on_section(psi, points, frames)
           + factor * forms.d_numeric_many(potential, points, frames))
    return _worst_gap(lhs, rhs.evaluate_many(points, frames))


def _identity_exact_A(seed, count=40):
    f = parse_expr(_GENERIC_F, 1)
    a = _SIGMA_A_PARAM
    g = exprlang.Add(exprlang.Mul(exprlang.Num(a - 1), exprlang.Var(0)),
                     exprlang.ONE)
    dfg = exprlang.differentiate(exprlang.Mul(f, g), 0)
    rhs = forms.wedge(
        KForm.basis(2, 0, coeff=lambda p: forms.div(1, p[0])),
        KForm.basis(2, 1, coeff=lambda p: forms.map_points(eval_expr, (p[1],), dfg)))
    return _exactness_gap(
        seed, count, kernels.psi(1, (0j,), f),
        kernels.casebook_form("sigma_A", {"a": a}, f), 1.0, rhs)


def _identity_exact_D(seed, count=30):
    return _exactness_gap(
        seed, count, kernels.psi(2, (0j, 0j)),
        kernels.casebook_form("tau_D"), 0.5,
        KForm.basis(4, 0, 1, 2, 3, coeff=lambda p: forms.div(1, p[0])))


def _identity_extend_B(seed, count):
    """|pullback of phi to S_B - the extended coefficient| at eta = 1e-6 and
    count - 1 random eta."""
    drawn, _, _ = geometry.sample_points(
        random.Random(seed), count - 1, 1, 0,
        lambda p: abs(p[0]) >= 0.05 and abs(p[0] + 1) >= 0.2)
    etas = [1e-6 + 0j] + [eta for eta, in drawn]
    points = [(eta, 1 - eta ** 2 / (eta + 1)) for eta in etas]
    frames = [[(1 + 0j, -eta * (eta + 2) / (eta + 1) ** 2)] for eta in etas]
    expected = [-(eta + 2) / (eta + 1) ** 2 for eta in etas]
    values = _on_section(kernels.phi(1, (0j,)), points, frames)
    return float(forms.modulus(values - np.array(expected)).max())


def _identity_extend_C(seed, count):
    """phi on S_C, pulled back along the graph (y0, y1, x1) -> (y0, y1, x1,
    2 - y0^3 - y1^3 (x1 - 1)), against 3 dy0^dy1^dx1."""
    qs, vecs, _ = geometry.sample_points(random.Random(seed), count, 3, 3,
                                         lambda q: abs(q[0]) >= 0.05)
    # per q: phi on the parameter frame (expected exactly 3), then on vecs
    y0, y1, x1 = np.repeat(np.asarray(qs, dtype=complex), 2, axis=0).T
    x2 = 2 - forms.power(y0, 3) - forms.mul(forms.power(y1, 3), x1 - 1)
    # row j: the graph's image of the j-th parameter direction
    jac = ((1, 0, 0, forms.mul(-3, forms.power(y0, 2))),
           (0, 1, 0, forms.mul(forms.mul(-3, forms.power(y1, 2)), x1 - 1)),
           (0, 0, 1, -forms.power(y1, 3)))
    frames = np.stack([np.broadcast_to(np.eye(3, dtype=complex), (count, 3, 3)),
                       np.asarray(vecs, dtype=complex)], axis=1)
    w = frames.reshape(-1, 3, 3).transpose(2, 1, 0)  # (direction, vector, row)
    pushed = [0j + forms.mul(w[0], a) + forms.mul(w[1], b) + forms.mul(w[2], c)
              for a, b, c in zip(*jac)]
    pulled = _on_section(kernels.phi(2, (0j, 0j)), np.stack([y0, y1, x1, x2], axis=1),
                         np.stack(pushed, axis=-1).transpose(1, 0, 2))
    want = KForm.basis(3, 0, 1, 2, coeff=3).evaluate_many(qs, vecs)
    return float(max(forms.modulus(pulled[0::2] - 3).max(),
                     forms.modulus(pulled[1::2] - want).max()))


# (check id, group, form id, (surface, chart, *surface params))
VANISH_PAIRS = (
    ("vanish_sigmaA_Q", "A", "sigma_A", ("Q", "eta")),
    ("vanish_sigmaA_SA", "A", "sigma_A", ("S_A", "eta", _SIGMA_A_PARAM)),
    ("vanish_sigmaB_Q", "B", "sigma_B", ("Q", "eta")),
    ("vanish_sigmaB_SB", "B", "sigma_B", ("S_B", "eta")),
    ("vanish_tauD_SD", "D", "tau_D", ("S_D", "U2")),
    ("vanish_tauE_SE", "E", "tau_E", ("S_E", "U2")),
)


def _vanish_report(check_id, group, form_id, surf, seed, count=20) -> CheckReport:
    t0 = time.perf_counter()
    f = parse_expr(_GENERIC_F, 1)
    if form_id == "sigma_A":
        form = kernels.casebook_form("sigma_A", {"a": _SIGMA_A_PARAM}, f)
    elif form_id == "sigma_B":
        form = kernels.casebook_form("sigma_B", f=f)
    else:
        form = kernels.casebook_form(form_id)
    name, chart, *surface_params = surf
    spec = geometry.surface_catalog(name, surface_params, chart=chart)
    worst, scale = kernels.vanishing_max_and_scale(form, spec, seed, count)
    scale = max(scale, 1e-30)
    params = {"form": form_id, "surface": name, "scale": scale,
              "count": count}
    return _value_report(check_id, group, params, worst, 0j, 1e-9 * scale,
                         (), t0)


def _gap_row(check_id, group, params, tol, gap):
    """The table row of an identity whose worst gap ``gap(seed, params)`` must
    stay within ``tol`` of 0; each report gets its own copy of ``params``."""
    def run(seed):
        t0 = time.perf_counter()
        return _value_report(check_id, group, dict(params), gap(seed, params),
                             0j, tol, (), t0)
    return check_id, group, run


def _vanish_row(check_id, group, form_id, surf):
    return check_id, group, lambda seed: _vanish_report(
        check_id, group, form_id, surf, _subseed(seed, check_id))


# The identity rows of the report by ``verify identities`` id, in report
# order.  Rows look module functions up when run, so patching them works.
IDENTITY_CHECKS = {
    "dPhi_nPsi": (
        _gap_row("identity_dPhi_nPsi_n1", "core",
                 {"n": 1, "points": 100, "metric": "max relative error"}, 1e-5,
                 lambda s, p: _identity_dphi_npsi(1, _Z1, _subseed(s, "dphi1"),
                                                  p["points"])),
        _gap_row("identity_dPhi_nPsi_n2", "core",
                 {"n": 2, "points": 100, "metric": "max relative error"}, 1e-5,
                 lambda s, p: _identity_dphi_npsi(2, _Z2, _subseed(s, "dphi2"),
                                                  p["points"]))),
    "scale_invariance": (
        _gap_row("identity_scale_invariance", "core",
                 {"kernels": "phi,psi", "n": "1,2",
                  "metric": "max relative error"}, 1e-12,
                 lambda s, p: _identity_scale(_subseed(s, "scale"))),),
    "chart_phi": (
        _gap_row("identity_chart_phi_n2", "core",
                 {"n": 2, "points": 20, "metric": "max relative gap"}, 1e-10,
                 lambda s, p: _identity_chart(2, _subseed(s, "chart2"),
                                              p["points"])),
        _gap_row("identity_chart_phi_n3", "core",
                 {"n": 3, "points": 20, "metric": "max relative gap"}, 1e-10,
                 lambda s, p: _identity_chart(3, _subseed(s, "chart3"),
                                              p["points"]))),
    "exact_A": (
        _gap_row("identity_exact_A", "A",
                 {"a": _cfmt(_SIGMA_A_PARAM), "f": _GENERIC_F,
                  "metric": "max relative error"}, 1e-5,
                 lambda s, p: _identity_exact_A(_subseed(s, "exactA"))),),
    "exact_D": (
        _gap_row("identity_exact_D", "D", {"metric": "max relative error"},
                 1e-5, lambda s, p: _identity_exact_D(_subseed(s, "exactD"))),),
    "extend_B": (
        _gap_row("identity_extend_B", "B",
                 {"points": 50, "includes_eta": "1e-06"}, 1e-10,
                 lambda s, p: _identity_extend_B(_subseed(s, "extB"),
                                                 p["points"])),),
    "extend_C": (
        _gap_row("identity_extend_C", "C", {"points": 50}, 1e-10,
                 lambda s, p: _identity_extend_C(_subseed(s, "extC"),
                                                 p["points"])),),
    "vanish_all": tuple(_vanish_row(*pair) for pair in VANISH_PAIRS),
}


def identity_suite(which: str | None = None, seed: int = 7) -> list[CheckReport]:
    """Seeded random-point verification of the structural identities: every
    row of :data:`IDENTITY_CHECKS`, or those of the one id ``which``."""
    if which is not None and which not in IDENTITY_CHECKS:
        raise InputError(f"unknown identity id {which!r}; "
                         f"choose from {tuple(IDENTITY_CHECKS)}")
    families = IDENTITY_CHECKS.values() if which is None else (IDENTITY_CHECKS[which],)
    return [run(seed) for rows in families for _, _, run in rows]


# --------------------------------------------------------- Example C fibres

def _s_C2_homogeneous(xi0, xi1, xi2, x1, x2) -> complex:
    return (xi0 ** 3 + xi1 ** 3 * (x1 - 1) + xi2 ** 3 * (x2 - 2)
            + 2 * xi1 ** 2 * xi2)


def fibration_check_C2(seed: int = 7, count: int = 20) -> CheckReport:
    """Example C2's incidence-with-P set fibres over the line at infinity.

    Checks (i) the surjectivity witnesses land on the surface, (ii) the
    local trivializations invert each other, (iii) no full fibre of P lies
    inside the surface.
    """
    t0 = time.perf_counter()
    geometry.check_count(count)
    rng = random.Random(seed)
    surj_worst = 0.0
    trip_worst = 0.0
    nofibre_min = math.inf
    for _ in range(count):
        xi1, xi2 = geometry.rand_c(rng), geometry.rand_c(rng)
        num = xi1 ** 3 + 2 * xi2 ** 3 - 2 * xi1 ** 2 * xi2
        # Over {xi1 != 0}: the surjectivity witness x1 (with x2 = 0) lies on
        # the surface; the trivialization's inverse map applied to the
        # projected fibre coordinate lands on the surface and, at x2 = 0,
        # reproduces the witness through a different formula.
        if abs(xi1) >= 0.2:
            witness = num / xi1 ** 3
            surj_worst = max(surj_worst,
                             abs(_s_C2_homogeneous(0j, xi1, xi2, witness, 0j)))
            x2 = geometry.rand_c(rng)
            x1 = 1 - (xi2 ** 3 * (x2 - 2) + 2 * xi1 ** 2 * xi2) / xi1 ** 3
            trip_worst = max(trip_worst,
                             abs(_s_C2_homogeneous(0j, xi1, xi2, x1, x2)))
            inverse_at_0 = 1 - (xi2 ** 3 * (0 - 2) + 2 * xi1 ** 2 * xi2) / xi1 ** 3
            trip_worst = max(trip_worst, abs(inverse_at_0 - witness))
        # the same over {xi2 != 0}
        if abs(xi2) >= 0.2:
            witness = num / xi2 ** 3
            surj_worst = max(surj_worst,
                             abs(_s_C2_homogeneous(0j, xi1, xi2, 0j, witness)))
            x1 = geometry.rand_c(rng)
            x2 = 2 - (xi1 ** 3 * (x1 - 1) + 2 * xi1 ** 2 * xi2) / xi2 ** 3
            trip_worst = max(trip_worst,
                             abs(_s_C2_homogeneous(0j, xi1, xi2, x1, x2)))
            inverse_at_0 = 2 - (xi1 ** 3 * (0 - 1) + 2 * xi1 ** 2 * xi2) / xi2 ** 3
            trip_worst = max(trip_worst, abs(inverse_at_0 - witness))
        # no P-fibre is contained in the surface
        x1, x2 = geometry.rand_c(rng, 2.0), geometry.rand_c(rng, 2.0)
        best = max(abs(_s_C2_homogeneous(0j, 1 + 0j, 0j, x1, x2)),
                   abs(_s_C2_homogeneous(0j, 0j, 1 + 0j, x1, x2)),
                   abs(_s_C2_homogeneous(0j, 1 + 0j, 1 + 0j, x1, x2)))
        nofibre_min = min(nofibre_min, best)
    passed = (surj_worst < 1e-10 and trip_worst < 1e-12
              and nofibre_min > 1e-3)
    params = {
        "surjectivity_max_defect": surj_worst,
        "roundtrip_max_defect": trip_worst,
        "nofibre_min_witness": nofibre_min,
        "predicate": "surj<1e-10 and roundtrip<1e-12 and nofibre>1e-3",
        "count": count,
    }
    return _predicate_report("fibration_C2", "C", params,
                             max(surj_worst, trip_worst), 0j, passed, (), t0,
                             violation=0.0 if passed else max(surj_worst,
                                                              trip_worst))


# ------------------------------------------------------- transversality

@functools.cache
def _margin_specs(example: str, which: str, chart: str) -> tuple:
    """The P, Q or S specs that ``which`` names, in its order; built once per
    (example, which, chart), as specs are immutable."""
    return tuple(geometry.surface_catalog(f"S_{example}" if token == "S" else token,
                                          chart=chart)
                 for token in which.split("_"))


def _transversality_report(example: str, which: str, seed: int) -> CheckReport:
    """The smallest stacked-gradient singular value over sampled points of
    one intersection must stay above 1e-6."""
    t0 = time.perf_counter()
    check_id = f"transv_{example}_{which}"
    chart, points = geometry.intersection_points(
        example, which, _subseed(seed, check_id))
    specs = _margin_specs(example, which, chart)
    margin = geometry.transversality_margin(specs, points)
    params = {"example": example, "surfaces": which, "points": len(points),
              "predicate": "margin > 1e-6"}
    return _predicate_report(check_id, example[0], params, margin, 1e-6,
                             margin > 1e-6, (), t0,
                             violation=max(0.0, 1e-6 - margin))


def _degenerate_D_report() -> CheckReport:
    """Example D's degeneracy over (x1, x2) = (1, 0), visible in the xi1
    chart, must be reported below 1e-6."""
    t0 = time.perf_counter()
    spec_P = geometry.surface_catalog("P", chart="U1")
    spec_S = geometry.surface_catalog("S_D", chart="U1")
    margin = geometry.transversality_margin([spec_P, spec_S], [(0j, 0j, 1 + 0j, 0j)])
    params = {"example": "D", "surfaces": "P_S",
              "point": "(w0,w2,x1,x2)=(0,0,1,0)",
              "predicate": "margin < 1e-6"}
    return _predicate_report(
        "transv_D_degenerate_over_1_0", "D", params, margin, 1e-6,
        margin < 1e-6, (), t0, violation=max(0.0, margin - 1e-6))


def _transversality_row(example, which):
    return (f"transv_{example}_{which}", example[0],
            lambda seed: _transversality_report(example, which, seed))


# Pairwise (and, for n = 2, triple) intersections per example, then the
# known degeneracy of Example D.
TRANSVERSALITY_CHECKS = (
    *(_transversality_row("B", which) for which in ("P_Q", "P_S", "Q_S")),
    *(_transversality_row(example, which) for example in ("C1", "C2", "D", "E")
      for which in ("P_Q", "P_S", "Q_S", "P_Q_S")),
    ("transv_D_degenerate_over_1_0", "D", lambda seed: _degenerate_D_report()),
)


def transversality_suite(seed: int = 7) -> list[CheckReport]:
    """General-position spot checks at sampled intersection points: every
    row of :data:`TRANSVERSALITY_CHECKS`."""
    return [run(seed) for _, _, run in TRANSVERSALITY_CHECKS]


# -------------------------------------------------------------- full report

# One (id, group, run) row per report row, in report order; ``run(seed)``
# returns that row's report.
CHECKS = (
    ("first_n1", "core", lambda s: first_formula(
        1, parse_expr("exp(x)+x^2", 1), (0.3 + 0.1j,), 0.7,
        quad=(128,), tol=1e-10, check_id="first_n1")),
    ("first_n2_const", "core", lambda s: first_formula(
        2, parse_expr("1", 2), (0.2, -0.1), 0.5,
        quad=(32, 64, 64), tol=1e-8, check_id="first_n2_const")),
    ("first_n2_poly", "core", lambda s: first_formula(
        2, parse_expr("x1^2*x2+3", 2), (0.2, -0.1), 0.5,
        quad=(32, 64, 64), tol=1e-6, check_id="first_n2_poly")),
    ("second_exp", "core", lambda s: second_formula_n1(
        parse_expr("exp(x)", 1), 0.3, 0.4, tol=1e-10, check_id="second_exp")),
    ("second_square", "core", lambda s: second_formula_n1(
        parse_expr("x^2", 1), 1 + 1j, 0.4, tol=1e-10,
        check_id="second_square")),
    ("third_A_a0", "A", lambda s: third_formula_case(
        "A", parse_expr("exp(x)", 1), a=0, check_id="third_A_a0")),
    ("third_A_a2", "A", lambda s: third_formula_case(
        "A", parse_expr("x+1", 1), a=2, check_id="third_A_a2")),
    ("third_A_a1", "A", lambda s: third_formula_case(
        "A", parse_expr("1", 1), a=1, check_id="third_A_a1")),
    ("third_B", "B", lambda s: third_formula_case(
        "B", parse_expr("exp(x)", 1), check_id="third_B")),
    ("necessary_D", "D", lambda s: necessary_condition_case("D", eps=0.5)),
    ("necessary_D_eps_invariance", "D",
     lambda s: necessary_condition_eps_invariance()),
    ("necessary_E", "E",
     lambda s: necessary_condition_case("E", radii=(0.5, 0.5))),
    *(row for rows in IDENTITY_CHECKS.values() for row in rows),
    ("fibration_C2", "C",
     lambda s: fibration_check_C2(seed=_subseed(s, "fibration"))),
    *TRANSVERSALITY_CHECKS,
)


def full_report(seed: int = 7, skip=()) -> list[CheckReport]:
    """Every row of :data:`CHECKS`, in order, each run with ``seed``.

    A row whose id or group is in ``skip`` is never computed; a ``skip``
    token that names no row's id or group raises :class:`InputError`.  A row
    that raises :class:`CflabError` becomes one FAIL row with that row's id
    and group, carrying the error in ``params``, and the other rows still run.
    """
    names = {name for check_id, group, _ in CHECKS for name in (check_id, group)}
    unknown = [token for token in skip if token not in names]
    if unknown:
        raise InputError("--skip matches no check id or group: "
                         + ", ".join(unknown))
    checks: list[CheckReport] = []
    for check_id, group, run in CHECKS:
        if check_id in skip or group in skip:
            continue
        t0 = time.perf_counter()
        try:
            checks.append(run(seed))
        except CflabError as exc:
            error = {"error": f"{type(exc).__name__}: {exc}"}
            checks.append(_predicate_report(check_id, group, error,
                                            0j, 0j, False, (), t0))
    return checks
