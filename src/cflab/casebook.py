"""The representation-formula evaluators and the five example verifications.

Every operation returns :class:`CheckReport` records: computed value,
expected value (pinned from an independent oracle where no closed form
exists), absolute error, tolerance and a pass flag.  ``full_report`` runs
the whole battery in a fixed order.
"""

from __future__ import annotations

import math
import random
import time
import zlib
from dataclasses import dataclass

import numpy as np

from . import cycles, exprlang, forms, geometry, kernels
from .errors import CflabError, InputError
from .exprlang import HolomorphicExpr, eval_expr, parse_expr
from .forms import KForm
from .geometry import _rand_c

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
    +f(z)).
    """
    probe = forms.pullback_integrand(kernels.phi(n, z), cycle,
                                     cycle.reference_param)
    return 1 if (probe / 1j ** n).real > 0 else -1


def first_formula(n: int, f: HolomorphicExpr, z, eps: float,
                  quad=None, tol: float = 1e-8, check_id: str = "first",
                  group: str = "core") -> CheckReport:
    """Reproduce f(z) as (n-1)!/(2 pi i)^n times the kernel integral."""
    t0 = time.perf_counter()
    if n not in (1, 2):
        raise InputError("the first formula is implemented for n in {1, 2}")
    z = tuple(complex(c) for c in z)
    if quad is None:
        quad = (128,) if n == 1 else (32, 64, 64)
    sphere = cycles.make_cycle("sphere_M", z=z, eps=eps)
    quad_spec = cycles.QuadratureSpec.of(quad, sphere.dim)
    factor = alpha_orientation_factor(n, z, sphere)
    outward = cycles.orientation_sign(sphere, z)
    raw = cycles.integrate(kernels.phi(n, z, f), sphere, quad_spec)
    constant = math.factorial(n - 1) / TWO_PI_I ** n
    computed = constant * factor * raw
    expected = eval_expr(f, z)
    params = {
        "n": n, "f": exprlang.to_str(f), "z": ";".join(_cfmt(c) for c in z),
        "eps": eps, "orientation_sign": outward, "alpha_factor": factor,
    }
    return _value_report(check_id, group, params, computed, expected, tol,
                         quad_spec.sizes, t0)


# -------------------------------------------------------- the second formula

def second_formula_n1(f: HolomorphicExpr, z: complex, r: float,
                      nodes: int = 128, tol: float = 1e-10,
                      check_id: str = "second", group: str = "core") -> CheckReport:
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

    lifted = cycles.Cycle(kind="circle_on_Q",
                          domain=cycles.ParamDomain((cycles.Circle(),)),
                          map=qmap, tangent=qtan, ambient_dim=3,
                          x_indices=(2,), reference_param=(0.7,))
    loop = cycles.integrate(kernels.phi(1, (z,), f), lifted, (nodes,))
    residue = loop / TWO_PI_I
    computed = -residue
    expected = eval_expr(f, (z,))
    params = {"f": exprlang.to_str(f), "z": _cfmt(z), "r": r}
    return _value_report(check_id, group, params, computed, expected, tol,
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
                             radii=(0.5, 0.5), quad=(128, 128), tol: float = 1e-8,
                             check_id: str | None = None) -> CheckReport:
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
    quad_spec = cycles.QuadratureSpec.of(quad, 2)
    computed = cycles.integrate(form, torus, quad_spec)
    nonzero = abs(computed) > 0.1
    params.update({
        "oracle": _cfmt(oracle),
        "minus_four_pi_sq": repr(MINUS_FOUR_PI_SQ),
        "predicate": "|computed| > 0.1",
        "predicate_holds": nonzero,
    })
    return _value_report(check_id or f"necessary_{case_id}", case_id, params,
                         computed, oracle, tol, quad_spec.sizes, t0,
                         extra_ok=nonzero)


def necessary_condition_eps_invariance(eps_a: float = 0.3, eps_b: float = 0.7,
                                       quad=(128, 128), tol: float = 1e-8) -> CheckReport:
    """Example D's class does not depend on the torus radius."""
    t0 = time.perf_counter()
    form = kernels.casebook_form("theta_D")
    quad_spec = cycles.QuadratureSpec.of(quad, 2)
    va = cycles.integrate(form, cycles.make_cycle("torus_D", eps=eps_a), quad_spec)
    vb = cycles.integrate(form, cycles.make_cycle("torus_D", eps=eps_b), quad_spec)
    params = {"eps_a": eps_a, "eps_b": eps_b,
              "value_a": _cfmt(va), "value_b": _cfmt(vb)}
    return _value_report("necessary_D_eps_invariance", "D", params,
                         va - vb, 0j, tol, quad_spec.sizes, t0)


# ------------------------------------------------------------ identity suite

IDENTITY_IDS = ("dPhi_nPsi", "scale_invariance", "chart_phi", "exact_A",
                "exact_D", "extend_B", "extend_C", "vanish_all")

_GENERIC_F = "exp(x)+x^2"
_Z1 = (0.3 + 0.1j,)
_Z2 = (0.2 + 0j, -0.1 + 0j)


def _samples(rng, count, dim, degree, accept):
    """``count`` seeded points of C^dim, each drawn until ``accept`` holds,
    and after each point its frame of ``degree`` vectors."""
    points, frames = [], []
    while len(points) < count:
        p = tuple(_rand_c(rng) for _ in range(dim))
        if accept(p):
            points.append(p)
            frames.append([tuple(_rand_c(rng) for _ in range(dim))
                           for _ in range(degree)])
    return points, frames


def _off_pole(n, z):
    """Accept joint points with |xi.z| >= 0.4."""
    return lambda p: abs(p[0] + sum(p[1 + k] * z[k] for k in range(n))) >= 0.4


def _worst_gap(lhs, rhs) -> float:
    """Largest relative gap |lhs - rhs| / max(|lhs|, |rhs|, 1e-30)."""
    scale = np.maximum(np.maximum(forms.modulus(lhs), forms.modulus(rhs)), 1e-30)
    return float((forms.modulus(lhs - rhs) / scale).max())


def _identity_dphi_npsi(n, z, seed, count=100):
    points, frames = _samples(random.Random(seed), count, 2 * n + 1, 2 * n,
                              _off_pole(n, z))
    lhs = forms.d_numeric_many(kernels.phi(n, z), points, frames)
    return _worst_gap(lhs, n * kernels.psi(n, z).evaluate_many(points, frames))


def _identity_scale(seed, count=100):
    rng = random.Random(seed)
    worst = 0.0
    for n, z in ((1, _Z1), (2, _Z2)):
        for kernel in (kernels.phi(n, z), kernels.psi(n, z)):
            points, frames = [], []
            for _ in range(count // 2):
                (p,), (vecs,) = _samples(rng, 1, 2 * n + 1, kernel.degree,
                                         _off_pole(n, z))
                lam = _rand_c(rng, 1.0) + (1.5 + 0.5j)
                points += [p, tuple(lam * c for c in p[:n + 1]) + p[n + 1:]]
                frames += [vecs, [tuple(lam * c for c in v[:n + 1]) + v[n + 1:]
                                  for v in vecs]]
            values = kernel.evaluate_many(points, frames)
            base, scaled = values[0::2], values[1::2]
            gaps = forms.modulus(base - scaled) / np.maximum(forms.modulus(base), 1e-30)
            worst = max(worst, float(gaps.max()))
    return worst


def _identity_chart(n, seed, count=20):
    points, frames = _samples(random.Random(seed), count, 2 * n + 1, 2 * n - 1,
                              lambda p: abs(p[0]) >= 0.3 and abs(p[1]) >= 0.3)
    return float(kernels.phi_chart_identity_gaps(n, points, frames).max())


def _exactness_gap(seed, count, psi_chart, potential, factor, rhs):
    """Worst relative gap of ``psi_chart + factor * d(potential) = rhs`` at
    seeded chart points with |p_0| >= 0.3."""
    points, frames = _samples(random.Random(seed), count, psi_chart.dim,
                              psi_chart.degree, lambda p: abs(p[0]) >= 0.3)
    lhs = (psi_chart.evaluate_many(points, frames)
           + factor * forms.d_numeric_many(potential, points, frames))
    return _worst_gap(lhs, rhs.evaluate_many(points, frames))


def _identity_exact_A(seed, a=2 + 0.5j, count=40):
    f = parse_expr(_GENERIC_F, 1)
    g = exprlang.Add(exprlang.Mul(exprlang.Num(a - 1), exprlang.Var(0)),
                     exprlang.ONE)
    dfg = exprlang.differentiate(exprlang.Mul(f, g), 0)
    rhs = forms.wedge(
        KForm.basis(2, 0, coeff=lambda p: forms.div(1, p[0])),
        KForm.basis(2, 1, coeff=forms.pointwise(lambda p: eval_expr(dfg, (p[1],)))))
    return _exactness_gap(
        seed, count, kernels.kernel_on_chart(kernels.psi(1, (0j,), f), "eta"),
        kernels.casebook_form("sigma_A", {"a": a}, f), 1.0, rhs)


def _identity_exact_D(seed, count=30):
    return _exactness_gap(
        seed, count, kernels.kernel_on_chart(kernels.psi(2, (0j, 0j)), "U2"),
        kernels.casebook_form("tau_D"), 0.5,
        KForm.basis(4, 0, 1, 2, 3, coeff=lambda p: forms.div(1, p[0])))


def _identity_extend_B(seed, count=50):
    """|pullback of phi to S_B - the extended coefficient| at eta = 1e-6 and
    count - 1 random eta."""
    drawn, _ = _samples(random.Random(seed), count - 1, 1, 0,
                        lambda p: abs(p[0]) >= 0.05 and abs(p[0] + 1) >= 0.2)
    etas = [1e-6 + 0j] + [eta for eta, in drawn]
    points = [(eta, 1 - eta ** 2 / (eta + 1)) for eta in etas]
    frames = [[(1 + 0j, -eta * (eta + 2) / (eta + 1) ** 2)] for eta in etas]
    expected = [-(eta + 2) / (eta + 1) ** 2 for eta in etas]
    phi_chart = kernels.kernel_on_chart(kernels.phi(1, (0j,)), "eta")
    values = phi_chart.evaluate_many(points, frames)
    return float(forms.modulus(values - np.array(expected)).max())


def _identity_extend_C(seed, count=50):
    """phi on S_C, pulled back along the graph (y0, y1, x1) -> (y0, y1, x1,
    2 - y0^3 - y1^3 (x1 - 1)), against 3 dy0^dy1^dx1."""
    def pushed(q, vecs):
        y0, y1, x1 = q
        cols = ((1, 0, 0, -3 * y0 ** 2), (0, 1, 0, -3 * y1 ** 2 * (x1 - 1)),
                (0, 0, 1, -y1 ** 3))
        return [tuple(sum(w[j] * cols[j][i] for j in range(3))
                      for i in range(4)) for w in vecs]

    qs, vecs = _samples(random.Random(seed), count, 3, 3,
                        lambda q: abs(q[0]) >= 0.05)
    frame = ((1 + 0j, 0j, 0j), (0j, 1 + 0j, 0j), (0j, 0j, 1 + 0j))
    # per q: phi on the parameter frame (expected exactly 3), then on vecs
    pulled = kernels.kernel_on_chart(kernels.phi(2, (0j, 0j)), "U2").evaluate_many(
        [(y0, y1, x1, 2 - y0 ** 3 - y1 ** 3 * (x1 - 1))
         for y0, y1, x1 in qs for _ in range(2)],
        [pushed(q, w) for q, v in zip(qs, vecs) for w in (frame, v)])
    want = KForm.basis(3, 0, 1, 2, coeff=3).evaluate_many(qs, vecs)
    return float(max(forms.modulus(pulled[0::2] - 3).max(),
                     forms.modulus(pulled[1::2] - want).max()))


VANISH_PAIRS = (
    ("vanish_sigmaA_Q", "A", "sigma_A", ("Q", "eta")),
    ("vanish_sigmaA_SA", "A", "sigma_A", ("S_A", "eta")),
    ("vanish_sigmaB_Q", "B", "sigma_B", ("Q", "eta")),
    ("vanish_sigmaB_SB", "B", "sigma_B", ("S_B", "eta")),
    ("vanish_tauD_SD", "D", "tau_D", ("S_D", "U2")),
    ("vanish_tauE_SE", "E", "tau_E", ("S_E", "U2")),
)

_SIGMA_A_PARAM = 2 + 0.5j


def _vanish_report(check_id, group, form_id, surf, seed, count=20) -> CheckReport:
    t0 = time.perf_counter()
    f = parse_expr(_GENERIC_F, 1)
    if form_id == "sigma_A":
        form = kernels.casebook_form("sigma_A", {"a": _SIGMA_A_PARAM}, f)
    elif form_id == "sigma_B":
        form = kernels.casebook_form("sigma_B", f=f)
    else:
        form = kernels.casebook_form(form_id)
    name, chart = surf
    if name == "S_A":
        spec = geometry.surface_catalog("S_A", (_SIGMA_A_PARAM,))
    else:
        spec = geometry.surface_catalog(name, chart=chart)
    worst, scale = kernels.vanishing_max_and_scale(form, spec, seed, count)
    scale = max(scale, 1e-30)
    params = {"form": form_id, "surface": name, "scale": scale,
              "count": count}
    return _value_report(check_id, group, params, worst, 0j, 1e-9 * scale,
                         (), t0)


def identity_suite(which: str | None = None, seed: int = 7) -> list[CheckReport]:
    """Seeded random-point verification of the structural identities."""
    if which is not None and which not in IDENTITY_IDS:
        raise InputError(f"unknown identity id {which!r}; "
                         f"choose from {IDENTITY_IDS}")
    out: list[CheckReport] = []

    def want(name):
        return which is None or which == name

    if want("dPhi_nPsi"):
        for n, z in ((1, _Z1), (2, _Z2)):
            t0 = time.perf_counter()
            worst = _identity_dphi_npsi(n, z, _subseed(seed, f"dphi{n}"))
            out.append(_value_report(
                f"identity_dPhi_nPsi_n{n}", "core",
                {"n": n, "points": 100, "metric": "max relative error"},
                worst, 0j, 1e-5, (), t0))
    if want("scale_invariance"):
        t0 = time.perf_counter()
        worst = _identity_scale(_subseed(seed, "scale"))
        out.append(_value_report(
            "identity_scale_invariance", "core",
            {"kernels": "phi,psi", "n": "1,2", "metric": "max relative error"},
            worst, 0j, 1e-12, (), t0))
    if want("chart_phi"):
        for n in (2, 3):
            t0 = time.perf_counter()
            worst = _identity_chart(n, _subseed(seed, f"chart{n}"))
            out.append(_value_report(
                f"identity_chart_phi_n{n}", "core",
                {"n": n, "points": 20, "metric": "max relative gap"},
                worst, 0j, 1e-10, (), t0))
    if want("exact_A"):
        t0 = time.perf_counter()
        worst = _identity_exact_A(_subseed(seed, "exactA"))
        out.append(_value_report(
            "identity_exact_A", "A",
            {"a": _cfmt(_SIGMA_A_PARAM), "f": _GENERIC_F,
             "metric": "max relative error"},
            worst, 0j, 1e-5, (), t0))
    if want("exact_D"):
        t0 = time.perf_counter()
        worst = _identity_exact_D(_subseed(seed, "exactD"))
        out.append(_value_report(
            "identity_exact_D", "D", {"metric": "max relative error"},
            worst, 0j, 1e-5, (), t0))
    if want("extend_B"):
        t0 = time.perf_counter()
        worst = _identity_extend_B(_subseed(seed, "extB"))
        out.append(_value_report(
            "identity_extend_B", "B",
            {"points": 50, "includes_eta": "1e-06"},
            worst, 0j, 1e-10, (), t0))
    if want("extend_C"):
        t0 = time.perf_counter()
        worst = _identity_extend_C(_subseed(seed, "extC"))
        out.append(_value_report(
            "identity_extend_C", "C", {"points": 50},
            worst, 0j, 1e-10, (), t0))
    if want("vanish_all"):
        for check_id, group, form_id, surf in VANISH_PAIRS:
            out.append(_vanish_report(check_id, group, form_id, surf,
                                      _subseed(seed, check_id)))
    return out


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
    if count < 1:
        raise InputError("count must be >= 1")
    rng = random.Random(seed)
    surj_worst = 0.0
    trip_worst = 0.0
    nofibre_min = math.inf
    for _ in range(count):
        xi1, xi2 = _rand_c(rng), _rand_c(rng)
        num = xi1 ** 3 + 2 * xi2 ** 3 - 2 * xi1 ** 2 * xi2
        # Over {xi1 != 0}: the surjectivity witness x1 (with x2 = 0) lies on
        # the surface; the trivialization's inverse map applied to the
        # projected fibre coordinate lands on the surface and, at x2 = 0,
        # reproduces the witness through a different formula.
        if abs(xi1) >= 0.2:
            witness = num / xi1 ** 3
            surj_worst = max(surj_worst,
                             abs(_s_C2_homogeneous(0j, xi1, xi2, witness, 0j)))
            x2 = _rand_c(rng)
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
            x1 = _rand_c(rng)
            x2 = 2 - (xi1 ** 3 * (x1 - 1) + 2 * xi1 ** 2 * xi2) / xi2 ** 3
            trip_worst = max(trip_worst,
                             abs(_s_C2_homogeneous(0j, xi1, xi2, x1, x2)))
            inverse_at_0 = 2 - (xi1 ** 3 * (0 - 1) + 2 * xi1 ** 2 * xi2) / xi2 ** 3
            trip_worst = max(trip_worst, abs(inverse_at_0 - witness))
        # no P-fibre is contained in the surface
        x1, x2 = _rand_c(rng, 2.0), _rand_c(rng, 2.0)
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

def _roots(coeffs) -> list[complex]:
    arr = np.roots(np.array(coeffs, dtype=complex))
    return sorted((complex(r) for r in arr), key=lambda c: (c.real, c.imag))


def _intersection_points(example: str, which: str, seed: int,
                         count: int = 5) -> tuple[str, list]:
    """Closed-form samples on pairwise/triple intersections (chart points)."""
    rng = random.Random(seed)
    pts = []
    if example == "B":
        if which == "P_Q":
            return "eta", [(0j, 0j)]
        if which == "P_S":
            return "eta", [(0j, 1 + 0j)]
        if which == "Q_S":
            return "eta", [(-0.5 + 0j, 0.5 + 0j)]
        raise InputError(which)
    while len(pts) < count:
        if which == "P_Q":
            y1, x1 = _rand_c(rng), _rand_c(rng)
            pts.append((0j, y1, x1, -y1 * x1))
        elif which == "P_S":
            pts.extend(_p_cap_s(example, rng))
        elif which == "Q_S":
            pts.extend(_q_cap_s(example, rng))
        elif which == "P_Q_S":
            pts.extend(_p_q_s(example, rng))
        else:
            raise InputError(which)
    return "U2", pts[:count]


def _p_cap_s(example, rng):
    y1 = _rand_c(rng)
    if example == "C1":
        x1 = _rand_c(rng)
        return [(0j, y1, x1, 2 - y1 ** 3 * (x1 - 1))]
    if example == "C2":
        x1 = _rand_c(rng)
        return [(0j, y1, x1, 2 - y1 ** 3 * (x1 - 1) - 2 * y1 ** 2)]
    if example == "D":
        x2 = _rand_c(rng)
        den = y1 * (y1 + 1) * x2
        if abs(den) < 0.1:
            return []
        return [(0j, y1, 1 - (x2 ** 2 + 1) / den, x2)]
    if example == "E":
        x2 = _rand_c(rng)
        den = (y1 + x2) * (y1 + 2 * x2)
        if abs(den) < 0.1:
            return []
        return [(0j, y1, 1 - (x2 ** 3 + 1) / den, x2)]
    raise InputError(example)


def _q_cap_s(example, rng):
    if example in ("C1", "C2"):
        y0, y1 = _rand_c(rng), _rand_c(rng)
        den = y1 ** 3 - y1
        if abs(den) < 0.1:
            return []
        extra = 2 * y1 ** 2 if example == "C2" else 0j
        # substitute x2 = -y0 - y1 x1 into the chart equation and solve for x1
        x1 = (y1 ** 3 + y0 + 2 - y0 ** 3 - extra) / den
        x2 = -y0 - y1 * x1
        return [(y0, y1, x1, x2)]
    if example == "D":
        y1, x2 = _rand_c(rng), _rand_c(rng)
        if abs(y1) < 0.3:
            return []
        # (y1 x1 + x2)^2 + y1(y1+1)(x1-1)x2 + x2^2 + 1 = 0, quadratic in x1
        a = y1 ** 2
        b = 2 * y1 * x2 + y1 * (y1 + 1) * x2
        c = x2 ** 2 - y1 * (y1 + 1) * x2 + x2 ** 2 + 1
        return [(-(y1 * x1 + x2), y1, x1, x2) for x1 in _roots([a, b, c])]
    if example == "E":
        y1, x2 = _rand_c(rng), _rand_c(rng)
        if abs(y1) < 0.3:
            return []
        quad = (y1 + x2) * (y1 + 2 * x2)
        a = y1 ** 2
        b = 2 * y1 * x2 + quad
        c = x2 ** 2 - quad + x2 ** 3 + 1
        return [(-(y1 * x1 + x2), y1, x1, x2) for x1 in _roots([a, b, c])]
    raise InputError(example)


def _p_q_s(example, rng):
    y1 = _rand_c(rng)
    if abs(y1) < 0.3 or abs(y1 ** 3 - y1) < 0.1:
        return []
    if example == "C1":
        x1 = (y1 ** 3 + 2) / (y1 ** 3 - y1)
        return [(0j, y1, x1, -y1 * x1)]
    if example == "C2":
        x1 = (y1 ** 3 - 2 * y1 ** 2 + 2) / (y1 ** 3 - y1)
        return [(0j, y1, x1, -y1 * x1)]
    if example == "D":
        roots = _roots([-y1 ** 3, y1 ** 2 * (y1 + 1), 1 + 0j])
        return [(0j, y1, x1, -y1 * x1) for x1 in roots]
    if example == "E":
        roots = _roots([2 * y1 ** 2 - y1 ** 3, -5 * y1 ** 2,
                        4 * y1 ** 2, 1 - y1 ** 2])
        return [(0j, y1, x1, -y1 * x1) for x1 in roots]
    raise InputError(example)


_EXAMPLE_SURFACE = {"B": "S_B", "C1": "S_C1", "C2": "S_C2",
                    "D": "S_D", "E": "S_E"}


def _margin_specs(example: str, which: str, chart: str):
    surf = _EXAMPLE_SURFACE[example]
    z = (0j,) if chart == "eta" else (0j, 0j)
    spec_P = geometry.surface_catalog("P", z, chart=chart)
    spec_Q = geometry.surface_catalog("Q", chart=chart)
    spec_S = geometry.surface_catalog(surf, chart=chart) \
        if surf != "S_A" else None
    named = {"P": spec_P, "Q": spec_Q, "S": spec_S}
    return [named[token] for token in which.split("_")]


def transversality_suite(seed: int = 7) -> list[CheckReport]:
    """General-position spot checks at sampled intersection points.

    For each example the pairwise (and, for n = 2, triple) intersections
    are sampled in closed form and the stacked-gradient smallest singular
    value must stay above 1e-6.  The known degeneracy of Example D over
    (x1, x2) = (1, 0) must conversely be reported below 1e-6.
    """
    out: list[CheckReport] = []
    combos = [("B", ("P_Q", "P_S", "Q_S"))]
    for example in ("C1", "C2", "D", "E"):
        combos.append((example, ("P_Q", "P_S", "Q_S", "P_Q_S")))
    for example, whichs in combos:
        group = example[0]
        for which in whichs:
            t0 = time.perf_counter()
            check_id = f"transv_{example}_{which}"
            chart, points = _intersection_points(
                example, which, _subseed(seed, check_id))
            specs = _margin_specs(example, which, chart)
            margin = min(geometry.transversality_margin(specs, p)
                         for p in points)
            params = {"example": example, "surfaces": which,
                      "points": len(points),
                      "predicate": "margin > 1e-6"}
            out.append(_predicate_report(
                check_id, group, params, margin, 1e-6,
                margin > 1e-6, (), t0,
                violation=max(0.0, 1e-6 - margin)))
    # Example D's degeneracy over (x1, x2) = (1, 0), visible in the xi1 chart.
    t0 = time.perf_counter()
    spec_P = geometry.surface_catalog("P", (0j, 0j), chart="U1")
    spec_S = geometry.surface_catalog("S_D", chart="U1")
    point = (0j, 0j, 1 + 0j, 0j)
    margin = geometry.transversality_margin([spec_P, spec_S], point)
    params = {"example": "D", "surfaces": "P_S",
              "point": "(w0,w2,x1,x2)=(0,0,1,0)",
              "predicate": "margin < 1e-6"}
    out.append(_predicate_report(
        "transv_D_degenerate_over_1_0", "D", params, margin, 1e-6,
        margin < 1e-6, (), t0, violation=max(0.0, margin - 1e-6)))
    return out


# -------------------------------------------------------------- full report

@dataclass
class RunConfig:
    """Knobs for a full verification run."""

    seed: int = 7
    workers: int = 1  # validated only: quadrature is single-threaded
    skip: tuple[str, ...] = ()

    def __post_init__(self):
        if self.workers < 1:
            raise InputError("workers must be >= 1")


def _skipped(check_id: str, group: str, skip) -> bool:
    return check_id in skip or group in skip


def full_report(config: RunConfig | None = None) -> list[CheckReport]:
    """Every acceptance check, in a fixed deterministic order.

    A single check whose id or group is in ``config.skip`` is never run;
    the multi-check suites run and their skipped rows are dropped.  A check
    or suite that raises :class:`CflabError` becomes one FAIL row with its
    id, carrying the error in ``params``, and the others still run.
    """
    config = config or RunConfig()
    skip = config.skip
    seed = config.seed
    # (id, group, call) for single checks; (id, None, call) for suites.
    calls = (
        ("first_n1", "core", lambda: first_formula(
            1, parse_expr("exp(x)+x^2", 1), (0.3 + 0.1j,), 0.7,
            quad=(128,), tol=1e-10, check_id="first_n1")),
        ("first_n2_const", "core", lambda: first_formula(
            2, parse_expr("1", 2), (0.2, -0.1), 0.5,
            quad=(32, 64, 64), tol=1e-8, check_id="first_n2_const")),
        ("first_n2_poly", "core", lambda: first_formula(
            2, parse_expr("x1^2*x2+3", 2), (0.2, -0.1), 0.5,
            quad=(32, 64, 64), tol=1e-6, check_id="first_n2_poly")),
        ("second_exp", "core", lambda: second_formula_n1(
            parse_expr("exp(x)", 1), 0.3, 0.4, tol=1e-10,
            check_id="second_exp")),
        ("second_square", "core", lambda: second_formula_n1(
            parse_expr("x^2", 1), 1 + 1j, 0.4, tol=1e-10,
            check_id="second_square")),
        ("third_A_a0", "A", lambda: third_formula_case(
            "A", parse_expr("exp(x)", 1), a=0, check_id="third_A_a0")),
        ("third_A_a2", "A", lambda: third_formula_case(
            "A", parse_expr("x+1", 1), a=2, check_id="third_A_a2")),
        ("third_A_a1", "A", lambda: third_formula_case(
            "A", parse_expr("1", 1), a=1, check_id="third_A_a1")),
        ("third_B", "B", lambda: third_formula_case(
            "B", parse_expr("exp(x)", 1), check_id="third_B")),
        ("necessary_D", "D", lambda: necessary_condition_case("D", eps=0.5)),
        ("necessary_D_eps_invariance", "D", necessary_condition_eps_invariance),
        ("necessary_E", "E",
         lambda: necessary_condition_case("E", radii=(0.5, 0.5))),
        ("identity_suite", None, lambda: identity_suite(seed=seed)),
        ("fibration_C2", "C",
         lambda: fibration_check_C2(seed=_subseed(seed, "fibration"))),
        ("transversality_suite", None, lambda: transversality_suite(seed=seed)),
    )
    checks: list[CheckReport] = []
    for check_id, group, call in calls:
        if group is not None and _skipped(check_id, group, skip):
            continue
        t0 = time.perf_counter()
        try:
            if group is None:
                checks.extend(c for c in call() if not _skipped(c.id, c.group, skip))
            else:
                checks.append(call())
        except CflabError as exc:
            error = {"error": f"{type(exc).__name__}: {exc}"}
            checks.append(_predicate_report(check_id, group or "core", error,
                                            0j, 0j, False, (), t0))
    return checks


def all_pass(checks: list[CheckReport]) -> bool:
    return all(c.passed for c in checks)
