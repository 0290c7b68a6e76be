"""The representation-formula evaluators and the five example verifications.

Every operation returns :class:`CheckReport` records: computed value,
expected value (pinned from an independent oracle where no closed form
exists), absolute error, tolerance and a pass flag.  :data:`CHECKS` holds
one ``(id, group, run)`` row per report row, where ``run(seed)`` returns
that row's report.  ``full_report`` runs the table in order, and
``identity_suite`` and ``transversality_suite`` run parts of it, each
through :func:`_run`, which times every row and turns a raising one into
a FAIL row.

Each ``cflab verify`` family is one record in :data:`VERIFY`, declared on its
function: its options, their defaults and the cases they apply to.  The
command line and the family's table rows both run it through :func:`verify`.
"""

from __future__ import annotations

import functools
import math
import random
import time
import zlib
from collections import namedtuple
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
    runtime_ms: float = 0.0  # set by whoever runs the check


def _cfmt(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return repr(z.real)
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"


def _value_report(check_id, params, computed, expected, tol, quad_sizes,
                  extra_ok=True) -> CheckReport:
    computed = complex(computed)
    expected = complex(expected)
    abs_error = abs(computed - expected)
    return CheckReport(
        id=check_id, params=params, computed=computed, expected=expected,
        abs_error=abs_error, tol=float(tol),
        passed=bool(abs_error <= tol and extra_ok),
        quad_sizes=tuple(quad_sizes))


def _predicate_report(check_id, params, computed, bound, passed, quad_sizes,
                      violation=0.0) -> CheckReport:
    return CheckReport(
        id=check_id, params=params, computed=complex(computed),
        expected=complex(bound), abs_error=float(violation), tol=0.0,
        passed=bool(passed), quad_sizes=tuple(quad_sizes))


def _subseed(seed: int, check_id: str) -> int:
    return (seed + zlib.crc32(check_id.encode())) & 0x7FFFFFFF


def _run(rows, seed: int) -> list[CheckReport]:
    """The report of each ``(id, group, run)`` row, in order, run with
    ``seed`` and timed here.  A row that raises :class:`CflabError` becomes
    one FAIL row with that row's id, carrying the error in ``params``, and
    the other rows still run."""
    checks = []
    for check_id, _, run in rows:
        t0 = time.perf_counter()
        try:
            report = run(seed)
        except CflabError as exc:
            error = {"error": f"{type(exc).__name__}: {exc}"}
            report = _predicate_report(check_id, error, 0j, 0j, False, ())
        report.runtime_ms = (time.perf_counter() - t0) * 1e3
        checks.append(report)
    return checks


# ---------------------------------------------------------- verify families

SEED = 7  # the seed of a run that names none

# An argument of a ``cflab verify`` family, by its argparse ``name`` (``case``
# is a positional, passed in order).  Its value, or ``default``, is converted
# for its ``kind`` by :func:`_convert` and passed as ``keyword`` (default: the
# name without dashes).  ``counts`` is how many values a list takes (None:
# one, passed as itself) or an expression's number of variables; it and
# ``default`` may be dicts by case.  ``cases`` limits an option to those
# cases, and ``help`` is formatted with the default.
Option = namedtuple("Option", "name kind default counts help cases keyword choices",
                    defaults=(None, None, None, (), None, None))

# A ``cflab verify`` subcommand: the module function named ``function``, looked
# up when it runs, its ``options``, the option that gives the ``case``, and
# whether the function takes the run's seed (``seeded``).
Family = namedtuple("Family", "function help options case seeded", defaults=(None, False))

# The verify families by subcommand, in ``cflab verify --help`` order.
VERIFY: dict[str, Family] = {}


def _family(name, help, options, case=None, seeded=False):
    """Declare the decorated function as the family ``cflab verify <name>``."""
    def declare(fn):
        VERIFY[name] = Family(fn.__name__, help, options, case, seeded)
        return fn
    return declare


def _per_case(value, case):
    return value[case] if isinstance(value, dict) else value


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise InputError(f"{what} must be finite, got {value!r}")
    return value


def _listed(text: str, what: str, counts: tuple[int, ...], kind=float) -> list:
    """The comma-separated ``kind`` values of ``text``, one of ``counts`` many."""
    try:
        values = [kind(p) for p in text.split(",")]
    except ValueError as exc:
        raise InputError(f"bad {what}: {exc}") from None
    if len(values) not in counts:
        raise InputError(f"{what} takes {' or '.join(map(str, counts))} "
                         f"value{'s' if counts != (1,) else ''}, got {len(values)}")
    return [_finite(v, what) for v in values] if kind is float else values


def _convert(kind: str, value, what: str, counts):
    """The value of an option of ``kind``: a finite float (positive for "tol"),
    an expression in counts[0] variables, or a list of counts[0] complex
    numbers (re,im pairs, the last im optional), of floats or of node counts.
    Other kinds pass as they are."""
    if kind == "tol" and _finite(value, what) <= 0:
        raise InputError("tolerance must be positive")
    if kind in ("float", "tol"):
        return _finite(value, what)
    if kind == "expr":
        return parse_expr(value, counts[0])
    if kind == "complex":
        parts = _listed(value, what, (2 * counts[0] - 1, 2 * counts[0]))
        return [complex(*parts[i:i + 2]) for i in range(0, len(parts), 2)]
    if kind == "floats":
        return _listed(value, what, counts)
    if kind != "nodes":
        return value
    sizes = _listed(value, what, counts, int)
    if any(n < 4 for n in sizes):
        raise InputError("node counts must be integers >= 4")
    if len(sizes) == 1 and max(counts) == 3:  # the n = 2 sphere: psi gets half
        if sizes[0] < 8:
            raise InputError(f"one {what} value for n = 2 must be >= 8")
        return [sizes[0] // 2, sizes[0], sizes[0]]
    return sizes


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


@_family("first", "reproducing-kernel integral", case="n", options=(
    Option("--n", "int", 1, choices=(1, 2)),
    Option("--f", "expr", {1: "exp(x)+x^2", 2: "x1^2*x2+3"}, {1: (1,), 2: (2,)},
           "holomorphic test function (default: {0[1]} for n = 1, {0[2]} for n = 2)"),
    Option("--z", "complex", {1: "0.3,0.1", 2: "0.2,0,-0.1,0"}, {1: (1,), 2: (2,)},
           "base point re,im[,re,im]"),
    Option("--eps", "float", 0.7),
    Option("--nodes", "nodes", {1: "128", 2: "32,64,64"}, {1: (1,), 2: (1, 3)},
           keyword="quad"),
    Option("--tol", "tol", {1: 1e-10, 2: 1e-6}),
))
def first_formula(n: int, f: HolomorphicExpr, z, eps: float, quad, tol: float,
                  check_id: str = "first") -> CheckReport:
    """Reproduce f(z) as (n-1)!/(2 pi i)^n times the kernel integral, n = 1, 2."""
    z = tuple(complex(c) for c in z)
    sphere = cycles.sphere_M(z, eps)
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
    return _value_report(check_id, params, computed, expected, tol, quad)


# -------------------------------------------------------- the second formula

@_family("second", "small-circle residue form", (
    Option("--f", "expr", "exp(x)"),
    Option("--z", "complex", "0.3,0"),
    Option("--radii", "floats", "0.4", help="residue circle radius", keyword="r"),
    Option("--nodes", "nodes", "128"),
    Option("--tol", "tol", 1e-10),
))
def second_formula_n1(f: HolomorphicExpr, z: complex, r: float, nodes: int,
                      tol: float, check_id: str = "second") -> CheckReport:
    """n = 1 residue form: f(z) = -Res of the kernel pulled back to the
    incidence surface, the residue taken on a small positively-oriented
    circle about z."""
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
    return _value_report(check_id, params, computed, expected, tol, (nodes,))


# --------------------------------------------------------- the third formula

@_family("third", "path integral of the residue representative", case="case", options=(
    Option("case", "choice", choices=("A", "B")),
    Option("--a", "complex", "0", help="parameter a for case A (re[,im])", cases=("A",)),
    Option("--f", "expr", "exp(x)"),
    Option("--nodes", "nodes", "16"),
    Option("--tol", "tol", 1e-10),
))
def third_formula_case(case_id: str, f: HolomorphicExpr, *, nodes: int, tol: float,
                       a: complex | None = None,
                       check_id: str | None = None) -> CheckReport:
    """Examples A and B: integrate the explicit residue representative over
    a path from 1 to 0 and compare with the closed form.

    The pass flag asserts the closed form (f(0) - a f(1) for A, f(0) for B);
    whether the representation formula's claim f(0) holds is recorded
    separately as ``pass_formula``.
    """
    if case_id == "A":
        a = complex(a)
        form = kernels.casebook_form("residue_A", {"a": a}, f)
        f_at_zero = eval_expr(f, (0j,))
        expected = f_at_zero - a * eval_expr(f, (1 + 0j,))
    elif case_id == "B":
        form = kernels.casebook_form("residue_B", f=f)
        expected = f_at_zero = eval_expr(f, (0j,))
    else:
        raise InputError("third formula cases are 'A' and 'B'")
    path = cycles.segment(1 + 0j, 0j)
    computed = cycles.integrate(form, path, (nodes,))
    formula_holds = abs(computed - f_at_zero) <= tol
    params = {"f": exprlang.to_str(f),
              "pass_formula": formula_holds,
              "f0": _cfmt(f_at_zero)}
    if case_id == "A":
        params["a"] = _cfmt(a)
    return _value_report(check_id or f"third_{case_id}", params, computed,
                         expected, tol, (nodes,))


# ---------------------------------------------------- necessary condition

def _loop_integral(fn, center: complex, radius: float, e: np.ndarray) -> complex:
    """Plain one-variable trapezoid loop integral of an array-valued ``fn``
    on the node table ``e`` = exp(i h k), k < n, h = 2 pi / n, summed in
    node order (independent oracle path)."""
    h = 2.0 * math.pi / len(e)
    with np.errstate(all="ignore"):  # a non-finite oracle fails its check
        return complex(np.cumsum(fn(center + radius * e) * 1j * radius * e * h)[-1])


def residue_oracle_D(eps: float, n: int = 512) -> complex:
    """Iterated one-variable residues for the separable Example D integrand."""
    e = np.exp(1j * (2.0 * math.pi / n * np.arange(n)))
    inner_y = _loop_integral(lambda y1: 1 / (y1 * (y1 + 1)), 0j, eps, e)
    inner_x = _loop_integral(lambda x2: (x2 * x2 + 1) / x2, 0j, eps, e)
    return inner_y * inner_x


def residue_oracle_E(r1: float, r2: float, n: int = 512) -> complex:
    """Nested one-variable loops for ((v-u)^3+1)/(uv), u outside, v inside:
    a Python loop over the u nodes, each v loop one array sum, all on one
    node table."""
    e = np.exp(1j * (2.0 * math.pi / n * np.arange(n)))

    def inner(us):
        return np.array([
            _loop_integral(lambda v: ((v - u) ** 3 + 1) / (u * v), 0j, r2, e)
            for u in us.tolist()])

    return _loop_integral(inner, 0j, r1, e)


@_family("necessary", "obstruction torus integrals", case="case", options=(
    Option("case", "choice", choices=("D", "E")),
    Option("--eps", "float", 0.5, cases=("D",)),
    Option("--radii", "floats", "0.5,0.5", (1, 2), cases=("E",)),
    Option("--nodes", "nodes", "128,128", (1, 2), keyword="quad"),
    Option("--tol", "tol", 1e-8),
))
def necessary_condition_case(case_id: str, *, quad, tol: float,
                             eps: float | None = None, radii=None,
                             check_id: str | None = None) -> CheckReport:
    """Obstruction torus integrals for Examples D and E.

    A nonzero value certifies that the vanishing-residue necessary condition
    fails; the expected value is pinned by the iterated-residue oracle
    (both equal -4 pi^2).
    """
    if case_id == "D":
        torus = cycles.torus_D(eps)
        form = kernels.casebook_form("theta_D")
        oracle = residue_oracle_D(eps)
        params = {"eps": eps}
    elif case_id == "E":
        r1, r2 = radii
        torus = cycles.torus_E(r1, r2)
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
    return _value_report(check_id or f"necessary_{case_id}", params, computed,
                         oracle, tol, quad, extra_ok=nonzero)


def _default(family: str, name: str):
    """The default of ``family``'s option ``name``, converted as by :func:`verify`."""
    opt = next(opt for opt in VERIFY[family].options if opt.name == name)
    return _convert(opt.kind, opt.default, name, opt.counts or (1,))


def necessary_condition_eps_invariance(
        eps_a: float = 0.3, eps_b: float = 0.7,
        quad=tuple(_default("necessary", "--nodes")),
        tol: float = _default("necessary", "--tol")) -> CheckReport:
    """Example D's class does not depend on the torus radius; the grid and
    tolerance default to the ``necessary`` family's."""
    form = kernels.casebook_form("theta_D")
    va = cycles.integrate(form, cycles.torus_D(eps_a), quad)
    vb = cycles.integrate(form, cycles.torus_D(eps_b), quad)
    params = {"eps_a": eps_a, "eps_b": eps_b,
              "value_a": _cfmt(va), "value_b": _cfmt(vb)}
    return _value_report("necessary_D_eps_invariance", params, va - vb, 0j,
                         tol, quad)


# ------------------------------------------------------------ identity suite

# The identities take ``verify first``'s default f at n = 1 and base points.
_FIRST = {opt.name: opt.default for opt in VERIFY["first"].options}
_GENERIC_F = _FIRST["--f"][1]
_Z1, _Z2 = (tuple(_convert("complex", _FIRST["--z"][n], "--z", (n,))) for n in (1, 2))
_SIGMA_A_PARAM = 2 + 0.5j


@functools.cache
def _generic_f() -> HolomorphicExpr:
    """:data:`_GENERIC_F` parsed once, on first use."""
    return parse_expr(_GENERIC_F, 1)


def _off_pole(n, z):
    """Accept joint points (coordinate columns) with |xi.z| >= 0.4."""
    return lambda p: forms.modulus(p[0] + sum(forms.mul(p[1 + k], z[k])
                                              for k in range(n))) >= 0.4


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
            points, frames, extras = geometry.sample_points(
                rng, count // 2, 2 * n + 1, kernel.degree, _off_pole(n, z), extra=1)
            lam = extras + (1.5 + 0.5j)
            lam_points, lam_frames = points.copy(), frames.copy()  # xi times lam
            lam_points[:, :n + 1] = forms.mul(lam, points[:, :n + 1])
            lam_frames[..., :n + 1] = forms.mul(lam[:, None], frames[..., :n + 1])
            values = kernel.evaluate_many(  # each point and frame, then scaled
                np.stack([points, lam_points], axis=1).reshape(-1, 2 * n + 1),
                np.stack([frames, lam_frames], axis=1).reshape(-1, kernel.degree, 2 * n + 1))
            base, scaled = values[0::2], values[1::2]
            gaps = forms.modulus(base - scaled) / np.maximum(forms.modulus(base), 1e-30)
            worst = max(worst, float(gaps.max()))
    return worst


def _identity_chart(n, seed, count):
    points, frames, _ = geometry.sample_points(
        random.Random(seed), count, 2 * n + 1, 2 * n - 1,
        lambda p: (forms.modulus(p[0]) >= 0.3) & (forms.modulus(p[1]) >= 0.3))
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
    return kept.evaluate_many(np.insert(points, n, 1, axis=-1), np.insert(frames, n, 0, axis=-1))


def _exactness_gap(seed, count, psi, potential, factor, rhs):
    """Worst relative gap of ``psi + factor * d(potential) = rhs`` on the
    potential's chart (:func:`_on_section`), at seeded points with
    |p_0| >= 0.3."""
    points, frames, _ = geometry.sample_points(
        random.Random(seed), count, potential.dim, psi.degree,
        lambda p: forms.modulus(p[0]) >= 0.3)
    lhs = (_on_section(psi, points, frames)
           + factor * forms.d_numeric_many(potential, points, frames))
    return _worst_gap(lhs, rhs.evaluate_many(points, frames))


def _identity_exact_A(seed, count=40):
    f = _generic_f()
    # d(f g), g = (a - 1) x + 1, on the x-line: Example A's residue form
    dfg = kernels.casebook_form("residue_A", {"a": _SIGMA_A_PARAM}, f).terms[(0,)]
    rhs = forms.wedge(KForm.basis(2, 0, coeff=lambda p: forms.div(1, p[0])),
                      KForm.basis(2, 1, coeff=lambda p: dfg((p[1],))))
    return _exactness_gap(
        seed, count, kernels.psi(1, (0j,), f),
        kernels.casebook_form("sigma_A", {"a": _SIGMA_A_PARAM}, f), 1.0, rhs)


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
        lambda p: (forms.modulus(p[0]) >= 0.05) & (forms.modulus(p[0] + 1) >= 0.2))
    eta = np.append(1e-6 + 0j, drawn)
    sq = forms.power(eta + 1, 2)
    points = np.stack([eta, 1 - forms.div(forms.power(eta, 2), eta + 1)], axis=1)
    frames = np.stack([np.ones_like(eta), forms.div(forms.mul(-eta, eta + 2), sq)], axis=1)
    values = _on_section(kernels.phi(1, (0j,)), points, frames[:, None])
    return float(forms.modulus(values - forms.div(-(eta + 2), sq)).max())


def _identity_extend_C(seed, count):
    """phi on S_C, pulled back along the graph (y0, y1, x1) -> (y0, y1, x1,
    2 - y0^3 - y1^3 (x1 - 1)), against 3 dy0^dy1^dx1."""
    qs, vecs, _ = geometry.sample_points(random.Random(seed), count, 3, 3,
                                         lambda q: forms.modulus(q[0]) >= 0.05)
    # per q: phi on the parameter frame (expected exactly 3), then on vecs
    y0, y1, x1 = np.repeat(qs, 2, axis=0).T
    x2 = 2 - forms.power(y0, 3) - forms.mul(forms.power(y1, 3), x1 - 1)
    # row j: the graph's image of the j-th parameter direction
    jac = ((1, 0, 0, forms.mul(-3, forms.power(y0, 2))),
           (0, 1, 0, forms.mul(forms.mul(-3, forms.power(y1, 2)), x1 - 1)),
           (0, 0, 1, -forms.power(y1, 3)))
    frames = np.stack([np.broadcast_to(np.eye(3, dtype=complex), (count, 3, 3)), vecs], axis=1)
    w = frames.reshape(-1, 3, 3).transpose(2, 1, 0)  # (direction, vector, row)
    pushed = [0j + forms.mul(w[0], a) + forms.mul(w[1], b) + forms.mul(w[2], c)
              for a, b, c in zip(*jac)]
    pulled = _on_section(kernels.phi(2, (0j, 0j)), np.stack([y0, y1, x1, x2], axis=1),
                         np.stack(pushed, axis=-1).transpose(1, 0, 2))
    want = KForm.basis(3, 0, 1, 2, coeff=3).evaluate_many(qs, vecs)
    return float(max(forms.modulus(pulled[0::2] - 3).max(),
                     forms.modulus(pulled[1::2] - want).max()))


def _gap_row(check_id, group, tol, subseed, gap, *args, **params):
    """The table row of an identity whose worst gap must stay within ``tol``
    of 0: the module function named ``gap``, looked up when the row runs, at
    ``args``, the row's sub-seed named ``subseed`` and, if ``params`` has
    ``points``, that many points.  Each report gets its own ``params``."""
    points = (params["points"],) if "points" in params else ()

    def run(seed):
        worst = globals()[gap](*args, _subseed(seed, subseed), *points)
        return _value_report(check_id, dict(params), worst, 0j, tol, ())
    return check_id, group, run


def _vanish_row(check_id, group, form_id, name, chart, *surface_params, count=20):
    """The table row of the form ``form_id`` restricted to the surface
    ``name`` in ``chart``, which must vanish within 1e-9 of its scale at
    ``count`` points drawn with the row's sub-seed."""
    def run(seed):
        # each form takes what it needs of A's parameter and the generic f
        form = kernels.casebook_form(form_id, {"a": _SIGMA_A_PARAM}, _generic_f())
        spec = geometry.surface_catalog(name, surface_params, chart=chart)
        worst, scale = kernels.vanishing_max_and_scale(
            form, spec, _subseed(seed, check_id), count)
        scale = max(scale, 1e-30)
        params = {"form": form_id, "surface": name, "scale": scale,
                  "count": count}
        return _value_report(check_id, params, worst, 0j, 1e-9 * scale, ())
    return check_id, group, run


# The identity rows of the report by ``verify identities`` id, in report
# order.
IDENTITY_CHECKS = {
    "dPhi_nPsi": (
        _gap_row("identity_dPhi_nPsi_n1", "core", 1e-5, "dphi1", "_identity_dphi_npsi",
                 1, _Z1, n=1, points=100, metric="max relative error"),
        _gap_row("identity_dPhi_nPsi_n2", "core", 1e-5, "dphi2", "_identity_dphi_npsi",
                 2, _Z2, n=2, points=100, metric="max relative error")),
    "scale_invariance": (
        _gap_row("identity_scale_invariance", "core", 1e-12, "scale", "_identity_scale",
                 kernels="phi,psi", n="1,2", metric="max relative error"),),
    "chart_phi": (
        _gap_row("identity_chart_phi_n2", "core", 1e-10, "chart2", "_identity_chart",
                 2, n=2, points=20, metric="max relative gap"),
        _gap_row("identity_chart_phi_n3", "core", 1e-10, "chart3", "_identity_chart",
                 3, n=3, points=20, metric="max relative gap")),
    "exact_A": (
        _gap_row("identity_exact_A", "A", 1e-5, "exactA", "_identity_exact_A",
                 a=_cfmt(_SIGMA_A_PARAM), f=_GENERIC_F, metric="max relative error"),),
    "exact_D": (
        _gap_row("identity_exact_D", "D", 1e-5, "exactD", "_identity_exact_D",
                 metric="max relative error"),),
    "extend_B": (
        _gap_row("identity_extend_B", "B", 1e-10, "extB", "_identity_extend_B",
                 points=50, includes_eta="1e-06"),),
    "extend_C": (
        _gap_row("identity_extend_C", "C", 1e-10, "extC", "_identity_extend_C",
                 points=50),),
    "vanish_all": (
        _vanish_row("vanish_sigmaA_Q", "A", "sigma_A", "Q", "eta"),
        _vanish_row("vanish_sigmaA_SA", "A", "sigma_A", "S_A", "eta", _SIGMA_A_PARAM),
        _vanish_row("vanish_sigmaB_Q", "B", "sigma_B", "Q", "eta"),
        _vanish_row("vanish_sigmaB_SB", "B", "sigma_B", "S_B", "eta"),
        _vanish_row("vanish_tauD_SD", "D", "tau_D", "S_D", "U2"),
        _vanish_row("vanish_tauE_SE", "E", "tau_E", "S_E", "U2")),
}


@_family("identities", "structural identity suite", seeded=True, options=(
    Option("ids", "ids", (), help=f"subset of {', '.join(IDENTITY_CHECKS)}"),))
def identity_suite(*ids: str, seed: int = SEED) -> list[CheckReport]:
    """Seeded random-point verification of the structural identities: every
    row of :data:`IDENTITY_CHECKS`, or those of the ``ids``, each id once in
    the order first named."""
    for which in ids:
        if which not in IDENTITY_CHECKS:
            raise InputError(f"unknown identity id {which!r}; "
                             f"choose from {tuple(IDENTITY_CHECKS)}")
    return _run([row for which in dict.fromkeys(ids or IDENTITY_CHECKS)
                 for row in IDENTITY_CHECKS[which]], seed)


# --------------------------------------------------------- Example C fibres

def _s_C2_homogeneous(xi0, xi1, xi2, x1, x2) -> complex:
    return (xi0 ** 3 + xi1 ** 3 * (x1 - 1) + xi2 ** 3 * (x2 - 2)
            + 2 * xi1 ** 2 * xi2)


FIBRE_COUNT = 20  # sampled fibres of a run that names no count


@_family("fibration", "Example C2 fibre checks", seeded=True,
         options=(Option("--count", "int", FIBRE_COUNT),))
def fibration_check_C2(seed: int = SEED, count: int = FIBRE_COUNT,
                       check_id: str = "fibration_C2") -> CheckReport:
    """Example C2's incidence-with-P set fibres over the line at infinity.

    Checks (i) the surjectivity witnesses land on the surface, (ii) the
    local trivializations invert each other, (iii) no full fibre of P lies
    inside the surface.
    """
    geometry.check_count(count)
    rng = random.Random(seed)
    surj_worst = 0.0
    trip_worst = 0.0
    nofibre_min = math.inf
    for _ in range(count):
        xi1, xi2 = geometry.rand_c(rng), geometry.rand_c(rng)
        cross = 2 * xi1 ** 2 * xi2
        num = xi1 ** 3 + 2 * xi2 ** 3 - cross
        # Over {xi1 != 0} solving for x1, over {xi2 != 0} for x2: the
        # surjectivity witness (the other coordinate 0) lies on the surface;
        # the trivialization's inverse map lands on the surface and, at 0,
        # reproduces the witness through a different formula.
        for lead, other, at, other_at, on_x1 in ((xi1, xi2, 1, 2, True),
                                                 (xi2, xi1, 2, 1, False)):
            if abs(lead) < 0.2:
                continue
            witness = num / lead ** 3
            free = geometry.rand_c(rng)
            solved = at - (other ** 3 * (free - other_at) + cross) / lead ** 3
            x1, x2 = (witness, 0j) if on_x1 else (0j, witness)
            surj_worst = max(surj_worst, abs(_s_C2_homogeneous(0j, xi1, xi2, x1, x2)))
            x1, x2 = (solved, free) if on_x1 else (free, solved)
            trip_worst = max(trip_worst, abs(_s_C2_homogeneous(0j, xi1, xi2, x1, x2)))
            inverse_at_0 = at - (other ** 3 * (0 - other_at) + cross) / lead ** 3
            trip_worst = max(trip_worst, abs(inverse_at_0 - witness))
        # no P-fibre is contained in the surface
        x1, x2 = geometry.rand_c(rng, 2.0), geometry.rand_c(rng, 2.0)
        nofibre_min = min(nofibre_min,
                          max(abs(_s_C2_homogeneous(0j, 1 + 0j, 0j, x1, x2)),
                              abs(_s_C2_homogeneous(0j, 0j, 1 + 0j, x1, x2)),
                              abs(_s_C2_homogeneous(0j, 1 + 0j, 1 + 0j, x1, x2))))
    passed = (surj_worst < 1e-10 and trip_worst < 1e-12
              and nofibre_min > 1e-3)
    params = {
        "surjectivity_max_defect": surj_worst,
        "roundtrip_max_defect": trip_worst,
        "nofibre_min_witness": nofibre_min,
        "predicate": "surj<1e-10 and roundtrip<1e-12 and nofibre>1e-3",
        "count": count,
    }
    worst = max(surj_worst, trip_worst)
    return _predicate_report(check_id, params, worst, 0j, passed, (),
                             violation=0.0 if passed else worst)


# ------------------------------------------------------- transversality

@functools.cache
def _margin_specs(example: str, which: str, chart: str) -> tuple:
    """The P, Q or S specs that ``which`` names, in its order; built once per
    (example, which, chart), as specs are immutable."""
    return tuple(geometry.surface_catalog(f"S_{example}" if token == "S" else token,
                                          chart=chart)
                 for token in which.split("_"))


def _degenerate_D_report() -> CheckReport:
    """Example D's degeneracy over (x1, x2) = (1, 0), visible in the xi1
    chart, must be reported below 1e-6."""
    margin = geometry.transversality_margin(_margin_specs("D", "P_S", "U1"),
                                            [(0j, 0j, 1 + 0j, 0j)])
    params = {"example": "D", "surfaces": "P_S",
              "point": "(w0,w2,x1,x2)=(0,0,1,0)",
              "predicate": "margin < 1e-6"}
    return _predicate_report(
        "transv_D_degenerate_over_1_0", params, margin, 1e-6,
        margin < 1e-6, (), violation=max(0.0, margin - 1e-6))


def _transversality_row(example, which):
    """The table row of one intersection: the smallest stacked-gradient
    singular value over its sampled points must stay above 1e-6."""
    check_id = f"transv_{example}_{which}"

    def run(seed):
        chart, points = geometry.intersection_points(
            example, which, _subseed(seed, check_id))
        specs = _margin_specs(example, which, chart)
        margin = geometry.transversality_margin(specs, points)
        params = {"example": example, "surfaces": which, "points": len(points),
                  "predicate": "margin > 1e-6"}
        return _predicate_report(check_id, params, margin, 1e-6, margin > 1e-6,
                                 (), violation=max(0.0, 1e-6 - margin))
    return check_id, example[0], run


# Pairwise (and, for n = 2, triple) intersections per example, then the
# known degeneracy of Example D.
TRANSVERSALITY_CHECKS = (
    *(_transversality_row("B", which) for which in ("P_Q", "P_S", "Q_S")),
    *(_transversality_row(example, which) for example in ("C1", "C2", "D", "E")
      for which in ("P_Q", "P_S", "Q_S", "P_Q_S")),
    ("transv_D_degenerate_over_1_0", "D", lambda seed: _degenerate_D_report()),
)


def transversality_suite(seed: int = SEED) -> list[CheckReport]:
    """General-position spot checks at sampled intersection points: every
    row of :data:`TRANSVERSALITY_CHECKS`."""
    return _run(TRANSVERSALITY_CHECKS, seed)


# -------------------------------------------------------------- full report

def verify(family: str, given: dict, seed: int = SEED, **keywords) -> list[CheckReport]:
    """Run ``family``'s function, looked up by name now, with each option of
    ``given`` (by name without dashes; missing or None: its default)
    converted, and with the ``keywords``.  An option given for a case it does
    not apply to is an :class:`InputError`."""
    record = VERIFY[family]
    case, args = None, []
    for opt in record.options:
        dest = opt.name.lstrip("-")
        value = given.get(dest)
        if opt.cases and case not in opt.cases:
            if value is not None:
                raise InputError(f"{opt.name} does not apply to case {case}")
            continue
        value = _per_case(opt.default, case) if value is None else value
        counts = _per_case(opt.counts, case) or (1,)
        value = _convert(opt.kind, value, opt.name, counts)
        if opt.kind in ("complex", "floats", "nodes"):  # one value, or one for all
            value = value[0] if opt.counts is None else \
                tuple(value) * (max(counts) // len(value))
        if dest == record.case:
            case = value
        if dest == opt.name:  # a positional: the case, or the identity ids
            args.extend([value] if isinstance(value, str) else value)
        else:
            keywords[opt.keyword or dest] = value
    if record.seeded:
        keywords["seed"] = seed
    t0 = time.perf_counter()
    reports = globals()[record.function](*args, **keywords)
    if isinstance(reports, list):  # table rows, each timed by _run
        return reports
    reports.runtime_ms = (time.perf_counter() - t0) * 1e3
    return [reports]


def _family_row(check_id, group, family, subseed=None, **given):
    """The table row of ``verify(family, given)`` at the row's seed, or at its
    sub-seed named ``subseed``."""
    return check_id, group, functools.partial(_family_report, check_id, family,
                                              given, subseed)


def _family_report(check_id, family, given, subseed, seed):
    seed = seed if subseed is None else _subseed(seed, subseed)
    return verify(family, given, seed, check_id=check_id)[0]


# One (id, group, run) row per report row, in report order; ``run(seed)``
# returns that row's report.
CHECKS = (
    _family_row("first_n1", "core", "first"),
    _family_row("first_n2_const", "core", "first", n=2, f="1", eps=0.5, tol=1e-8),
    _family_row("first_n2_poly", "core", "first", n=2, eps=0.5),
    _family_row("second_exp", "core", "second"),
    _family_row("second_square", "core", "second", f="x^2", z="1,1"),
    _family_row("third_A_a0", "A", "third", case="A"),
    _family_row("third_A_a2", "A", "third", case="A", f="x+1", a="2"),
    _family_row("third_A_a1", "A", "third", case="A", f="1", a="1"),
    _family_row("third_B", "B", "third", case="B"),
    _family_row("necessary_D", "D", "necessary", case="D"),
    ("necessary_D_eps_invariance", "D",
     lambda s: necessary_condition_eps_invariance()),
    _family_row("necessary_E", "E", "necessary", case="E"),
    *(row for rows in IDENTITY_CHECKS.values() for row in rows),
    _family_row("fibration_C2", "C", "fibration", subseed="fibration"),
    *TRANSVERSALITY_CHECKS,
)


def full_report(seed: int = SEED, skip=()) -> list[CheckReport]:
    """Every row of :data:`CHECKS`, in order, each run with ``seed``.

    A row whose id or group is in ``skip`` is never computed; a ``skip``
    token that names no row's id or group raises :class:`InputError`.  The
    other rows run as :func:`_run` runs them.
    """
    names = {name for check_id, group, _ in CHECKS for name in (check_id, group)}
    unknown = [token for token in skip if token not in names]
    if unknown:
        raise InputError("--skip matches no check id or group: "
                         + ", ".join(unknown))
    return _run([(check_id, group, run) for check_id, group, run in CHECKS
                 if check_id not in skip and group not in skip], seed)
