"""Independent 30-digit oracles for the -4 pi^2 obstruction integrals of
Examples D and E, and for the first formula on its quadrature grid.

Each value is a trapezoid sum in mpmath arithmetic over the same torus
parametrization the casebook integrates, with the pulled-back 2-form written
out here by hand.  Nothing is taken from ``cycles``, ``forms`` or
``kernels``.  The integrands are analytic and periodic in both angles, so the
sums converge geometrically (like eps^n for Example D, whose only pole off
the torus is at y1 = -1) and Example E's, a trigonometric polynomial of
degree 3, is exact from 4 nodes on.
"""

import itertools
import math

import pytest
from mpmath import mp, mpc, mpf

from cflab import casebook
from cflab.exprlang import parse_expr

DIGITS = 30


def _torus_sum(pulled_back, n):
    """Trapezoid sum over [0, 2 pi)^2, n nodes per angle, of the pulled-back
    2-form as a function of the two unit circle points exp(i theta),
    exp(i eta)."""
    circle = [mp.expjpi(mpf(2 * j) / n) for j in range(n)]
    total = mpc(0)
    for a in circle:
        for b in circle:
            total += pulled_back(a, b)
    return total * (2 * mp.pi / n) ** 2


def _example_d(eps):
    # torus_D: y1 = eps e^{i theta}, x2 = eps e^{i eta}, and x1 solved from
    # the chart equation, 1 - x1 = (1 + x2^2) / (y1 x2 (1 + y1)).  The form
    # (1 - x1) dy1 ^ dx2 on (d/dtheta, d/deta) is (1 - x1) (i y1) (i x2).
    def pulled_back(a, b):
        y1, x2 = eps * a, eps * b
        x1 = 1 - (1 + x2 * x2) / (eps * eps * a * b * (1 + y1))
        return (1 - x1) * (1j * y1) * (1j * x2)

    return pulled_back


def _example_e(r1, r2):
    # torus_E: u = r1 e^{i theta}, v = r2 e^{i eta}; the form
    # ((v - u)^3 + 1) / (u v) du ^ dv on (d/dtheta, d/deta).
    def pulled_back(a, b):
        u, v = r1 * a, r2 * b
        return ((v - u) ** 3 + 1) / (u * v) * (1j * u) * (1j * v)

    return pulled_back


@pytest.mark.parametrize("example, params, nodes", [
    ("D", {"eps": 0.5}, 112),  # aliasing error about 0.5^112 = 2e-34
    ("D", {"eps": 0.3}, 64),   # 0.3^64 = 3e-34
    ("E", {"radii": (0.5, 0.5)}, 8),
    ("E", {"radii": (0.3, 0.7)}, 8),
], ids=["D_eps_0.5", "D_eps_0.3", "E_0.5_0.5", "E_0.3_0.7"])
def test_obstruction_values_match_a_30_digit_oracle(example, params, nodes):
    with mp.workdps(DIGITS):
        minus_four_pi_sq = -4 * mp.pi ** 2
        if example == "D":
            pulled_back = _example_d(mpf(params["eps"]))
        else:
            pulled_back = _example_e(*map(mpf, params["radii"]))
        value = _torus_sum(pulled_back, nodes)
        assert abs(value - minus_four_pi_sq) < mpf(10) ** (5 - DIGITS)
        oracle = complex(value)
    report = casebook.necessary_condition_case(example, **params, quad=(128, 128),
                                             tol=1e-8)
    assert report.passed
    assert report.expected == pytest.approx(oracle, abs=1e-12)
    assert abs(report.computed - oracle) <= report.tol
    assert oracle == pytest.approx(-4 * math.pi ** 2, abs=1e-12)


# ------------------------------------------------------- the first formula
#
# The first formula's value, (n-1)!/(2 pi i)^n * alpha * (integral of phi over
# the residue sphere), summed in mpmath on the grid the casebook uses.  The
# sphere, its tangent frame, phi and the orientation sign alpha are written
# out here as well.

def _gauss_legendre(n, a, b):
    """n-point Gauss-Legendre nodes and weights on [a, b], from the roots of
    the Legendre polynomial P_n."""
    nodes, weights = [], []
    for i in range(1, n + 1):
        t = mp.findroot(lambda x: mp.legendre(n, x),
                        mp.cos(mp.pi * (i - mpf(1) / 4) / (n + mpf(1) / 2)))
        slope = n * mp.legendre(n - 1, t) / (1 - t * t)  # P_n'(t), P_n(t) = 0
        nodes.append((a + b) / 2 + (b - a) / 2 * t)
        weights.append((b - a) / ((1 - t * t) * slope ** 2))
    return nodes, weights


def _trapezoid(n):
    return [2 * mp.pi * j / n for j in range(n)], [2 * mp.pi / n] * n


def _sphere(z, eps, param):
    """sphere_M at ``param``: x = z + d on the eps-sphere, xi = (-(z.conj d)
    - eps^2, conj d), and the pushforward of each parameter direction, all
    as ambient vectors (xi_0..xi_n, x_1..x_n)."""
    if len(z) == 1:
        (theta,) = param
        d, derivs = [eps * mp.expj(theta)], [[1j * eps * mp.expj(theta)]]
    else:
        psi, p1, p2 = param
        e1, e2 = mp.expj(p1), mp.expj(p2)
        c, s = mp.cos(psi), mp.sin(psi)
        d = [eps * c * e1, eps * s * e2]
        derivs = [[-eps * s * e1, eps * c * e2],
                  [1j * eps * c * e1, 0], [0, 1j * eps * s * e2]]

    def ambient(xi_tail, xi0, x):
        return [xi0] + xi_tail + x

    conj = [mp.conj(c) for c in d]
    point = ambient(conj, -sum(a * b for a, b in zip(z, conj)) - eps * eps,
                    [a + b for a, b in zip(z, d)])
    frame = []
    for dd in derivs:
        cd = [mp.conj(mpc(c)) for c in dd]
        frame.append(ambient(cd, -sum(a * b for a, b in zip(z, cd)),
                             [mpc(c) for c in dd]))
    return point, frame


def _phi(z, f, point, frame):
    """f(x) omega'(xi) ^ dx_1 ^ .. ^ dx_n / (xi.z)^n on the frame, with
    omega'(xi) = sum_k (-1)^(k-1) xi_k dxi_1 ^ .. (no dxi_k) .. ^ dxi_n."""
    n = len(z)
    xi, x = point[:n + 1], point[n + 1:]
    pairing = xi[0] + sum(a * b for a, b in zip(xi[1:], z))
    total = mpc(0)
    for k in range(1, n + 1):
        coords = [j for j in range(1, n + 1) if j != k] + list(range(n + 1, 2 * n + 1))
        minor = mp.matrix([[v[c] for c in coords] for v in frame])
        total += (-1) ** (k - 1) * xi[k] * mp.det(minor)
    return f(x) * total / pairing ** n


def _first_formula_oracle(z, eps, f, rules, reference):
    z = [mpc(c) for c in z]
    n = len(z)
    probe = _phi(z, lambda x: 1, *_sphere(z, eps, reference))
    alpha = 1 if (probe / mpc(0, 1) ** n).real > 0 else -1
    total = mpc(0)
    for combo in itertools.product(*(list(zip(*rule)) for rule in rules)):
        param = [node for node, _ in combo]
        weight = mp.fprod(w for _, w in combo)
        total += weight * _phi(z, f, *_sphere(z, eps, param))
    return mp.factorial(n - 1) / (2j * mp.pi) ** n * alpha * total


@pytest.mark.parametrize("n, text, z, eps, quad", [
    (1, "exp(x)+x^2", (0.3 + 0.1j,), 0.7, (128,)),
    (2, "x1^2*x2+3", (0.2, -0.1), 0.5, (4, 8, 8)),
], ids=["n1_128", "n2_4x8x8"])
def test_first_formula_matches_a_30_digit_oracle_on_its_grid(n, text, z, eps,
                                                               quad):
    with mp.workdps(DIGITS):
        if n == 1:
            rules = [_trapezoid(quad[0])]
            f = lambda x: mp.exp(x[0]) + x[0] ** 2  # noqa: E731
            reference = [mpf(0.7)]
        else:
            rules = [_gauss_legendre(quad[0], 0, mp.pi / 2),
                     _trapezoid(quad[1]), _trapezoid(quad[2])]
            f = lambda x: x[0] ** 2 * x[1] + 3  # noqa: E731
            reference = [mpf(0.9), mpf(0.7), mpf(1.3)]
        value = _first_formula_oracle(z, mpf(eps), f, rules, reference)
        if n == 1:  # the trapezoid rule is spectrally accurate: f(z) itself
            assert abs(value - f([mpc(z[0])])) < mpf(10) ** (5 - DIGITS)
        oracle = complex(value)
    report = casebook.first_formula(n, parse_expr(text, n), z, eps, quad=quad,
                                    tol=1.0)
    assert abs(report.computed - oracle) <= 1e-12 * max(1.0, abs(oracle))
