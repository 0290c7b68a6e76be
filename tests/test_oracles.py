"""Independent 30-digit oracles for the -4 pi^2 obstruction integrals of
Examples D and E.

Each value is a trapezoid sum in mpmath arithmetic over the same torus
parametrization the casebook integrates, with the pulled-back 2-form written
out here by hand.  Nothing is taken from ``cycles``, ``forms`` or
``kernels``.  The integrands are analytic and periodic in both angles, so the
sums converge geometrically (like eps^n for Example D, whose only pole off
the torus is at y1 = -1) and Example E's, a trigonometric polynomial of
degree 3, is exact from 4 nodes on.
"""

import math

import pytest
from mpmath import mp, mpc, mpf

from cflab import casebook

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
    report = casebook.necessary_condition_case(example, **params)
    assert report.passed
    assert report.expected == pytest.approx(oracle, abs=1e-12)
    assert abs(report.computed - oracle) <= report.tol
    assert oracle == pytest.approx(-4 * math.pi ** 2, abs=1e-12)
