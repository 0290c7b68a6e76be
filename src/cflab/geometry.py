"""The catalog of hypersurfaces in their affine charts, and the seeded samplers.

Every surface is named with the affine chart its computations live in:

* ``eta``  -- n = 1, coordinates (eta, x) with eta = xi0/xi1;
* ``U2``   -- n = 2, coordinates (y0, y1, x1, x2) with y_j = xi_j/xi2;
* ``U1``   -- n = 2, coordinates (w0, w2, x1, x2) with w_j = xi_j/xi1.

P is the hyperplane xi.z = 0 at z = 0, Q the incidence xi.x = 0, and S_A-S_E
the example surfaces.  Defining functions are polynomials with hand-written
gradients, so the transversality margin carries no finite-difference
tolerance.  Written with ``forms.mul``/``forms.power``, they take a batch's
coordinate columns, as form coefficients do, or one point's numbers.  A
surface that a check samples carries its closed-form solver, ``SurfaceSpec.solve``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatchError, InputError, PreconditionError
from .forms import CoeffFn, modulus, mul, power
from .forms import _const_fn as _const

Point = tuple[complex, ...]
MAX_SAMPLE_COUNT = 100_000  # points one seeded sampler may be asked for
_INTERSECTION_COUNT = 5  # points intersection_points draws on one intersection


# ------------------------------------------------------------ surface specs

@dataclass(frozen=True)
class SurfaceSpec:
    """A hypersurface as a chart defining function with analytic gradient: the
    ``value`` and ``dim`` ``gradient`` coefficients (a constant one is a
    scalar).  ``solve(rng, params)``, where a check samples the surface,
    returns one closed-form candidate point, or ``None`` to draw again."""

    name: str
    chart: str
    params: tuple[complex, ...]
    value: CoeffFn = field(repr=False)
    gradient: tuple[CoeffFn, ...] = field(repr=False)
    solve: Callable[[random.Random, tuple], Point | None] | None = field(
        default=None, repr=False)

    @property
    def dim(self) -> int:
        return len(self.gradient)


def _spec(name, chart, params, value, *gradient, solve=None):
    return SurfaceSpec(name=name, chart=chart, params=tuple(params),
                       value=value, gradient=gradient, solve=solve)


_ONE, _ZERO = _const(1 + 0j), _const(0j)


def surface_catalog(name: str, params: Sequence[complex] = (), *,
                    chart: str) -> SurfaceSpec:
    """Defining function, gradient and solver of the catalog hypersurface
    ``name`` in ``chart``; ``params`` supplies ``a`` for S_A, and no other
    surface takes any."""
    builder = _CATALOG.get((name, chart))
    if builder is None:
        raise InputError(f"no surface {name!r} in chart {chart!r}")
    params = tuple(complex(c) for c in params)
    spec = builder(params)
    if spec.params != params:
        raise InputError(f"surface {name} takes {len(spec.params)} parameters, "
                         f"got {len(params)}")
    return spec


# Each surface below is written as the Python expression of its defining
# function, operand for operand: ``mul`` for ``*``, ``power`` for ``**``.

def _surface_P(chart, dim):
    # xi.z over the chart's held coordinate, at z = 0: the first coordinate
    return _spec("P", chart, (), lambda p: p[0], _ONE, *[_ZERO] * (dim - 1))


def _surface_Q_eta(params):
    return _spec("Q", "eta", (), lambda p: p[0] + p[1], _ONE, _ONE,
                 solve=_sample_Q_eta)


def _sample_Q_eta(rng, params):
    eta = rand_c(rng)
    return (eta, -eta)


def _surface_Q_U2(params):
    return _spec("Q", "U2", (), lambda p: p[0] + mul(p[1], p[2]) + p[3],
                 _ONE, lambda p: p[2], lambda p: p[1], _ONE)


def _surface_S_A(params):
    if len(params) != 1:
        raise InputError("S_A needs the parameter a")
    a = params[0]
    return _spec("S_A", "eta", (a,), lambda p: mul(a, p[0]) + p[1] - 1,
                 _const(a), _ONE, solve=_sample_S_A)


def _sample_S_A(rng, params):
    a = params[0]
    eta = rand_c(rng)
    return (eta, 1 - a * eta)


def _surface_S_B(params):
    return _spec("S_B", "eta", (), lambda p: power(p[0], 2) + mul(p[0] + 1, p[1] - 1),
                 lambda p: mul(2, p[0]) + p[1] - 1, lambda p: p[0] + 1,
                 solve=_sample_S_B)


def _sample_S_B(rng, params):
    eta = rand_c(rng)
    if abs(eta + 1) < 0.2:
        return None
    return (eta, 1 - eta ** 2 / (eta + 1))


def _surface_S_C1(params):
    return _spec("S_C1", "U2", (),
                 lambda p: power(p[0], 3) + mul(power(p[1], 3), p[2] - 1) + (p[3] - 2),
                 lambda p: mul(3, power(p[0], 2)),
                 lambda p: mul(mul(3, power(p[1], 2)), p[2] - 1),
                 lambda p: power(p[1], 3), _ONE)


def _surface_S_C2(params):
    return _spec("S_C2", "U2", (),
                 lambda p: (power(p[0], 3) + mul(power(p[1], 3), p[2] - 1)
                            + (p[3] - 2) + mul(2, power(p[1], 2))),
                 lambda p: mul(3, power(p[0], 2)),
                 lambda p: mul(mul(3, power(p[1], 2)), p[2] - 1) + mul(4, p[1]),
                 lambda p: power(p[1], 3), _ONE)


def _surface_S_D_U2(params):
    return _spec("S_D", "U2", (),
                 lambda p: (power(p[0], 2) + mul(mul(mul(p[1], p[1] + 1), p[2] - 1), p[3])
                            + power(p[3], 2) + 1),
                 lambda p: mul(2, p[0]),
                 lambda p: mul(mul(mul(2, p[1]) + 1, p[2] - 1), p[3]),
                 lambda p: mul(mul(p[1], p[1] + 1), p[3]),
                 lambda p: mul(mul(p[1], p[1] + 1), p[2] - 1) + mul(2, p[3]),
                 solve=_sample_S_D_U2)


def _sample_S_D_U2(rng, params):
    y0, y1, x2 = rand_c(rng), rand_c(rng), rand_c(rng)
    den = y1 * (y1 + 1) * x2
    if abs(den) < 0.05:
        return None
    x1 = 1 - (y0 ** 2 + x2 ** 2 + 1) / den
    return (y0, y1, x1, x2)


def _surface_S_D_U1(params):
    # Same surface divided by xi1^2: w0^2 + (1+w2)(x1-1)x2 + w2^2(x2^2+1).
    return _spec("S_D", "U1", (),
                 lambda p: (power(p[0], 2) + mul(mul(1 + p[1], p[2] - 1), p[3])
                            + mul(power(p[1], 2), power(p[3], 2) + 1)),
                 lambda p: mul(2, p[0]),
                 lambda p: mul(p[2] - 1, p[3]) + mul(mul(2, p[1]), power(p[3], 2) + 1),
                 lambda p: mul(1 + p[1], p[3]),
                 lambda p: mul(1 + p[1], p[2] - 1) + mul(mul(2, power(p[1], 2)), p[3]))


def _surface_S_E(params):
    def quad(p):  # y1^2 + 3 y1 x2 + 2 x2^2
        return power(p[1], 2) + mul(mul(3, p[1]), p[3]) + mul(2, power(p[3], 2))

    return _spec("S_E", "U2", (),
                 lambda p: power(p[0], 2) + mul(quad(p), p[2] - 1) + power(p[3], 3) + 1,
                 lambda p: mul(2, p[0]),
                 lambda p: mul(mul(2, p[1]) + mul(3, p[3]), p[2] - 1),
                 quad,
                 lambda p: mul(mul(3, p[1]) + mul(4, p[3]), p[2] - 1) + mul(3, power(p[3], 2)),
                 solve=_sample_S_E)


def _sample_S_E(rng, params):
    y0, y1, x2 = rand_c(rng), rand_c(rng), rand_c(rng)
    den = (y1 + x2) * (y1 + 2 * x2)
    if abs(den) < 0.05:
        return None
    x1 = 1 - (y0 ** 2 + x2 ** 3 + 1) / den
    return (y0, y1, x1, x2)


# The catalog: one builder, taking ``params``, per (name, chart).
_CATALOG = {
    ("P", "eta"): lambda params: _surface_P("eta", 2),
    ("P", "U2"): lambda params: _surface_P("U2", 4),
    ("P", "U1"): lambda params: _surface_P("U1", 4),
    ("Q", "eta"): _surface_Q_eta,
    ("Q", "U2"): _surface_Q_U2,
    ("S_A", "eta"): _surface_S_A,
    ("S_B", "eta"): _surface_S_B,
    ("S_C1", "U2"): _surface_S_C1,
    ("S_C2", "U2"): _surface_S_C2,
    ("S_D", "U2"): _surface_S_D_U2,
    ("S_D", "U1"): _surface_S_D_U1,
    ("S_E", "U2"): _surface_S_E,
}


# ----------------------------------------------------------------- sampling

def rand_c(rng: random.Random, radius: float = 1.0) -> complex:
    """One point of the square [-radius, radius]^2, real part drawn first."""
    return complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))


def _rand_c_many(rng: random.Random, count: int,
                 radius: float = 1.0) -> list[complex]:
    """``count`` successive ``rand_c(rng, radius)`` draws, bit for bit, from
    one ``getrandbits`` call that leaves ``rng`` in the same state.

    ``random()`` makes each double from two 32-bit Mersenne Twister outputs
    as ((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53, and ``uniform(a, b)`` is
    a + (b - a) * random(); ``getrandbits`` returns the same outputs in
    order, least significant word first.
    """
    words = np.frombuffer(rng.getrandbits(128 * count).to_bytes(16 * count, "little"),
                          dtype="<u4")
    u = (((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6))
         * (1.0 / 9007199254740992.0))
    return (-radius + (radius - -radius) * u).view(complex).tolist()


def sample_points(rng: random.Random, count: int, dim: int, degree: int,
                  accept: Callable[[Point], bool], extra: int = 0
                  ) -> tuple[list[Point], list[list[Point]], list[Point]]:
    """``count`` seeded points of C^dim, each drawn until ``accept`` holds,
    and after each point its frame of ``degree`` vectors and ``extra`` more
    draws: ``(points, frames, extras)``.

    The values and the final state of ``rng`` are those of drawing every
    coordinate with ``rand_c`` in that order.  The draws come in bulk, and a
    top-up only ever fills the buffer to the fewest draws the records still
    missing need, so nothing past the last accepted record is drawn.
    """
    width = degree * dim
    record = dim + width + extra
    points, frames, extras = [], [], []
    buf, pos = [], 0
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > 200 * count:
            raise PreconditionError("sampler found too few acceptable points")
        if len(buf) - pos < record:
            buf = buf[pos:] + _rand_c_many(
                rng, (count - len(points)) * record - (len(buf) - pos))
            pos = 0
        point = tuple(buf[pos:pos + dim])
        pos += dim
        if accept(point):
            points.append(point)
            vectors = iter(buf[pos:pos + width])
            frames.append(list(zip(*[vectors] * dim)))
            pos += width
            extras.append(tuple(buf[pos:pos + extra]))
            pos += extra
    return points, frames, extras


def check_count(count: int) -> None:
    """Reject a sample count outside 1..:data:`MAX_SAMPLE_COUNT`."""
    if not 1 <= count <= MAX_SAMPLE_COUNT:
        raise InputError(f"count must be in 1..{MAX_SAMPLE_COUNT}, got {count}")


def sample_on_surface(spec: SurfaceSpec, seed: int, count: int) -> list[Point]:
    """Deterministic on-surface points, one coordinate solved in closed form.

    Random draws that land near a solve singularity are resampled, so the
    returned points always satisfy |value| < 1e-12 * (1 + |point|).  Each
    round draws as many candidates as points are still missing and checks
    them in one batch, so the draws are those of checking each in turn.
    """
    check_count(count)
    if spec.solve is None:
        raise InputError(
            f"no closed-form sampler for {spec.name} in chart {spec.chart}")
    rng = random.Random(seed)
    points: list[Point] = []
    budget = 200 * count
    while len(points) < count:
        if not budget:
            raise PreconditionError("sampler failed to avoid singularities")
        drawn = min(count - len(points), budget)
        budget -= drawn
        batch = [q for q in (spec.solve(rng, spec.params) for _ in range(drawn))
                 if q is not None]
        cols = tuple(np.asarray(batch, dtype=complex).reshape(-1, spec.dim).T)
        with np.errstate(all="ignore"):
            size = modulus(spec.value(cols))
            tol = 1e-12 * (1.0 + modulus(cols).max(axis=0))
        points += [q for q, off in zip(batch, (size >= tol).tolist()) if not off]
    return points


def _roots(coeffs) -> list[complex]:
    arr = np.roots(np.array(coeffs, dtype=complex))
    return sorted((complex(r) for r in arr), key=lambda c: (c.real, c.imag))


def intersection_points(example: str, which: str, seed: int) -> tuple[str, list]:
    """Closed-form samples on pairwise/triple intersections (chart points):
    ``_INTERSECTION_COUNT`` of them, or Example B's one fixed point."""
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
    attempts = 0
    while len(pts) < _INTERSECTION_COUNT:
        attempts += 1
        if attempts > 200 * _INTERSECTION_COUNT:
            raise PreconditionError(
                f"sampler failed to find points on {which} of Example {example}")
        if which == "P_Q":
            y1, x1 = rand_c(rng), rand_c(rng)
            pts.append((0j, y1, x1, -y1 * x1))
        elif which == "P_S":
            pts.extend(_p_cap_s(example, rng))
        elif which == "Q_S":
            pts.extend(_q_cap_s(example, rng))
        elif which == "P_Q_S":
            pts.extend(_p_q_s(example, rng))
        else:
            raise InputError(which)
    return "U2", pts[:_INTERSECTION_COUNT]


def _p_cap_s(example, rng):
    y1 = rand_c(rng)
    if example == "C1":
        x1 = rand_c(rng)
        return [(0j, y1, x1, 2 - y1 ** 3 * (x1 - 1))]
    if example == "C2":
        x1 = rand_c(rng)
        return [(0j, y1, x1, 2 - y1 ** 3 * (x1 - 1) - 2 * y1 ** 2)]
    if example == "D":
        x2 = rand_c(rng)
        den = y1 * (y1 + 1) * x2
        if abs(den) < 0.1:
            return []
        return [(0j, y1, 1 - (x2 ** 2 + 1) / den, x2)]
    if example == "E":
        x2 = rand_c(rng)
        den = (y1 + x2) * (y1 + 2 * x2)
        if abs(den) < 0.1:
            return []
        return [(0j, y1, 1 - (x2 ** 3 + 1) / den, x2)]
    raise InputError(example)


def _q_cap_s(example, rng):
    if example in ("C1", "C2"):
        y0, y1 = rand_c(rng), rand_c(rng)
        den = y1 ** 3 - y1
        if abs(den) < 0.1:
            return []
        extra = 2 * y1 ** 2 if example == "C2" else 0j
        # substitute x2 = -y0 - y1 x1 into the chart equation and solve for x1
        x1 = (y1 ** 3 + y0 + 2 - y0 ** 3 - extra) / den
        x2 = -y0 - y1 * x1
        return [(y0, y1, x1, x2)]
    if example == "D":
        y1, x2 = rand_c(rng), rand_c(rng)
        if abs(y1) < 0.3:
            return []
        # (y1 x1 + x2)^2 + y1(y1+1)(x1-1)x2 + x2^2 + 1 = 0, quadratic in x1
        a = y1 ** 2
        b = 2 * y1 * x2 + y1 * (y1 + 1) * x2
        c = x2 ** 2 - y1 * (y1 + 1) * x2 + x2 ** 2 + 1
        return [(-(y1 * x1 + x2), y1, x1, x2) for x1 in _roots([a, b, c])]
    if example == "E":
        y1, x2 = rand_c(rng), rand_c(rng)
        if abs(y1) < 0.3:
            return []
        quad = (y1 + x2) * (y1 + 2 * x2)
        a = y1 ** 2
        b = 2 * y1 * x2 + quad
        c = x2 ** 2 - quad + x2 ** 3 + 1
        return [(-(y1 * x1 + x2), y1, x1, x2) for x1 in _roots([a, b, c])]
    raise InputError(example)


def _p_q_s(example, rng):
    y1 = rand_c(rng)
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


# ----------------------------------------------------------- transversality

def transversality_margin(specs: Sequence[SurfaceSpec], points) -> float:
    """Smallest singular value of the stacked gradients over common points.

    A strictly positive margin certifies general position at every point;
    each point must lie on every surface (within 1e-9 relative), and the
    first that does not is named.  Surfaces take each point's own numbers (on
    a handful of points, cheaper than columns); one SVD takes all the points.
    """
    if not specs:
        raise InputError("need at least one surface")
    chart = specs[0].chart
    if any(s.chart != chart for s in specs):
        raise InputError("all surfaces must share one chart")
    points = [tuple(complex(c) for c in p) for p in points]
    if not points:
        raise InputError("need at least one point")
    if any(len(p) != specs[0].dim for p in points):
        raise DimensionMismatchError("point dimension does not match the chart")
    rows = []
    for k, p in enumerate(points):
        bound = 1e-9 * (1.0 + max(abs(c) for c in p))
        for s in specs:
            if (size := abs(s.value(p))) > bound:
                raise PreconditionError(
                    f"point {k} {p} is not on {s.name} (|value| = {size:.3e})")
        rows.append([[g(p) for g in s.gradient] for s in specs])
    return float(np.linalg.svd(np.array(rows, dtype=complex), compute_uv=False)[:, -1].min())
