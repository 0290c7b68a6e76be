"""Shared test configuration.

The ``cflab`` hypothesis profile makes property tests reproducible: examples
are derived from each test's name (``derandomize``), no example database is
written, and no deadline applies, since a shared machine's timing varies.
The properties take it as their parent settings; ``pytest
--hypothesis-profile=cflab`` makes it the default for every test.

``scalar_sampler`` is the per-coordinate sampling loop that the bulk draws of
``geometry.sample_points`` replace.  ``pointwise`` makes a function of one
point a batch coefficient, the per-point reference that tests build forms
from.  ``seed7_report`` is one seed-7
``full_report``, computed once per session and shared by the tests that only
read it.
"""

import numpy as np
import pytest
from hypothesis import settings

from cflab.casebook import full_report
from cflab.geometry import rand_c

settings.register_profile("cflab", derandomize=True, deadline=None,
                          database=None)


def scalar_sample_points(rng, count, dim, degree, accept, extra=0):
    """``geometry.sample_points`` as a loop of one ``rand_c`` per coordinate,
    each candidate tested alone (as columns of one row), with no attempt cap:
    the reference its bulk draws must reproduce."""
    points, frames, extras = [], [], []
    while len(points) < count:
        p = [rand_c(rng) for _ in range(dim)]
        if np.all(accept(tuple(np.array([c]) for c in p))):
            points.append(p)
            frames.append([[rand_c(rng) for _ in range(dim)] for _ in range(degree)])
            extras.append([rand_c(rng) for _ in range(extra)])
    return (np.array(points, dtype=complex).reshape(count, dim),
            np.array(frames, dtype=complex).reshape(count, degree, dim),
            np.array(extras, dtype=complex).reshape(count, extra))


@pytest.fixture(scope="session")
def scalar_sampler():
    return scalar_sample_points


def pointwise_coeff(fn):
    """A coefficient that calls ``fn`` on each point (a tuple of Python complex
    numbers) of a batch's columns in row order, an error tagged with its row
    (the number of values before it), as :meth:`KForm.coefficients` expects."""
    def coeff(cols):
        values = []
        try:
            for point in zip(*[c.tolist() for c in cols]):
                values.append(fn(point))
        except Exception as exc:
            exc.row = len(values)
            raise
        return np.array(values, dtype=complex)

    return coeff


@pytest.fixture(scope="session")
def pointwise():
    return pointwise_coeff


@pytest.fixture(scope="session")
def seed7_report():
    return tuple(full_report(7))
