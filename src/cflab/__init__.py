"""cflab: a numerical laboratory for Cauchy-Fantappie kernels and the
representation formulas built from them.

The package evaluates the kernels on homogeneous coordinates, integrates
them over explicit cycles with spectrally accurate quadrature, and verifies
a casebook of worked examples, including the obstruction integrals that
show where the residue-based path formula breaks down.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import casebook, cycles, exprlang, forms, geometry, kernels, report
from .casebook import (CheckReport, first_formula, full_report,
                       identity_suite, fibration_check_C2,
                       necessary_condition_case, second_formula_n1,
                       third_formula_case, transversality_suite)
from .errors import CflabError, InputError, PoleError
from .exprlang import HolomorphicExpr, differentiate, eval_expr, parse_expr
from .forms import KForm, d_numeric, pullback_integrand, wedge
from .geometry import (SurfaceSpec, sample_on_surface, surface_catalog,
                       transversality_margin)
from .cycles import Cycle, integrate, orientation_sign
from .kernels import casebook_form, phi, psi

__all__ = [
    "__version__",
    "CheckReport", "CflabError", "InputError", "PoleError",
    "HolomorphicExpr", "KForm", "SurfaceSpec", "Cycle",
    "casebook_form", "d_numeric", "differentiate",
    "eval_expr", "first_formula", "fibration_check_C2",
    "full_report", "identity_suite", "integrate",
    "necessary_condition_case", "orientation_sign",
    "parse_expr", "phi", "psi",
    "pullback_integrand", "sample_on_surface",
    "second_formula_n1", "surface_catalog", "third_formula_case",
    "transversality_margin", "transversality_suite", "wedge",
]
