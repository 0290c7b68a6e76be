"""cflab: a numerical laboratory for Cauchy-Fantappie kernels and the
representation formulas built from them.

The package evaluates the kernels on homogeneous coordinates, integrates
them over explicit cycles with spectrally accurate quadrature, and verifies
a casebook of worked examples, including the obstruction integrals that
show where the residue-based path formula breaks down.
"""

__version__ = "0.1.0"

from . import casebook, cycles, exprlang, forms, geometry, kernels, report
# Every other name is imported from its module.  perfbench's tests read
# cflab.parse_expr; once they read cflab.exprlang.parse_expr, this line goes.
from .exprlang import parse_expr

__all__ = ["__version__", "casebook", "cycles", "exprlang", "forms", "geometry",
           "kernels", "report", "parse_expr"]
