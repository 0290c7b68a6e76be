"""Exception hierarchy shared by all cflab modules."""

from __future__ import annotations


class CflabError(Exception):
    """Base class for all errors raised by this package."""


class InputError(CflabError, ValueError):
    """Malformed or out-of-contract input (unknown name, bad arity, ...)."""


class DimensionMismatchError(InputError):
    """Point / vector / form dimensions do not agree."""


class ChartDomainError(InputError):
    """A chart map was evaluated outside its domain (division by a vanishing
    homogeneous coordinate)."""


class PreconditionError(InputError):
    """A documented operation precondition was violated."""


class UnsupportedKindError(InputError):
    """Operation asked for on a cycle kind that does not support it."""


class PoleError(CflabError, ArithmeticError):
    """An integrand or coefficient was evaluated at a pole.

    Carries the offending point and, when raised from quadrature, the grid
    parameter that hit the pole.  :meth:`KForm.evaluate_many` also sets
    ``row``, the index of the first offending point in its batch.
    """

    def __init__(self, message: str, point=None, param=None):
        super().__init__(message)
        self.point = point
        self.param = param
        self.row = None


class ConvergenceError(CflabError, RuntimeError):
    """Quadrature refinement did not converge; carries the last two values."""

    def __init__(self, message: str, last=None, previous=None, delta=None):
        super().__init__(message)
        self.last = last
        self.previous = previous
        self.delta = delta
