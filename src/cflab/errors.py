"""Exception hierarchy shared by all cflab modules."""

from __future__ import annotations


class CflabError(Exception):
    """Base class for all errors raised by this package."""


class InputError(CflabError, ValueError):
    """Malformed or out-of-contract input (unknown name, bad arity, ...)."""


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
