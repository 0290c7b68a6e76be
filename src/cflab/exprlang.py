"""Tiny expression language for holomorphic test functions.

Grammar: complex literals (``a+bi`` with ``i`` a keyword token, no
juxtaposition multiplication), variables ``x1 .. xn`` (``x`` allowed as an
alias for ``x1`` when n = 1), operators ``+ - * /``, integer ``^``
(right-associative, binding tighter than unary minus), ``exp(...)`` and
parentheses.  Expressions are parsed to immutable trees that support exact
symbolic differentiation.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

from .errors import DimensionMismatchError, InputError, PoleError


# ----------------------------------------------------------------- AST

class _Node:
    """Common base of the expression nodes.

    ``_fn`` is the tree compiled to nested closures, built on first use and
    cached on the node; it is not a dataclass field, so equality, hashing
    and ``repr`` see only the tree.
    """

    @cached_property
    def _fn(self):
        return _compile(self)

    def __getstate__(self):
        # Closures do not pickle; an unpickled tree compiles again.
        return {k: v for k, v in vars(self).items() if k != "_fn"}


@dataclass(frozen=True)
class Num(_Node):
    value: complex


@dataclass(frozen=True)
class Var(_Node):
    index: int  # 0-based


@dataclass(frozen=True)
class Neg(_Node):
    arg: "HolomorphicExpr"


@dataclass(frozen=True)
class Add(_Node):
    left: "HolomorphicExpr"
    right: "HolomorphicExpr"


@dataclass(frozen=True)
class Sub(_Node):
    left: "HolomorphicExpr"
    right: "HolomorphicExpr"


@dataclass(frozen=True)
class Mul(_Node):
    left: "HolomorphicExpr"
    right: "HolomorphicExpr"


@dataclass(frozen=True)
class Div(_Node):
    left: "HolomorphicExpr"
    right: "HolomorphicExpr"


@dataclass(frozen=True)
class Pow(_Node):
    base: "HolomorphicExpr"
    exponent: int


@dataclass(frozen=True)
class Exp(_Node):
    arg: "HolomorphicExpr"


HolomorphicExpr = Union[Num, Var, Neg, Add, Sub, Mul, Div, Pow, Exp]

ONE = Num(1 + 0j)


class ExprSyntaxError(InputError):
    """Parse failure; ``position`` is the 0-based offset in the input text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


# ----------------------------------------------------------------- lexer

_TOKEN_RE = re.compile(
    r"""(?P<num>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?i?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^()])
      | (?P<ws>\s+)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


# ----------------------------------------------------------------- parser

class _Parser:
    def __init__(self, text: str, n: int):
        if n < 1:
            raise InputError("variable count n must be >= 1")
        self.tokens = _tokenize(text)
        self.n = n
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, where = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", where)
        return self.advance()

    def parse(self) -> HolomorphicExpr:
        expr = self.sum_()
        kind, val, where = self.peek()
        if kind != "eof":
            raise ExprSyntaxError(f"unexpected token {val!r}", where)
        return expr

    def sum_(self) -> HolomorphicExpr:
        expr = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                expr = Add(expr, rhs) if val == "+" else Sub(expr, rhs)
            else:
                return expr

    def term(self) -> HolomorphicExpr:
        expr = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.unary()
                expr = Mul(expr, rhs) if val == "*" else Div(expr, rhs)
            else:
                return expr

    def unary(self) -> HolomorphicExpr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.unary())
        if kind == "op" and val == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self) -> HolomorphicExpr:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            return Pow(base, self.exponent())
        return base

    def exponent(self) -> int:
        # Exponents are integer literals, optionally signed; a further '^'
        # associates to the right and is folded into one integer.
        sign = 1
        kind, val, where = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            sign = -1
            kind, val, where = self.peek()
        if kind != "num" or val.endswith("i") or ("." in val) or ("e" in val) or ("E" in val):
            raise ExprSyntaxError("exponent must be an integer", where)
        self.advance()
        k = int(val)
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            inner = self.exponent()
            if inner < 0 or k ** inner > 10 ** 9:
                raise ExprSyntaxError("exponent tower too large", self.peek()[2])
            k = k ** inner
        return sign * k

    def atom(self) -> HolomorphicExpr:
        kind, val, where = self.advance()
        if kind == "op" and val == "(":
            inner = self.sum_()
            self.expect_op(")")
            return inner
        if kind == "num":
            if val.endswith("i"):
                body = val[:-1]
                return Num(complex(0.0, float(body) if body else 1.0))
            return Num(complex(float(val), 0.0))
        if kind == "name":
            if val == "i":
                return Num(1j)
            if val == "exp":
                self.expect_op("(")
                inner = self.sum_()
                self.expect_op(")")
                return Exp(inner)
            if val == "x" and self.n == 1:
                return Var(0)
            m = re.fullmatch(r"x(\d+)", val)
            if m:
                idx = int(m.group(1))
                if not 1 <= idx <= self.n:
                    raise InputError(
                        f"variable {val} out of range for n={self.n}")
                return Var(idx - 1)
            raise ExprSyntaxError(f"unknown identifier {val!r}", where)
        raise ExprSyntaxError("expected an operand", where)


def parse_expr(text: str, n: int = 1) -> HolomorphicExpr:
    """Parse ``text`` as a holomorphic expression in n complex variables."""
    return _Parser(text, n).parse()


# ----------------------------------------------------------------- eval

def eval_expr(expr: HolomorphicExpr, point: Sequence[complex]) -> complex:
    """Evaluate the expression at a point of C^n.

    Division by an exact zero raises :class:`PoleError` carrying the point.
    The tree is compiled once, on its first evaluation.
    """
    point = tuple(map(complex, point))
    fn = expr._fn if isinstance(expr, _Node) else _compile(expr)
    try:
        return fn(point)
    except IndexError:
        # Only a variable beyond the point's width indexes out of range; the
        # first such variable in evaluation order is the one that raised.
        index = next(i for i in _var_order(expr) if i >= len(point))
        raise DimensionMismatchError(
            f"expression uses x{index + 1} but the point has "
            f"{len(point)} coordinates") from None


def _var_order(expr):
    """Variable indices in the order evaluation reaches them."""
    if isinstance(expr, Var):
        yield expr.index
    elif isinstance(expr, (Neg, Exp)):
        yield from _var_order(expr.arg)
    elif isinstance(expr, Pow):
        yield from _var_order(expr.base)
    elif isinstance(expr, Div):
        yield from _var_order(expr.right)
        yield from _var_order(expr.left)
    elif isinstance(expr, (Add, Sub, Mul)):
        yield from _var_order(expr.left)
        yield from _var_order(expr.right)


def _compile(expr):
    """``expr`` as nested closures of a tuple of complex coordinates.

    Each closure does the arithmetic of one node, children first (the
    denominator before the numerator), so values and errors are those of a
    recursive walk of the tree.
    """
    if isinstance(expr, Num):
        value = expr.value
        return lambda p: value
    if isinstance(expr, Var):
        index = expr.index
        return lambda p: p[index]
    if isinstance(expr, Neg):
        arg = _compile(expr.arg)
        return lambda p: -arg(p)
    if isinstance(expr, Exp):
        arg, exp = _compile(expr.arg), cmath.exp
        return lambda p: exp(arg(p))
    if isinstance(expr, Pow):
        base, k = _compile(expr.base), expr.exponent
        if k >= 0:
            return lambda p: base(p) ** k

        def negative_power(p):
            b = base(p)
            if b == 0:
                raise PoleError("negative power of zero in expression", point=p)
            return b ** k

        return negative_power
    if isinstance(expr, (Add, Sub, Mul, Div)):
        left, right = _compile(expr.left), _compile(expr.right)
        if isinstance(expr, Add):
            return lambda p: left(p) + right(p)
        if isinstance(expr, Sub):
            return lambda p: left(p) - right(p)
        if isinstance(expr, Mul):
            return lambda p: left(p) * right(p)

        def divide(p):
            den = right(p)
            if den == 0:
                raise PoleError("division by zero in expression", point=p)
            return left(p) / den

        return divide

    def not_a_node(p):
        raise InputError(f"not an expression node: {expr!r}")

    return not_a_node


# ----------------------------------------------------------- differentiation

def _mk_add(a, b):
    if isinstance(a, Num) and a.value == 0:
        return b
    if isinstance(b, Num) and b.value == 0:
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    return Add(a, b)


def _mk_mul(a, b):
    if isinstance(a, Num):
        if a.value == 0:
            return Num(0j)
        if a.value == 1:
            return b
    if isinstance(b, Num):
        if b.value == 0:
            return Num(0j)
        if b.value == 1:
            return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    return Mul(a, b)


def _mk_pow(base, k: int):
    if k == 0:
        return ONE
    if k == 1:
        return base
    return Pow(base, k)


def differentiate(expr: HolomorphicExpr, var: int = 0) -> HolomorphicExpr:
    """Exact symbolic derivative with respect to the 0-based variable index."""
    if isinstance(expr, Num):
        return Num(0j)
    if isinstance(expr, Var):
        return ONE if expr.index == var else Num(0j)
    if isinstance(expr, Neg):
        return Neg(differentiate(expr.arg, var))
    if isinstance(expr, Add):
        return _mk_add(differentiate(expr.left, var), differentiate(expr.right, var))
    if isinstance(expr, Sub):
        da, db = differentiate(expr.left, var), differentiate(expr.right, var)
        if isinstance(db, Num) and db.value == 0:
            return da
        return Sub(da, db)
    if isinstance(expr, Mul):
        return _mk_add(
            _mk_mul(differentiate(expr.left, var), expr.right),
            _mk_mul(expr.left, differentiate(expr.right, var)),
        )
    if isinstance(expr, Div):
        num = Sub(
            _mk_mul(differentiate(expr.left, var), expr.right),
            _mk_mul(expr.left, differentiate(expr.right, var)),
        )
        return Div(num, _mk_pow(expr.right, 2))
    if isinstance(expr, Pow):
        k = expr.exponent
        if k == 0:
            return Num(0j)
        return _mk_mul(
            _mk_mul(Num(complex(k)), _mk_pow(expr.base, k - 1)),
            differentiate(expr.base, var),
        )
    if isinstance(expr, Exp):
        return _mk_mul(expr, differentiate(expr.arg, var))
    raise InputError(f"not an expression node: {expr!r}")


# ----------------------------------------------------------------- printer

_LEVEL_ADD = 1
_LEVEL_MUL = 2
_LEVEL_UNARY = 3
_LEVEL_POW = 4
_LEVEL_ATOM = 5


def _fmt_float(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _num_text_level(value: complex) -> tuple[str, int]:
    re_, im = value.real, value.imag
    if im == 0:
        text = _fmt_float(re_)
        return text, (_LEVEL_UNARY if re_ < 0 else _LEVEL_ATOM)
    if re_ == 0:
        text = _fmt_float(im) + "i"
        return text, (_LEVEL_UNARY if im < 0 else _LEVEL_ATOM)
    sign = "+" if im > 0 else "-"
    return f"({_fmt_float(re_)}{sign}{_fmt_float(abs(im))}i)", _LEVEL_ATOM


def _render(expr, required: int) -> str:
    if isinstance(expr, Num):
        text, level = _num_text_level(expr.value)
    elif isinstance(expr, Var):
        text, level = f"x{expr.index + 1}", _LEVEL_ATOM
    elif isinstance(expr, Exp):
        text, level = f"exp({_render(expr.arg, _LEVEL_ADD)})", _LEVEL_ATOM
    elif isinstance(expr, Neg):
        text, level = "-" + _render(expr.arg, _LEVEL_POW), _LEVEL_UNARY
    elif isinstance(expr, Pow):
        text = f"{_render(expr.base, _LEVEL_ATOM)}^{expr.exponent}"
        level = _LEVEL_POW
    elif isinstance(expr, Mul):
        text = f"{_render(expr.left, _LEVEL_MUL)}*{_render(expr.right, _LEVEL_UNARY)}"
        level = _LEVEL_MUL
    elif isinstance(expr, Div):
        text = f"{_render(expr.left, _LEVEL_MUL)}/{_render(expr.right, _LEVEL_UNARY)}"
        level = _LEVEL_MUL
    elif isinstance(expr, Add):
        text = f"{_render(expr.left, _LEVEL_ADD)}+{_render(expr.right, _LEVEL_MUL)}"
        level = _LEVEL_ADD
    elif isinstance(expr, Sub):
        text = f"{_render(expr.left, _LEVEL_ADD)}-{_render(expr.right, _LEVEL_MUL)}"
        level = _LEVEL_ADD
    else:
        raise InputError(f"not an expression node: {expr!r}")
    if level < required:
        return f"({text})"
    return text


def to_str(expr: HolomorphicExpr) -> str:
    """Render the tree to text that reparses to an identically printed tree."""
    return _render(expr, _LEVEL_ADD)
