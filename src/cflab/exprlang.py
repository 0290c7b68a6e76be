"""Tiny expression language for holomorphic test functions.

Grammar: complex literals (``a+bi`` with ``i`` a keyword token, no
juxtaposition multiplication), variables ``x1 .. xn`` (``x`` allowed as an
alias for ``x1`` when n = 1), operators ``+ - * /``, integer ``^``
(right-associative, binding tighter than unary minus), ``exp(...)`` and
parentheses.  Expressions are parsed to immutable trees that support exact
symbolic differentiation.  A tree is at most :data:`MAX_EXPR_DEPTH` levels
deep and has at most :data:`MAX_EXPR_NODES` nodes, checked while parsing.
"""

from __future__ import annotations

import cmath
import re
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

from .errors import InputError, PoleError

MAX_EXPR_DEPTH = 100  # nesting of the text and depth of the tree
MAX_EXPR_NODES = 1000  # nodes of one parsed tree


# ----------------------------------------------------------------- AST

class _Node:
    """Common base of the expression nodes.

    ``_operand`` (the tree compiled by :func:`_operand_of`) and ``_fn`` (its
    closure) are worked out on first use and cached on the node, not as
    dataclass fields, so equality, hashing and ``repr`` see only the tree.
    """

    @cached_property
    def _fn(self):
        return _closure(*_operand_of(self))

    @property
    def constant(self) -> bool:
        """True when the tree has no :class:`Var`: it is the same everywhere."""
        return _operand_of(self)[0] in (_CONST, _RAISES)

    def __getstate__(self):
        # Closures do not pickle; an unpickled tree compiles again.
        return {k: v for k, v in vars(self).items() if k not in ("_operand", "_fn")}


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
            raise InputError(f"unexpected character {text[pos]!r} at offset {pos}")
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


# ----------------------------------------------------------------- parser

_BINARY_OPS = {"+": Add, "-": Sub, "*": Mul, "/": Div}


class _Parser:
    def __init__(self, text: str, n: int):
        if n < 1:
            raise InputError("variable count n must be >= 1")
        self.tokens = _tokenize(text)
        self.n = n
        self.pos = 0
        self.depth = 0

    def nested(self, parse):
        """One nested parse (parenthesis, call, sign or exponent), bounded
        well before Python's recursion limit."""
        self.depth += 1
        if self.depth > MAX_EXPR_DEPTH:
            raise InputError(f"expression nested deeper than {MAX_EXPR_DEPTH} "
                             f"levels at offset {self.peek()[2]}")
        expr = parse()
        self.depth -= 1
        return expr

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, where = self.peek()
        if kind != "op" or val != op:
            raise InputError(f"expected {op!r} at offset {where}")
        return self.advance()

    def parse(self) -> HolomorphicExpr:
        expr = self.sum_()
        kind, val, where = self.peek()
        if kind != "eof":
            raise InputError(f"unexpected token {val!r} at offset {where}")
        return expr

    def sum_(self) -> HolomorphicExpr:
        return self.chain(self.term, "+-")

    def term(self) -> HolomorphicExpr:
        return self.chain(self.unary, "*/")

    def chain(self, operand, ops: str) -> HolomorphicExpr:
        """``operand``s joined by the binary operators ``ops``, to the left."""
        expr = operand()
        kind, val, _ = self.peek()
        while kind == "op" and val in ops:
            self.advance()
            expr = _BINARY_OPS[val](expr, operand())
            kind, val, _ = self.peek()
        return expr

    def unary(self) -> HolomorphicExpr:
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.advance()
            inner = self.nested(self.unary)
            return Neg(inner) if val == "-" else inner
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
            raise InputError(f"exponent must be an integer at offset {where}")
        self.advance()
        k = int(val)
        if k > sys.float_info.max:  # differentiation takes k as a complex
            raise InputError(f"exponent too large at offset {where}")
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            inner = self.nested(self.exponent)
            # k >= 2 and inner > 30 is above 10 ** 9: reject before k ** inner
            if inner < 0 or (k >= 2 and inner > 30) or k ** inner > 10 ** 9:
                raise InputError(f"exponent tower too large at offset {self.peek()[2]}")
            k = k ** inner
        return sign * k

    def atom(self) -> HolomorphicExpr:
        kind, val, where = self.advance()
        if kind == "op" and val == "(":
            inner = self.nested(self.sum_)
            self.expect_op(")")
            return inner
        if kind == "num":
            if val.endswith("i"):  # the pattern puts a digit before the i
                return Num(complex(0.0, float(val[:-1])))
            return Num(complex(float(val), 0.0))
        if kind == "name":
            if val == "i":
                return Num(1j)
            if val == "exp":
                self.expect_op("(")
                inner = self.nested(self.sum_)
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
            raise InputError(f"unknown identifier {val!r} at offset {where}")
        raise InputError(f"expected an operand at offset {where}")


def parse_expr(text: str, n: int = 1) -> HolomorphicExpr:
    """Parse ``text`` as a holomorphic expression in n complex variables.

    Text nested deeper than :data:`MAX_EXPR_DEPTH` levels, or a tree deeper
    than that or with more than :data:`MAX_EXPR_NODES` nodes (a long sum
    parses to a deep chain), raises :class:`InputError`.
    """
    parser = _Parser(text, n)
    expr = parser.parse()
    if len(parser.tokens) <= MAX_EXPR_DEPTH + 1:
        return expr  # one node per token at most ("eof" aside): within both bounds
    nodes, stack = 0, [(expr, 1)]
    while stack:  # iterative: the tree may be too deep to recurse into
        node, depth = stack.pop()
        nodes += 1
        if depth > MAX_EXPR_DEPTH:
            raise InputError(f"expression tree deeper than {MAX_EXPR_DEPTH} levels")
        if nodes > MAX_EXPR_NODES:
            raise InputError(f"expression has more than {MAX_EXPR_NODES} nodes")
        cls = type(node)
        if cls is Add or cls is Sub or cls is Mul or cls is Div:
            stack += (node.left, depth + 1), (node.right, depth + 1)
        elif cls is Neg or cls is Exp or cls is Pow:
            stack.append((node.base if cls is Pow else node.arg, depth + 1))
    return expr


# ----------------------------------------------------------------- eval

def eval_expr(expr: HolomorphicExpr, point: Sequence[complex]) -> complex:
    """Evaluate the expression at a point of C^n.

    Values and errors are those at the ``complex()`` of every coordinate,
    but a coordinate is converted only where the tree reads it (a Python
    complex costs a type check), so one the tree never reads is not.  The
    compiled closures only compute; their errors are made here.  A
    coordinate the point lacks raises :class:`InputError` naming the first
    one read (the closure runs again on a :class:`_Reading` of the point).
    Division by an exact zero, and a result beyond the floats (Python's
    ``OverflowError``, ``ValueError`` from ``exp`` of an infinite argument,
    ``ZeroDivisionError`` from a negative power that underflows), raise
    :class:`PoleError` carrying the point as a tuple of Python complex.  Each
    node is compiled once, when a tree holding it is first evaluated.
    """
    fn = expr._fn if isinstance(expr, _Node) else _closure(*_compile(expr))
    try:
        return fn(point)
    except IndexError:
        pass
    except PoleError as exc:
        exc.point = tuple(map(complex, point))
        raise
    except (OverflowError, ValueError, ZeroDivisionError) as exc:
        raise PoleError(f"expression overflows: {exc}",
                        point=tuple(map(complex, point))) from None
    # The same reads in the same order, up to the missing one, which raises.
    return fn(_Reading(point))


class _Reading(tuple):
    """A point whose read outside its coordinates raises :class:`InputError`."""

    def __getitem__(self, index):
        if not 0 <= index < len(self):
            raise InputError(f"expression uses x{index + 1} but the point has "
                             f"{len(self)} coordinates")
        return tuple.__getitem__(self, index)


_CONST, _COORD, _FN, _RAISES = "constant", "coordinate", "closure", "raises"


def _compile(expr):
    """``expr`` as an operand ``(kind, payload)`` of the point: a number
    (``_CONST``), a coordinate index (``_COORD``, a Var) or a closure
    (``_FN``; ``_RAISES`` if it has no Var and its folding raised).  A node's
    closure is the :data:`_CLOSURES` entry for its operands' kinds, else for
    closures of its coordinates and raising constants, else of all operands:
    its arithmetic, children first (the denominator before the numerator), as
    a recursive walk does.  A node with no Var below it is folded here.  A
    non-node raises :class:`InputError` here, before any closure runs.
    """
    cls = type(expr)
    if cls is Num:
        return _CONST, expr.value
    if cls is Var:
        return _COORD, expr.index
    if cls is Neg or cls is Exp or cls is Pow:
        kind, a = _operand_of(expr.base if cls is Pow else expr.arg)
        constant = kind is _CONST or kind is _RAISES
        build = _CLOSURES.get((cls, kind))
        if build is None:
            build, a = _CLOSURES[cls, _FN], _closure(kind, a)
        fn = build(a, expr.exponent) if cls is Pow else build(a)
    elif cls is Add or cls is Sub or cls is Mul or cls is Div:
        (left, a), (right, b) = _operand_of(expr.left), _operand_of(expr.right)
        constant = left in (_CONST, _RAISES) and right in (_CONST, _RAISES)
        build = _CLOSURES.get((cls, left, right))
        if build is None:
            if left is not _CONST:
                left, a = _FN, _closure(left, a)
            if right is not _CONST:
                right, b = _FN, _closure(right, b)
            build = _CLOSURES.get((cls, left, right))
        if build is None:
            build, a, b = _CLOSURES[cls, _FN, _FN], _closure(left, a), _closure(right, b)
        fn = build(a, b)
    else:
        raise InputError(f"not an expression node: {expr!r}")
    try:
        return (_CONST, fn(())) if constant else (_FN, fn)
    except Exception:  # noqa: BLE001 - the fold's error, raised again when evaluated
        return _RAISES, fn


def _operand_of(node):
    """``node``'s operand, compiled once and kept on it as ``_operand``: a
    subtree that several trees share, as f and d(f g) do, compiles once."""
    operand = getattr(node, "_operand", None)
    if operand is None:
        operand = _compile(node)
        object.__setattr__(node, "_operand", operand)  # past the frozen __setattr__
    return operand


def _closure(kind, x):
    """The operand ``(kind, x)`` of a node as a closure of the point."""
    if kind is _CONST:
        return lambda p: x
    return _coordinate(x) if kind is _COORD else x


def _coordinate(index):
    return lambda p: x if type(x := p[index]) is complex else complex(x)


def _power(base, k):
    if k >= 0:
        return lambda p: base(p) ** k

    def negative_power(p):
        b = base(p)
        if b == 0:
            raise PoleError("negative power of zero in expression")
        return b ** k

    return negative_power


def _divide(left, right):
    def divide(p):
        den = right(p)
        if den == 0:
            raise PoleError("division by zero in expression")
        return left(p) / den

    return divide


# Closure builders by node type and operand kinds, on the operands' payloads.
# A parent reads a coordinate itself only in the pairs the benchmark's trees
# evaluate often.  Calls per round of perfbench's suite, verify_mix and
# pointwise at seed 101: x^k 262 963, 104 963, 33 600; a*x 262 145, 0, 0; c*x
# 112, 137 912, 4 800; x - c 32, 16 320, 0; c - f and f - c (generic Sub) 0.
_CLOSURES = {
    (Neg, _FN): lambda a: lambda p: -a(p),
    (Exp, _FN): lambda a, exp=cmath.exp: lambda p: exp(a(p)),
    (Pow, _FN): _power,
    (Pow, _COORD): lambda i, k: (
        _power(_coordinate(i), k) if k < 0
        else lambda p: (x if type(x := p[i]) is complex else complex(x)) ** k),
    (Add, _FN, _FN): lambda a, b: lambda p: a(p) + b(p),
    (Add, _CONST, _FN): lambda c, b: lambda p: c + b(p),
    (Add, _FN, _CONST): lambda a, c: lambda p: a(p) + c,
    (Sub, _FN, _FN): lambda a, b: lambda p: a(p) - b(p),
    (Sub, _COORD, _CONST): lambda i, c: lambda p: (
        x if type(x := p[i]) is complex else complex(x)) - c,
    (Mul, _FN, _FN): lambda a, b: lambda p: a(p) * b(p),
    (Mul, _CONST, _FN): lambda c, b: lambda p: c * b(p),
    (Mul, _FN, _CONST): lambda a, c: lambda p: a(p) * c,
    (Mul, _CONST, _COORD): lambda c, i: lambda p: c * (
        x if type(x := p[i]) is complex else complex(x)),
    (Mul, _FN, _COORD): lambda a, i: lambda p: a(p) * (
        x if type(x := p[i]) is complex else complex(x)),
    (Div, _FN, _FN): _divide,
}


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
    for one, other in ((a, b), (b, a)):
        if isinstance(one, Num) and one.value == 0:
            return Num(0j)
        if isinstance(one, Num) and one.value == 1:
            return other
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
_BINARY = {cls: (op, _LEVEL_ADD if op in "+-" else _LEVEL_MUL) for op, cls in _BINARY_OPS.items()}


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
    elif type(expr) in _BINARY:  # the right operand binds one level tighter
        op, level = _BINARY[type(expr)]
        text = f"{_render(expr.left, level)}{op}{_render(expr.right, level + 1)}"
    else:
        raise InputError(f"not an expression node: {expr!r}")
    if level < required:
        return f"({text})"
    return text


def to_str(expr: HolomorphicExpr) -> str:
    """Render the tree to text that reparses to an identically printed tree."""
    return _render(expr, _LEVEL_ADD)
