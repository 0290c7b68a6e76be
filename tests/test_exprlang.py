import cmath
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cflab.errors import DimensionMismatchError, InputError, PoleError
from cflab.exprlang import (Add, Div, Exp, ExprSyntaxError, Mul, Neg, Num,
                            Pow, Sub, Var, differentiate, eval_expr,
                            parse_expr, to_str)


def test_parse_polynomial_two_vars():
    e = parse_expr("x1^2*x2+3", 2)
    assert eval_expr(e, (2, 5)) == 23
    assert eval_expr(e, (1j, 1)) == pytest.approx(3 - 1)


def test_parse_exp_call():
    e = parse_expr("exp(3*x)", 1)
    assert eval_expr(e, (0.5,)) == pytest.approx(cmath.exp(1.5))


def test_parse_incomplete_reports_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("x1+", 1)
    assert err.value.position == 3


def test_variable_out_of_range():
    with pytest.raises(InputError):
        parse_expr("x3", 2)
    with pytest.raises(InputError):
        parse_expr("x", 2)  # bare alias only for n = 1


def test_imaginary_literals():
    assert eval_expr(parse_expr("1+2i", 1), (0,)) == 1 + 2j
    assert eval_expr(parse_expr("i*i", 1), (0,)) == -1
    assert eval_expr(parse_expr("3i", 1), (0,)) == 3j


def test_power_precedence_and_unary_minus():
    # ^ binds tighter than unary minus; unary minus tighter than *.
    assert eval_expr(parse_expr("-x^2", 1), (3,)) == -9
    assert eval_expr(parse_expr("2^3^2", 1), (0,)) == 512  # right-assoc
    assert eval_expr(parse_expr("-2*x", 1), (3,)) == -6
    assert eval_expr(parse_expr("x^-1", 1), (4,)) == pytest.approx(0.25)


def test_non_integer_exponent_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expr("x^2.5", 1)
    with pytest.raises(ExprSyntaxError):
        parse_expr("x^i", 1)


def test_eval_pole_errors():
    assert eval_expr(parse_expr("exp(0)", 1), (0,)) == 1
    assert eval_expr(parse_expr("x+1", 1), (1j,)) == 1 + 1j
    with pytest.raises(PoleError):
        eval_expr(parse_expr("1/x", 1), (0,))
    with pytest.raises(PoleError):
        eval_expr(parse_expr("x^-2", 1), (0,))


def test_eval_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        eval_expr(Var(3), (1, 2))


def test_differentiate_polynomial():
    e = parse_expr("x^2+2*x", 1)
    d = differentiate(e)
    for x in (0.3, 1 + 1j, -2.5):
        assert eval_expr(d, (x,)) == pytest.approx(2 * x + 2)


def test_differentiate_exp_chain():
    d = differentiate(parse_expr("exp(3*x)", 1))
    assert eval_expr(d, (0.2,)) == pytest.approx(3 * cmath.exp(0.6))


def test_differentiate_product_rule():
    d = differentiate(parse_expr("x*exp(x)", 1))
    for x in (0.0, 0.7 - 0.2j):
        assert eval_expr(d, (x,)) == pytest.approx(cmath.exp(x) * (1 + x))


def test_differentiate_quotient_rule():
    d = differentiate(parse_expr("x/(x+1)", 1))
    x = 0.4 + 0.1j
    assert eval_expr(d, (x,)) == pytest.approx(1 / (x + 1) ** 2)


def test_differentiate_matches_finite_differences():
    rng = random.Random(11)
    exprs = ["x^3+2*x^2-x+5", "exp(x)*x^2", "(x+1)/(x^2+3)", "exp(x^2-x)",
             "(x+2)^-2"]
    h = 1e-6
    for text in exprs:
        e = parse_expr(text, 1)
        d = differentiate(e)
        for _ in range(25):
            x = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            fd = (eval_expr(e, (x + h,)) - eval_expr(e, (x - h,))) / (2 * h)
            exact = eval_expr(d, (x,))
            assert abs(fd - exact) <= 1e-7 * max(1.0, abs(exact))


def _random_tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Var(0)
        kind = rng.randrange(3)
        if kind == 0:
            return Num(complex(rng.randint(-5, 5)))
        if kind == 1:
            return Num(complex(0, rng.randint(1, 5)))
        return Num(complex(rng.randint(-3, 3), rng.randint(-3, 3)))
    op = rng.randrange(7)
    if op == 0:
        return Add(_random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if op == 1:
        return Sub(_random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if op == 2:
        return Mul(_random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if op == 3:
        return Div(_random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if op == 4:
        return Neg(_random_tree(rng, depth - 1))
    if op == 5:
        return Pow(_random_tree(rng, depth - 1), rng.randint(0, 4))
    return Exp(_random_tree(rng, depth - 1))


def test_print_parse_roundtrip_is_idempotent():
    # print-after-parse reaches a fixed point after one cycle: mixed complex
    # literals like (2-2i) legitimately reparse as a subtraction, but the
    # printed text is stable from then on.
    rng = random.Random(2024)
    for _ in range(100):
        text0 = to_str(_random_tree(rng, 4))
        text1 = to_str(parse_expr(text0, 1))
        text2 = to_str(parse_expr(text1, 1))
        assert text1 == text2


def test_print_parse_tree_roundtrip_without_mixed_literals():
    rng = random.Random(515)
    produced = 0
    while produced < 60:
        tree = _random_tree(rng, 3)
        text = to_str(tree)
        if "(" in text and "i)" in text:
            continue  # mixed literal; covered by the fixed-point test
        assert to_str(parse_expr(text, 1)) == text
        produced += 1


# ------------------------------------------- compiled evaluation, properties

def _reference_eval(expr, point):
    """A recursive walk of the tree: the arithmetic eval_expr must repeat."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        if expr.index >= len(point):
            raise DimensionMismatchError(
                f"expression uses x{expr.index + 1} but the point has "
                f"{len(point)} coordinates")
        return point[expr.index]
    if isinstance(expr, Neg):
        return -_reference_eval(expr.arg, point)
    if isinstance(expr, Add):
        return _reference_eval(expr.left, point) + _reference_eval(expr.right, point)
    if isinstance(expr, Sub):
        return _reference_eval(expr.left, point) - _reference_eval(expr.right, point)
    if isinstance(expr, Mul):
        return _reference_eval(expr.left, point) * _reference_eval(expr.right, point)
    if isinstance(expr, Div):
        den = _reference_eval(expr.right, point)
        if den == 0:
            raise PoleError("division by zero in expression", point=point)
        return _reference_eval(expr.left, point) / den
    if isinstance(expr, Pow):
        base = _reference_eval(expr.base, point)
        if base == 0 and expr.exponent < 0:
            raise PoleError("negative power of zero in expression", point=point)
        return base ** expr.exponent
    if isinstance(expr, Exp):
        return cmath.exp(_reference_eval(expr.arg, point))
    raise InputError(f"not an expression node: {expr!r}")


def _outcome(call):
    """The value's repr (signed zeros and NaN included) or the error raised."""
    try:
        return repr(call())
    except Exception as exc:  # noqa: BLE001 - every error must match
        return type(exc), str(exc), repr(getattr(exc, "point", None))


_floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, 700.0]))
_complexes = st.builds(complex, _floats, _floats)
_trees = st.recursive(
    st.one_of(st.builds(Num, _complexes), st.builds(Var, st.integers(0, 3))),
    lambda kids: st.one_of(
        st.builds(Neg, kids), st.builds(Exp, kids),
        st.builds(Pow, kids, st.integers(-3, 4)),
        st.builds(Add, kids, kids), st.builds(Sub, kids, kids),
        st.builds(Mul, kids, kids), st.builds(Div, kids, kids)),
    max_leaves=12)
_points = st.lists(st.one_of(_complexes, _floats, st.integers(-3, 3)),
                   max_size=4)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_trees, _points)
def test_compiled_eval_matches_reference_walk_and_text_roundtrips(expr, point):
    want = _outcome(lambda: _reference_eval(expr, tuple(complex(c) for c in point)))
    assert _outcome(lambda: eval_expr(expr, point)) == want
    # A second evaluation runs the cached closures.
    assert _outcome(lambda: eval_expr(expr, point)) == want
    # Printing is a fixed point after one parse (mixed literals such as
    # (1+2i) reparse as a sum), and exact when the tree has none.
    text = to_str(expr)
    text1 = to_str(parse_expr(text, 4))
    assert to_str(parse_expr(text1, 4)) == text1
    if not any(isinstance(e, Num) and e.value.real != 0 and e.value.imag != 0
               for e in _nodes(expr)):
        assert text1 == text


def _nodes(expr):
    yield expr
    for child in vars(expr).values():
        if isinstance(child, (Num, Var, Neg, Add, Sub, Mul, Div, Pow, Exp)):
            yield from _nodes(child)


def test_compiled_expressions_keep_equality_hash_and_repr():
    a, b = parse_expr("x1^2*x2+3", 2), parse_expr("x1^2*x2+3", 2)
    text_a = repr(a)
    eval_expr(a, (1, 2))
    assert a == b and hash(a) == hash(b)
    assert repr(a) == text_a == repr(b)
    assert to_str(a) == "x1^2*x2+3"
    back = pickle.loads(pickle.dumps(a))
    assert back == a and eval_expr(back, (1, 2)) == eval_expr(a, (1, 2))
