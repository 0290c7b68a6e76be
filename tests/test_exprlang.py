import cmath
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cflab import exprlang
from cflab.errors import InputError, PoleError
from cflab.exprlang import (MAX_EXPR_DEPTH, MAX_EXPR_NODES, Add, Div, Exp,
                            Mul, Neg, Num, Pow, Sub, Var,
                            differentiate, eval_expr, parse_expr, to_str)


def test_parse_polynomial_two_vars():
    e = parse_expr("x1^2*x2+3", 2)
    assert eval_expr(e, (2, 5)) == 23
    assert eval_expr(e, (1j, 1)) == pytest.approx(3 - 1)


def test_parse_exp_call():
    e = parse_expr("exp(3*x)", 1)
    assert eval_expr(e, (0.5,)) == pytest.approx(cmath.exp(1.5))


def test_parse_incomplete_reports_offset():
    with pytest.raises(InputError, match="at offset 3$"):
        parse_expr("x1+", 1)


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


def test_no_variables_and_a_non_node_are_rejected():
    with pytest.raises(InputError, match="variable count n must be >= 1"):
        parse_expr("x", 0)
    for function in (differentiate, to_str):
        with pytest.raises(InputError, match="^not an expression node: 1$"):
            function(Add(Num(1j), 1))


def test_non_integer_exponent_rejected():
    with pytest.raises(InputError):
        parse_expr("x^2.5", 1)
    with pytest.raises(InputError):
        parse_expr("x^i", 1)


def test_eval_pole_errors():
    assert eval_expr(parse_expr("exp(0)", 1), (0,)) == 1
    assert eval_expr(parse_expr("x+1", 1), (1j,)) == 1 + 1j
    with pytest.raises(PoleError):
        eval_expr(parse_expr("1/x", 1), (0,))
    with pytest.raises(PoleError):
        eval_expr(parse_expr("x^-2", 1), (0,))


def test_eval_dimension_mismatch():
    with pytest.raises(InputError):
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
            raise InputError(
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


def _reference(expr, point):
    """The reference walk with eval_expr's mapping of a result beyond the
    floats onto PoleError."""
    try:
        return _reference_eval(expr, point)
    except (OverflowError, ValueError, ZeroDivisionError) as exc:
        if isinstance(exc, InputError):
            raise
        raise PoleError(f"expression overflows: {exc}", point=point) from None


def _outcome(call):
    """The value's repr (signed zeros and NaN included) or the error raised."""
    try:
        return repr(call())
    except Exception as exc:  # noqa: BLE001 - every error must match
        return type(exc), str(exc), repr(getattr(exc, "point", None))


_floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, 700.0]))
_complexes = st.builds(complex, _floats, _floats)


def _operators(kids):
    """A node of each kind over subtrees drawn from ``kids``."""
    return st.one_of(
        st.builds(Neg, kids), st.builds(Exp, kids),
        st.builds(Pow, kids, st.integers(-3, 4)),
        st.builds(Add, kids, kids), st.builds(Sub, kids, kids),
        st.builds(Mul, kids, kids), st.builds(Div, kids, kids))


_trees = st.recursive(
    st.one_of(st.builds(Num, _complexes), st.builds(Var, st.integers(0, 3))),
    _operators, max_leaves=12)
_points = st.lists(st.one_of(_complexes, _floats, st.integers(-3, 3),
                             _floats.map(np.float64), _complexes.map(np.complex128)),
                   max_size=4)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_trees, _points)
def test_compiled_eval_matches_reference_walk_and_text_roundtrips(expr, point):
    want = _outcome(lambda: _reference(expr, tuple(complex(c) for c in point)))
    assert _outcome(lambda: eval_expr(expr, point)) == want
    # A second evaluation runs the cached closures.
    assert _outcome(lambda: eval_expr(expr, point)) == want
    # Printing is a fixed point after one parse (mixed literals such as
    # (1+2i) reparse as a sum), and exact when the tree has none.
    text = to_str(expr)
    # parse_expr walks no tree of fewer tokens than MAX_EXPR_DEPTH + 1: each
    # node takes a token of its own.
    assert len(list(_nodes(parse_expr(text, 4)))) < len(exprlang._tokenize(text))
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


# --------------------------------------------------- size bounds, overflow

def _balanced_sum(levels):
    """2**levels copies of x summed as a balanced tree: 2**(levels+1) - 1
    nodes, levels + 1 deep."""
    if levels == 0:
        return "x"
    half = _balanced_sum(levels - 1)
    return f"({half}+{half})"


@pytest.mark.parametrize("text", [
    "(" * 200 + "x" + ")" * 200,
    "-" * 200 + "x",
    "exp(" * 200 + "x" + ")" * 200,
    "2" + "^1" * 200,
    "+".join(["x"] * 5001),
    "*".join(["x"] * (MAX_EXPR_DEPTH + 1)),
    _balanced_sum(9),
], ids=["parens", "signs", "exp", "tower", "long_sum", "long_product",
        "many_nodes"])
def test_oversized_expressions_raise_input_error(text):
    with pytest.raises(InputError):
        parse_expr(text, 1)


def test_expressions_at_the_size_bounds_parse():
    depth = MAX_EXPR_DEPTH - 1
    assert eval_expr(parse_expr("(" * depth + "x" + ")" * depth, 1), (2,)) == 2
    chain = parse_expr("+".join(["x"] * (MAX_EXPR_DEPTH - 1)), 1)
    assert eval_expr(chain, (1,)) == MAX_EXPR_DEPTH - 1
    assert 2 ** 9 - 1 <= MAX_EXPR_NODES < 2 ** 10 - 1
    assert eval_expr(parse_expr(_balanced_sum(8), 1), (1,)) == 256


def _depth(expr):
    children = [c for c in vars(expr).values() if isinstance(c, exprlang._Node)]
    return 1 + max(map(_depth, children), default=0)


def _tree_of(nodes):
    """Text of a tree of exactly ``nodes`` nodes (sums, signs and x), about
    2 log2(nodes) deep."""
    if nodes <= 2:
        return "-x" if nodes == 2 else "x"
    left = (nodes - 1) // 2
    return f"({_tree_of(left)}+{_tree_of(nodes - 1 - left)})"


# Each node type as a wrapper of the text t, with the nodes it adds.  Every
# wrapper nests the text one level, so a chain of MAX_EXPR_DEPTH of them
# stays within the parser's nesting bound and only the tree walk sees it.
_WRAPPERS = {
    "Neg": (lambda t: f"-{t}", 1), "Exp": (lambda t: f"exp({t})", 1),
    "Pow": (lambda t: f"({t})^2", 1), "Add": (lambda t: f"({t})+x", 2),
    "Sub": (lambda t: f"({t})-x", 2), "Mul": (lambda t: f"({t})*x", 2),
    "Div": (lambda t: f"({t})/x", 2),
}


@pytest.mark.parametrize("node_type", _WRAPPERS)
def test_size_bounds_hold_below_every_node_type(node_type):
    wrap, added = _WRAPPERS[node_type]
    chain = "x"
    for _ in range(MAX_EXPR_DEPTH - 1):
        chain = wrap(chain)
    expr = parse_expr(chain, 1)
    assert type(expr).__name__ == node_type and _depth(expr) == MAX_EXPR_DEPTH
    with pytest.raises(InputError, match=f"tree deeper than {MAX_EXPR_DEPTH} levels"):
        parse_expr(wrap(chain), 1)
    # The nodes past the bound all sit below the node_type root.
    expr = parse_expr(wrap(_tree_of(MAX_EXPR_NODES - added)), 1)
    assert type(expr).__name__ == node_type and len(list(_nodes(expr))) == MAX_EXPR_NODES
    with pytest.raises(InputError, match=f"more than {MAX_EXPR_NODES} nodes"):
        parse_expr(wrap(_tree_of(MAX_EXPR_NODES - added + 1)), 1)


@pytest.mark.parametrize("text, point", [
    ("x^99999999999999999999", (2,)),
    ("exp(exp(exp(exp(x))))*1e308", (1,)),
    ("exp(x*1e308*1e308i)", (1,)),
    ("x^-3", (1e-300j,)),
])
def test_overflow_becomes_a_pole_error_with_the_point(text, point):
    with pytest.raises(PoleError, match="overflows") as err:
        eval_expr(parse_expr(text, 1), point)
    assert err.value.point == tuple(complex(c) for c in point)


# ------------------------------------------- coordinates converted on read

@pytest.mark.parametrize("coords", [
    (2, -3), (0.5, -0.0), (np.float64(0.1), np.float64(-2.5)),
    (np.complex128(0.3 - 0.7j), np.complex128(-0.0 + 1e-300j)),
    (1, np.complex128(2 + 1j)),
], ids=["int", "float", "float64", "complex128", "mixed"])
@pytest.mark.parametrize("text", ["x1*x2/(x1-3)+exp(x2)^3", "x1^-2*x2^5",
                                  "(x1+x2*i)/x2-x1*x1*x1", "4i"])
def test_eval_at_numeric_coordinates_equals_eval_at_their_complex(text, coords):
    expr = parse_expr(text, 2)
    want = _outcome(lambda: eval_expr(expr, tuple(complex(c) for c in coords)))
    assert _outcome(lambda: eval_expr(expr, coords)) == want
    assert _outcome(lambda: eval_expr(expr, np.array(coords))) == want


@pytest.mark.parametrize("text, point", [
    ("1/x2", (1, 0)),
    ("x1^-1", (np.float64(0.0), 5)),
    ("1/(x1-x2)", (np.complex128(1j), 1j)),
    ("x1^99999999999999999999", (np.float64(2.0), 0)),
])
def test_poles_and_overflows_carry_a_point_of_python_complex(text, point):
    with pytest.raises(PoleError) as err:
        eval_expr(parse_expr(text, 2), point)
    assert err.value.point == tuple(complex(c) for c in point)
    assert [type(c) for c in err.value.point] == [complex, complex]


def test_unread_coordinates_are_not_converted():
    # Only the coordinates the tree reads are converted on success; an error
    # path converts the whole point, as the point it carries needs.
    assert eval_expr(parse_expr("x1+1", 2), (1, "not a number")) == 2
    assert eval_expr(parse_expr("7", 2), (None, None)) == 7
    with pytest.raises(TypeError):
        eval_expr(parse_expr("x2", 2), (1, None))
    with pytest.raises(ValueError, match="malformed"):
        eval_expr(parse_expr("1/x1", 2), (0, "not a number"))


def test_exponent_beyond_the_floats_is_a_syntax_error():
    with pytest.raises(InputError):
        parse_expr("x^1" + "0" * 400, 1)


@pytest.mark.parametrize("text, offset", [
    ("2^3^40", 6),  # 3^40 is above 10^9, as before the bound on the top
    ("x^-3^99999999999999999999", 25),  # the top alone would not fit in memory
    ("x^2^30", 6),  # 2^30 and 3^19 are the first powers of 2 and 3 above 10^9
    ("x^3^19", 6),
])
def test_an_exponent_tower_above_ten_to_the_ninth_is_rejected(text, offset):
    with pytest.raises(InputError) as err:
        parse_expr(text, 1)
    assert str(err.value) == f"exponent tower too large at offset {offset}"
    assert parse_expr("x^1^99999999999999999999", 1) == Pow(Var(0), 1)


def test_an_exponent_tower_of_ten_to_the_ninth_parses():
    assert parse_expr("x^10^9", 1) == Pow(Var(0), 10 ** 9)


def test_constant_is_whether_the_tree_reads_no_coordinate():
    assert parse_expr("1", 2).constant and parse_expr("1/0", 2).constant
    assert parse_expr("exp(2i)^-3-(4+1i)", 1).constant
    assert not parse_expr("1+x2*0", 2).constant
    assert not parse_expr("-exp(x)^2/3", 1).constant
    assert not differentiate(parse_expr("x^2", 1)).constant
    assert differentiate(parse_expr("x", 1)).constant


# ---------------------------------------- constant folding, fused operands

# Constants that make a folded subtree raise or overflow (0, 1000, 1e200) or
# carry signed zeros, drawn often, so that most trees hold constant subtrees.
_special = st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                            complex(-0.0, -0.0), 1000 + 0j, -1000 + 0j,
                            1e200 + 0j, 2 + 0j, 0.5j])
_constant_trees = st.recursive(
    st.builds(Num, st.one_of(_special, _complexes)), _operators, max_leaves=5)
_constant_heavy_trees = st.recursive(
    st.one_of(_constant_trees, _constant_trees, st.builds(Var, st.integers(0, 3))),
    _operators, max_leaves=8)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_constant_heavy_trees, _points)
def test_constant_heavy_trees_evaluate_as_the_reference_walk(expr, point):
    # Folded subtrees give the walk's bits; those whose folding raises give
    # its error, type, message and point, in its order.
    want = _outcome(lambda: _reference(expr, tuple(complex(c) for c in point)))
    assert _outcome(lambda: eval_expr(expr, point)) == want
    assert _outcome(lambda: eval_expr(expr, point)) == want
    assert expr.constant == (not any(isinstance(e, Var) for e in _nodes(expr)))


_FOLD_RAISES = ("1/0", "0^-2", "exp(1000)", "(1e200)^2")


@pytest.mark.parametrize("constant", _FOLD_RAISES)
@pytest.mark.parametrize("coordinate, point", [
    ("x3", (1.5, 2)),  # x3 is out of range for a point of two coordinates
    ("1/x1", (0, 2)),  # a pole at x1 = 0
    ("x3", (np.float64(1.5), np.complex128(2j))),
], ids=["missing", "pole", "numpy"])
@pytest.mark.parametrize("op", ["+", "*", "-"])
def test_errors_of_constants_that_do_not_fold_come_in_evaluation_order(
        constant, coordinate, point, op):
    complex_point = tuple(complex(c) for c in point)
    for first, second in ((constant, coordinate), (coordinate, constant)):
        expr = parse_expr(f"{first}{op}({second})", 3)
        want = _outcome(lambda: _reference(expr, complex_point))
        # The left operand's error comes first, with the evaluated point.
        assert want == _outcome(lambda: _reference(parse_expr(first, 3), complex_point))
        assert _outcome(lambda: eval_expr(expr, point)) == want
        assert _outcome(lambda: eval_expr(expr, point)) == want


@pytest.mark.parametrize("text", ["-0*x", "(0-0i)*x", "exp(-1000)*x",
                                  "x*-0", "x-(0-0i)", "-0-x", "(0-0i)+x*0"])
@pytest.mark.parametrize("x", [1, -1.0, 0, -0.0, complex(0.0, -0.0),
                               complex(-0.0, -0.0), -1j, 1e308, -2.5 + 1e-300j])
def test_signed_zero_constants_fold_to_the_walks_bits(text, x):
    expr = parse_expr(text, 1)
    want = _outcome(lambda: _reference(expr, (complex(x),)))
    assert _outcome(lambda: eval_expr(expr, (x,))) == want


def test_constant_subtrees_fold_and_raising_ones_stay_closures():
    kinds = {text: exprlang._operand_of(parse_expr(text, 1))[0]
             for text in ("(1+2i)", "exp(-1000)", "2^-3", "x", "x+1")
             + _FOLD_RAISES + ("1/0+2", "-(0^-2)")}
    assert kinds == {"(1+2i)": exprlang._CONST, "exp(-1000)": exprlang._CONST,
                     "2^-3": exprlang._CONST, "x": exprlang._COORD,
                     "x+1": exprlang._FN,
                     **dict.fromkeys(_FOLD_RAISES + ("1/0+2", "-(0^-2)"),
                                     exprlang._RAISES)}
    # A folded constant is the walk's value; its tree compiles to one
    # closure returning it, reading no coordinate.
    assert (exprlang._operand_of(parse_expr("(1+2i)*(3-1i)", 1))
            == (exprlang._CONST, (1 + 2j) * (3 - 1j)))
    assert eval_expr(parse_expr("exp(2i)^-3-(4+1i)", 1), ()) == cmath.exp(2j) ** -3 - (4 + 1j)


def test_d_of_f_g_compiles_only_the_nodes_that_f_does_not_own(monkeypatch):
    # Each node keeps its compiled operand, so d(f g), which holds subtrees of
    # f (the product rule keeps f and its factors, exp's chain rule keeps the
    # exp), compiles only its own nodes.  Counted by identity, once each.
    f = parse_expr("(0.5-0.2i)*x^2*exp((0.3+0.1i)*x)+(0.1+0.2i)*x-x^3/(2+x)", 1)
    exprlang._operand_of(exprlang.ONE)  # every tree shares ONE; compile it first
    compile_ = exprlang._compile
    calls = []
    monkeypatch.setattr(exprlang, "_compile",
                        lambda expr: calls.append(id(expr)) or compile_(expr))
    assert not f.constant
    owned = {id(e) for e in _nodes(f)}
    assert sorted(calls) == sorted(owned)
    calls.clear()
    g = Pow(Sub(Var(0), Num(1 + 0j)), 2)  # residue_B's g
    d_fg = differentiate(Mul(f, g))
    point = (0.3 + 0.1j,)
    assert _outcome(lambda: eval_expr(d_fg, point)) == _outcome(lambda: _reference(d_fg, point))
    d_fg_nodes = {id(e) for e in _nodes(d_fg)}
    assert sorted(calls) == sorted(d_fg_nodes - owned - {id(exprlang.ONE)})
    assert len(d_fg_nodes & owned) > len(calls)  # most of d(f g) is f's


# The pairs whose parent reads a coordinate inside its own closure, each with
# a tree that reaches it; {x} is x1, x2 or x3 (past the end of the points).
_FUSED = {
    (Mul, exprlang._CONST, exprlang._COORD): "(2-3i)*{x}",
    (Mul, exprlang._FN, exprlang._COORD): "x1^2*{x}",
    (Sub, exprlang._COORD, exprlang._CONST): "{x}-(0.5+1i)",
}


@pytest.mark.parametrize("coords", [
    (2, -3), (0.5, -0.0), (np.float64(0.1), np.float64(-2.5)),
    (np.complex128(-0.0 - 0.7j), np.complex128(-0.0 + 1e-300j)), (-1.5 + 1e-300j, -0j),
], ids=["int", "float", "float64", "complex128", "complex"])
@pytest.mark.parametrize("key", _FUSED, ids=["c*x", "a*x", "x-c"])
def test_fused_coordinate_reads_give_the_walks_bits_and_errors(key, coords):
    for x in ("x1", "x2", "x3"):
        expr = parse_expr(_FUSED[key].format(x=x), 3)
        kinds = tuple(exprlang._operand_of(e)[0] for e in (expr.left, expr.right))
        assert (type(expr), *kinds) == key
        want = _outcome(lambda: _reference(expr, tuple(complex(c) for c in coords)))
        assert _outcome(lambda: eval_expr(expr, coords)) == want
        assert _outcome(lambda: eval_expr(expr, np.array(coords))) == want
        if x == "x3":  # the bare coordinate's error, message and all
            assert want == _outcome(lambda: eval_expr(parse_expr("x3", 3), coords))


@pytest.mark.parametrize("text", ["(1/x1)*x3", "(1/0)*x3", "exp(1000)*x3"])
def test_a_fused_coordinate_is_read_after_the_operand_before_it(text):
    # The left operand's pole or overflow comes first, as in the walk, not the
    # missing x3: (1/x1)*x3 reads x3 inside Mul's closure; a left operand
    # that is a raising constant takes the all-closure entry.
    expr = parse_expr(text, 3)
    if text == "(1/x1)*x3":
        kinds = tuple(exprlang._operand_of(e)[0] for e in (expr.left, expr.right))
        assert kinds == (exprlang._FN, exprlang._COORD)
    want = _outcome(lambda: _reference(expr, (0j, 1.5 + 0j)))
    assert want[0] is PoleError
    assert _outcome(lambda: eval_expr(expr, (0, 1.5))) == want


# ------------------------------------------- the second read of a short point

def test_a_negative_index_past_the_start_is_named_by_the_second_read():
    # p[-3] of two coordinates raises IndexError; eval_expr reads again on a
    # point that names it, and the error is the parent's InputError.
    with pytest.raises(InputError) as err:
        eval_expr(Var(-3), (1, 2))
    assert str(err.value) == "expression uses x-2 but the point has 2 coordinates"
    assert not isinstance(err.value, (IndexError, RecursionError))


def test_the_second_read_names_the_coordinate_the_closure_read(monkeypatch):
    # The error comes from the read itself, not from the tree: a closure
    # patched to read the next coordinate names x3, which the tree lacks.
    key = (Mul, exprlang._FN, exprlang._COORD)
    fused = exprlang._CLOSURES[key]
    monkeypatch.setitem(exprlang._CLOSURES, key, lambda a, index: fused(a, index + 1))
    with pytest.raises(InputError, match="^expression uses x3 but the point has 2 coordinates$"):
        eval_expr(parse_expr("x1^2*x2", 2), (1, 2))


@pytest.mark.parametrize("text, name", [("x4*x3", "x4"), ("x3*x4", "x3"), ("x1+x2-x5^2", "x5")])
def test_the_first_missing_coordinate_read_is_named(text, name):
    want = f"^expression uses {name} but the point has 2 coordinates$"
    with pytest.raises(InputError, match=want):
        eval_expr(parse_expr(text, 5), np.array([1, 2]))


# ------------------------------------------- a non-node, rejected when compiled

@pytest.mark.parametrize("expr, point", [
    (Add(Num(1j), 1), ()),
    (Add(Var(5), 1), (2j,)),  # a closure would read the missing x6 first
])
def test_a_non_node_child_is_rejected_before_any_closure_runs(expr, point):
    with pytest.raises(InputError) as err:
        eval_expr(expr, point)
    assert str(err.value) == "not an expression node: 1"
