"""Expression parser, evaluation and the affine read-back.

`oracles.evaluate_ast`, a tree-walking interpreter, is the oracle for the
compiled orbit loop; it shares FUNCTIONS and `_div` with it.
"""

import math
import struct
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aporbit.expressions import (
    BinOp,
    Call,
    Neg,
    Num,
    Var,
    _div,
    linear_part,
    parse_expression,
)
from aporbit.errors import ArityError, EvaluationError, ParseError, UnknownIdentifier
from aporbit.maps import MapDefinition
from oracles import evaluate_ast, loop_step


def compiled_step(trees):
    """One step of the compiled loop of the map whose output trees are `trees`."""
    return loop_step(MapDefinition(tuple(trees)))


def test_parse_shapes():
    ast = parse_expression("0.9*cos(3*x1)", 1)
    assert ast == BinOp("*", Num(0.9), Call("cos", (BinOp("*", Num(3.0), Var(1)),)))
    ast = parse_expression("x1 - x2*x2", 2)
    assert ast == BinOp("-", Var(1), BinOp("*", Var(2), Var(2)))


def test_unknown_identifiers():
    with pytest.raises(UnknownIdentifier):
        parse_expression("x3", 2)
    with pytest.raises(UnknownIdentifier):
        parse_expression("foo(x1)", 1)
    with pytest.raises(UnknownIdentifier):
        parse_expression("y", 1)


def test_arity_errors():
    with pytest.raises(ArityError):
        parse_expression("sin(x1, x1)", 1)
    with pytest.raises(ArityError):
        parse_expression("min(x1)", 1)


def test_syntax_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_expression("x1 + ", 1)
    assert info.value.position == 5
    with pytest.raises(ParseError):
        parse_expression("", 1)
    with pytest.raises(ParseError):
        parse_expression("x1 @ x1", 2)
    with pytest.raises(ParseError):
        parse_expression("(x1", 1)
    with pytest.raises(ParseError):
        parse_expression("x1 x1", 2)


def test_precedence_and_unary_minus():
    # unary minus binds tighter than *, which binds tighter than -
    ast = parse_expression("-x1*x1 - x1", 1)
    assert ast == BinOp("-", BinOp("*", Neg(Var(1)), Var(1)), Var(1))
    assert evaluate_ast(ast, (0.5,)) == pytest.approx(-0.75)
    # left associativity
    ast = parse_expression("1 - 2 - 3", 1)
    assert evaluate_ast(ast, (0.0,)) == -4.0
    ast = parse_expression("--x1", 1)
    assert ast == Neg(Neg(Var(1)))


def test_evaluation():
    ast = parse_expression("0.5*x1", 1)
    assert evaluate_ast(ast, (0.8,)) == 0.4
    ast = parse_expression("min(x1, x2) + max(x1, x2)", 2)
    assert evaluate_ast(ast, (0.25, -0.5)) == pytest.approx(-0.25)
    ast = parse_expression("tanh(x1)", 1)
    assert evaluate_ast(ast, (0.3,)) == math.tanh(0.3)


def test_division_guard():
    ast = parse_expression("x1 / x2", 2)
    assert evaluate_ast(ast, (1.0, 0.5)) == 2.0
    with pytest.raises(EvaluationError):
        evaluate_ast(ast, (1.0, 0.0))


def bits(x):
    return struct.pack("<d", x)


def outcome(fn, coords):
    """Bit patterns of the result, or the error type and message."""
    try:
        value = fn(coords)
    except (ArithmeticError, ValueError, EvaluationError) as exc:
        return type(exc), str(exc)
    return [bits(v) for v in value] if isinstance(value, tuple) else bits(value)


def ast_nodes(d):
    leaves = st.one_of(
        st.builds(Num, st.floats(-3.0, 3.0)),
        st.builds(Num, st.sampled_from([0.0, 1e-301, 1e-299, 1e300])),
        st.builds(Var, st.integers(1, d)),
    )

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(BinOp, st.sampled_from("+-*/"), children, children),
            st.builds(Call, st.sampled_from(["sin", "cos", "tanh", "abs"]), st.tuples(children)),
            st.builds(Call, st.sampled_from(["min", "max"]), st.tuples(children, children)),
        )

    return st.recursive(leaves, extend, max_leaves=24)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_compiled_matches_evaluate_ast(data):
    d = data.draw(st.integers(1, 4))
    nodes = data.draw(st.lists(ast_nodes(d), min_size=d, max_size=d))
    if data.draw(st.booleans()):
        # delay-shaped: one update, then the shifted coordinates x1..x(d-1)
        nodes = nodes[:1] + [Var(i) for i in range(1, d)]
    coords = tuple(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
    got = outcome(compiled_step(nodes), coords)
    want = [outcome(lambda c, n=n: evaluate_ast(n, c), coords) for n in nodes]
    errors = [w for w in want if isinstance(w, tuple)]
    if errors:
        assert got == errors[0]  # left to right: the first failing node raises
    else:
        assert got == want


def test_tree_too_deep_to_compile_is_a_value_error():
    # 300 nested negations print as 300 nested parentheses, past Python's limit
    with pytest.raises(ValueError, match="too deeply nested"):
        MapDefinition((parse_expression("-" * 300 + "x1", 1),))


def test_compiled_division_guard():
    step = compiled_step([parse_expression("x1 / (x2 - x2)", 2), Var(2)])
    with pytest.raises(EvaluationError, match="near-zero denominator 0.0"):
        step((1.0, 0.5))
    step = compiled_step([parse_expression("1 / x1", 1)])
    with pytest.raises(EvaluationError):
        step((1e-301,))
    assert step((1e-299,)) == (1e299,)
    # a literal that overflows to inf compiles to the same value
    assert compiled_step([parse_expression("1e999 * x1", 1)])((-0.5,)) == (-math.inf,)


def test_trig_of_infinity_is_an_evaluation_error():
    for source in ("sin(x1 * 1e200 * 1e200)", "cos(-x1 * 1e200 * 1e200)"):
        ast = parse_expression(source, 1)
        for evaluate in (compiled_step([ast]), lambda c: evaluate_ast(ast, c)):
            with pytest.raises(EvaluationError, match="non-finite argument"):
                evaluate((0.3,))
    # NaN is not an error here: it passes through to the orbit's box rule
    assert math.isnan(compiled_step([parse_expression("sin(x1)", 1)])((math.nan,))[0])


@pytest.mark.parametrize("source", ["(" * 300 + "x1" + ")" * 300, "-" * 2000 + "x1"],
                         ids=["parentheses", "unary_minus"])
def test_nesting_too_deep_to_parse_is_a_parse_error(source):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_expression(source, 1)


@pytest.mark.parametrize("source", [1, 0.5, None, ["x1"]])
def test_a_source_that_is_not_a_string_is_a_parse_error(source):
    with pytest.raises(ParseError, match="an expression is a string"):
        parse_expression(source, 1)


def names_a_variable(node) -> bool:
    if isinstance(node, Var):
        return True
    if isinstance(node, Num):
        return False
    if isinstance(node, Neg):
        return names_a_variable(node.arg)
    if isinstance(node, BinOp):
        return names_a_variable(node.left) or names_a_variable(node.right)
    return any(names_a_variable(a) for a in node.args)


def not_affine_by_shape(node) -> bool:
    """A call, a product of two sides that name a variable, or a divisor
    that names one, anywhere in the tree."""
    if isinstance(node, Call):
        return True
    if isinstance(node, Neg):
        return not_affine_by_shape(node.arg)
    if isinstance(node, BinOp):
        if node.op == "*" and names_a_variable(node.left) and names_a_variable(node.right):
            return True
        if node.op == "/" and names_a_variable(node.right):
            return True
        return not_affine_by_shape(node.left) or not_affine_by_shape(node.right)
    return False


U, ETA = 2.0 ** -53, 2.0 ** -1074  # unit roundoff; largest error of a subnormal result


def value_and_error(node, coords):
    """The float value of an affine tree, in the compiled step's order of
    operations, and a bound on its distance from the exact value of the
    tree at `coords` (a running error analysis; inf or NaN once the
    evaluation leaves the double range)."""
    if isinstance(node, Num):
        return node.value, 0.0
    if isinstance(node, Var):
        return coords[node.index - 1], 0.0
    if isinstance(node, Neg):
        v, e = value_and_error(node.arg, coords)
        return -v, e
    a, ea = value_and_error(node.left, coords)
    c, ec = value_and_error(node.right, coords)
    if node.op in "+-":
        v, e = (a + c if node.op == "+" else a - c), ea + ec
    elif node.op == "*":
        v, e = a * c, abs(a) * ec + abs(c) * ea + ea * ec
    else:
        v = _div(a, c)
        e = (ea + abs(v) * ec) / (abs(c) - ec) if abs(c) > ec else math.inf
    return v, e + U * abs(v) + ETA


def affine_nodes(d):
    """Trees of + and - whose products and quotients have a constant side."""
    literals = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, 1e-301, 1e-299, 1e300]))
    constants = st.recursive(
        st.builds(Num, literals),
        lambda children: st.one_of(st.builds(Neg, children),
                                   st.builds(BinOp, st.sampled_from("+-*/"), children, children)),
        max_leaves=4)

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(BinOp, st.sampled_from("+-"), children, children),
            st.builds(BinOp, st.just("*"), children, constants),
            st.builds(BinOp, st.just("*"), constants, children),
            st.builds(BinOp, st.just("/"), children, constants),
        )

    leaves = st.one_of(st.builds(Var, st.integers(1, d)), st.builds(Num, literals))
    return st.recursive(leaves, extend, max_leaves=16)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_linear_part_is_the_matrix_of_an_affine_map(data):
    d = data.draw(st.integers(1, 3))
    nodes = affine_nodes(d) if data.draw(st.booleans()) else st.one_of(ast_nodes(d),
                                                                         affine_nodes(d))
    trees = data.draw(st.lists(nodes, min_size=d, max_size=d))
    affine = linear_part(trees)
    if any(not_affine_by_shape(tree) for tree in trees):
        assert affine is None
        return
    # None here only for a coefficient or constant beyond the double range,
    # or a divisor below _DIV_FLOOR
    assume(affine is not None)
    A, b = affine
    assert A.shape == (d, d) and b.shape == (d,)
    x, y = (tuple(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
            for _ in range(2))
    step = compiled_step(trees)
    try:
        fx, fy = step(x), step(y)
    except EvaluationError:  # a divisor that rounds below _DIV_FLOOR
        return
    diff = [a - b for a, b in zip(x, y)]
    for i, tree in enumerate(trees):
        (vx, ex), (vy, ey) = value_and_error(tree, x), value_and_error(tree, y)
        assert struct.pack("<2d", vx, vy) == struct.pack("<2d", fx[i], fy[i])
        if not math.isfinite(ex + ey):
            continue
        want = sum(A[i, j] * diff[j] for j in range(d))
        scale = sum(abs(A[i, j] * diff[j]) for j in range(d)) + abs(vx - vy)
        assert abs((vx - vy) - want) <= 2 * (ex + ey) + 4 * (d + 2) * U * scale + 8 * d * ETA
        want = sum(A[i, j] * x[j] for j in range(d)) + b[i]
        scale = sum(abs(A[i, j] * x[j]) for j in range(d)) + abs(b[i]) + abs(vx)
        assert abs(vx - want) <= 2 * ex + 4 * (d + 2) * U * scale + 8 * d * ETA


def test_linear_part_examples():
    rotation = [parse_expression(s, 2) for s in ("0.6*x1 - 0.8*x2", "0.8*x1 + 0.6*x2")]
    A, b = linear_part(rotation)
    assert A.tolist() == [[0.6, -0.8], [0.8, 0.6]] and b.tolist() == [0.0, 0.0]
    # folded exactly, then rounded once: the exact 0.1 + 0.2 - 0.3 of the
    # three doubles, not the 2**-54 that double arithmetic gives
    got, b = linear_part([parse_expression("(x1 - 2*x2)/4 + 7", 2),
                          parse_expression("x1*(0.1 + 0.2) - 0.3*x1 - (-x2) / -1e-300", 2)])
    assert b.tolist() == [7.0, 0.0]
    assert got.tolist() == [[0.25, -0.5],
                            [float(Fraction(0.1) + Fraction(0.2) - Fraction(0.3)),
                             float(1 / Fraction(-1e-300))]]
    assert got[1, 0] != (0.1 + 0.2) - 0.3
    for source in ("sin(x1)", "x1*x1", "1/x1", "x1/(x1 - x1 + 1)", "x1 * 1e999",
                   "x1*1e200*1e200*0", "1e308*1e308 + x1", "x1 / 1e-301"):
        assert linear_part([parse_expression(source, 1)]) is None, source
    A, b = linear_part([parse_expression("(x1 - x1) + 1e308 + x1", 1)])
    assert A.tolist() == [[1.0]] and b.tolist() == [1e308]
