"""Expression parser, printer round-trip and evaluation."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aporbit.expressions import (
    BinOp,
    Call,
    Neg,
    Num,
    Var,
    compile_coords,
    evaluate_ast,
    parse_expression,
    to_source,
    variables_used,
)
from aporbit.errors import ArityError, EvaluationError, ParseError, UnknownIdentifier


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


ROUND_TRIP_CORPUS = [
    "x1",
    "-x1",
    "--x1",
    "0.5",
    "1e-05",
    "x1 + x2",
    "x1 - x2",
    "x1 - (x2 - x1)",
    "(x1 + x2) * x1",
    "x1 * x2 * x1",
    "x1 * (x2 * x1)",
    "x1 / x2 / x1",
    "x1 / (x2 / x1)",
    "-(x1 * x2)",
    "-(x1 + x2)",
    "-x1 * x2",
    "0.9 * cos(3 * x1)",
    "sin(x1) + cos(x2)",
    "tanh(x1 * x2)",
    "abs(-x1)",
    "min(x1, x2)",
    "max(x1, min(x2, 0.5))",
    "x1 - x2 * x2",
    "0.5 * x1 - 0.25 * sin(3.0 * x2)",
    "x2",
    "x1 * x1 - 0.5",
    "(x1 - x2) / (x1 + x2 + 2.0)",
    "1.5 * tanh(2.0 * x1) - 0.5",
    "cos(x1) * cos(x1)",
    "sin(cos(x1))",
    "-cos(x1)",
    "x1 + x2 + x1",
    "x1 + (x2 + x1)",
    "max(abs(x1), abs(x2))",
    "min(1.0, x1 + 1.0) - 1.0",
    "0.1 * x1 + 0.2 * x2 + 0.3",
    "x1 * 2.0 / 3.0",
    "-(x1 / x2)",
    "-1.0",
    "3.0",
    "sin(3.141592653589793 * x1)",
    "abs(x1 - x2)",
    "tanh(x1) * tanh(x2)",
    "cos(2.0 * x1) - sin(2.0 * x2)",
    "(x1 + 1.0) * 0.5 - 1.0",
    "min(max(x1, -0.5), 0.5)",
    "x1 - -x2",
    "0.25 * (x1 + x2)",
    "x2 * x2 * x2",
    "1.0 / (2.0 + cos(x1))",
    "sin(x1 + x2) * 0.5",
]


def test_print_parse_round_trip():
    assert len(ROUND_TRIP_CORPUS) >= 50
    for source in ROUND_TRIP_CORPUS:
        ast = parse_expression(source, 2)
        printed = to_source(ast)
        assert parse_expression(printed, 2) == ast, source
        # printing is a fixed point after one round
        assert to_source(parse_expression(printed, 2)) == printed


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
    nodes = data.draw(st.lists(ast_nodes(d), min_size=1, max_size=3))
    coords = tuple(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
    compiled = compile_coords(nodes, passthrough=d - 1)
    got = outcome(compiled, coords)
    want = [outcome(lambda c, n=n: evaluate_ast(n, c), coords) for n in nodes]
    errors = [w for w in want if isinstance(w, tuple)]
    if errors:
        assert got == errors[0]  # left to right: the first failing node raises
    else:
        assert got == want + [bits(c) for c in coords[: d - 1]]


def test_compiled_division_guard():
    step = compile_coords([parse_expression("x1 / (x2 - x2)", 2)])
    with pytest.raises(EvaluationError, match="near-zero denominator 0.0"):
        step((1.0, 0.5))
    step = compile_coords([parse_expression("1 / x1", 1)])
    with pytest.raises(EvaluationError):
        step((1e-301,))
    assert step((1e-299,)) == (1e299,)
    # a literal that overflows to inf compiles to the same value
    assert compile_coords([parse_expression("1e999 * x1", 1)])((-0.5,)) == (-math.inf,)


def test_variables_used():
    ast = parse_expression("x1 * sin(x2) - 0.5", 2)
    assert variables_used(ast) == {1, 2}
    assert variables_used(parse_expression("1.0", 3)) == set()
