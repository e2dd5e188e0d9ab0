"""Expression parser, printer round-trip and evaluation.

`evaluate_ast` below is a tree-walking interpreter kept only as the
oracle for the compiled evaluator; it shares FUNCTIONS and `_div` with it.
"""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aporbit.expressions import (
    FUNCTIONS,
    BinOp,
    Call,
    Neg,
    Num,
    Var,
    _div,
    compile_coords,
    parse_expression,
    to_source,
)
from aporbit.errors import ArityError, EvaluationError, ParseError, UnknownIdentifier


def evaluate_ast(node, coords) -> float:
    """Evaluate an AST at the coordinate vector (indexing is 1-based)."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return coords[node.index - 1]
    if isinstance(node, Neg):
        return -evaluate_ast(node.arg, coords)
    if isinstance(node, BinOp):
        a = evaluate_ast(node.left, coords)
        b = evaluate_ast(node.right, coords)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        return _div(a, b)
    if isinstance(node, Call):
        fn = FUNCTIONS[node.func][1]
        return fn(*(evaluate_ast(a, coords) for a in node.args))
    raise TypeError(f"not an AST node: {node!r}")


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
    if data.draw(st.booleans()):
        # delay-shaped: one update, then the shifted coordinates x1..x(d-1)
        nodes = nodes[:1] + [Var(i) for i in range(1, d)]
    coords = tuple(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
    got = outcome(compile_coords(nodes), coords)
    want = [outcome(lambda c, n=n: evaluate_ast(n, c), coords) for n in nodes]
    errors = [w for w in want if isinstance(w, tuple)]
    if errors:
        assert got == errors[0]  # left to right: the first failing node raises
    else:
        assert got == want


def test_tree_too_deep_to_compile_is_a_value_error():
    # 300 nested negations print as 300 nested parentheses, past Python's limit
    with pytest.raises(ValueError, match="too deeply nested"):
        compile_coords([parse_expression("-" * 300 + "x1", 1)])


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


def test_trig_of_infinity_is_an_evaluation_error():
    for source in ("sin(x1 * 1e200 * 1e200)", "cos(-x1 * 1e200 * 1e200)"):
        ast = parse_expression(source, 1)
        for evaluate in (compile_coords([ast]), lambda c: evaluate_ast(ast, c)):
            with pytest.raises(EvaluationError, match="non-finite argument"):
                evaluate((0.3,))
    # NaN is not an error here: it passes through to the orbit's box rule
    assert math.isnan(compile_coords([parse_expression("sin(x1)", 1)])((math.nan,))[0])


@pytest.mark.parametrize("source", ["(" * 300 + "x1" + ")" * 300, "-" * 2000 + "x1"],
                         ids=["parentheses", "unary_minus"])
def test_nesting_too_deep_to_parse_is_a_parse_error(source):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_expression(source, 1)
