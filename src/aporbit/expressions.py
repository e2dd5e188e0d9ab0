"""Tiny expression language for user-defined coordinate maps.

Variables x1..xd, real literals, + - * / with the usual precedence
(unary minus binds tighter than * and /), and the functions sin, cos,
tanh, abs, min, max.  Deliberately small: every expression is total on
[-1,1]^d apart from division by a near-zero denominator and sin or cos
of an infinite intermediate, which raise EvaluationError.

Every map is a tuple of such trees, one per output coordinate, and
one source generator turns them into Python: `compile_coords` gives the
per-point step, `compile_orbit_loop` the loop that iterates it over a
whole orbit.  Both do each tree's float operations in the tree's order.
`linear_part` reads the matrix of a map whose trees are affine.
"""

from __future__ import annotations

import functools
import math
import re
import sys
import textwrap
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ArityError, EvaluationError, ParseError, UnknownIdentifier


def _finite_arg(fn):
    # math.sin and math.cos raise a bare ValueError at +-inf; report it
    # as a failed evaluation.  NaN passes through as NaN.
    def guarded(x):
        try:
            return fn(x)
        except ValueError:
            raise EvaluationError(f"{fn.__name__} of non-finite argument {float(x)}") from None

    return guarded


FUNCTIONS = {
    "sin": (1, _finite_arg(math.sin)),
    "cos": (1, _finite_arg(math.cos)),
    "tanh": (1, math.tanh),
    "abs": (1, abs),
    "min": (2, min),
    "max": (2, max),
}

_DIV_FLOOR = 1e-300
_DOUBLE_MAX = int(sys.float_info.max)

# Precedence levels used by both the parser shape and the printer.
_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_ATOM = 4


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based, matches the surface syntax x1..xd


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<op>[-+*/(),])
    | (?P<ws>\s+)
    """,
    re.VERBOSE,
)


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", pos)
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group()), pos))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group(), pos))
        elif m.lastgroup == "op":
            tokens.append((m.group(), m.group(), pos))
        pos = m.end()
    tokens.append(("end", None, len(source)))
    return tokens


class _Parser:
    def __init__(self, tokens, d):
        self.tokens = tokens
        self.i = 0
        self.d = d

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.i += 1
        return tok

    def parse_expr(self):
        node = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            node = BinOp(op, node, self.parse_unary())
        return node

    def parse_unary(self):
        if self.peek()[0] == "-":
            self.take()
            return Neg(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self):
        kind, value, pos = self.peek()
        if kind == "num":
            self.take()
            return Num(value)
        if kind == "ident":
            self.take()
            if self.peek()[0] == "(":
                return self.parse_call(value, pos)
            m = re.fullmatch(r"x([1-9][0-9]*)", value)
            if m is None:
                raise UnknownIdentifier(f"unknown identifier {value!r}", pos)
            index = int(m.group(1))
            if index > self.d:
                raise UnknownIdentifier(
                    f"variable {value!r} exceeds dimension {self.d}", pos
                )
            return Var(index)
        if kind == "(":
            self.take()
            node = self.parse_expr()
            self.take(")")
            return node
        raise ParseError(f"unexpected token {value!r}", pos)

    def parse_call(self, name, pos):
        if name not in FUNCTIONS:
            raise UnknownIdentifier(f"unknown function {name!r}", pos)
        self.take("(")
        args = [self.parse_expr()]
        while self.peek()[0] == ",":
            self.take()
            args.append(self.parse_expr())
        self.take(")")
        arity = FUNCTIONS[name][0]
        if len(args) != arity:
            raise ArityError(
                f"{name} takes {arity} argument(s), got {len(args)}", pos
            )
        return Call(name, tuple(args))


def parse_expression(source: str, d: int) -> object:
    """Parse a coordinate expression over variables x1..xd into an AST."""
    if not isinstance(source, str):
        raise ParseError(f"an expression is a string, got {source!r}", 0)
    if not source.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(source), d)
    try:
        node = parser.parse_expr()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.peek()[2]) from None
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input {value!r}", pos)
    return node


def _prec(node) -> int:
    if isinstance(node, BinOp):
        return _PREC_ADD if node.op in "+-" else _PREC_MUL
    if isinstance(node, Neg):
        return _PREC_NEG
    return _PREC_ATOM


def to_source(node) -> str:
    """Print an AST so that re-parsing yields the identical tree."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Neg):
        inner = to_source(node.arg)
        if _prec(node.arg) < _PREC_NEG:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, BinOp):
        lhs = to_source(node.left)
        if _prec(node.left) < _prec(node):
            lhs = f"({lhs})"
        rhs = to_source(node.right)
        if _prec(node.right) <= _prec(node):
            rhs = f"({rhs})"
        return f"{lhs} {node.op} {rhs}"
    if isinstance(node, Call):
        return f"{node.func}({', '.join(to_source(a) for a in node.args)})"
    raise TypeError(f"not an AST node: {node!r}")


def linear_part(trees):
    """The d x d matrix A of the map x -> A x + b whose output trees are
    `trees`, or None when a tree is not affine.

    Each tree is folded exactly in Fractions from `Num`, `Var`, `Neg`,
    `+`, `-`, `*` with a constant side and `/` by a constant of magnitude
    at least _DIV_FLOOR, and each entry is rounded to a float once.  Any
    other node gives None: a call, a product of two sides that name a
    variable, or a divisor that names one.  So do a non-finite literal
    and a coefficient or constant of any node beyond the double range,
    where the float evaluation overflows.
    """
    d = len(trees)
    A = np.zeros((d, d))
    for i, tree in enumerate(trees):
        folded = _affine_fold(tree)
        if folded is None:
            return None
        for j, a in folded[0].items():
            A[i, j - 1] = float(a)
    return A


def _affine_fold(tree):
    # (coefficients by variable index, constant) of an affine tree, or
    # None.  An explicit stack rather than recursion, because an `ar`
    # update is a sum nested as deep as its order.  A node's keys are the
    # variables it names, so an operand without keys is a constant.
    folded = []
    todo = [(tree, False)]
    while todo:
        node, operands_done = todo.pop()
        if isinstance(node, Num):
            if not math.isfinite(node.value):
                return None
            folded.append(({}, Fraction(node.value)))
        elif isinstance(node, Var):
            folded.append(({node.index: Fraction(1)}, Fraction(0)))
        elif isinstance(node, (Neg, BinOp)) and not operands_done:
            todo.append((node, True))
            todo.extend((arg, False) for arg in
                        ((node.arg,) if isinstance(node, Neg) else (node.right, node.left)))
        elif isinstance(node, Neg):
            coeffs, b = folded.pop()
            folded.append(({j: -a for j, a in coeffs.items()}, -b))
        elif isinstance(node, BinOp):
            right = folded.pop()
            node_folded = _affine_op(node.op, folded.pop(), right)
            if node_folded is None:
                return None
            folded.append(node_folded)
        else:
            return None
    return folded[0]


def _affine_op(op, left, right):
    # One + - * / of two folded operands, or None.  A sum updates the
    # left operand's coefficients in place (the fold made them for this
    # node alone), so a long sum folds in linear time; only the entries
    # that change are checked against the double range.
    (a, b), (c, e) = left, right
    if op in "+-":
        sign = 1 if op == "+" else -1
        for j, v in c.items():
            a[j] = a.get(j, 0) + sign * v
        changed = [a[j] for j in c]
        coeffs, b = a, b + sign * e
    elif op == "*" and not (a and c):
        varying, factor = (a, e) if a else (c, b)
        coeffs, b = {j: v * factor for j, v in varying.items()}, b * e
        changed = coeffs.values()
    elif op == "/" and not c and abs(e) >= _DIV_FLOOR:
        coeffs, b = {j: v / e for j, v in a.items()}, b / e
        changed = coeffs.values()
    else:
        return None
    for v in (b, *changed):
        if abs(v.numerator) > _DOUBLE_MAX * v.denominator:  # |v| beyond the double range
            return None
    return coeffs, b


def _div(a, b):
    if abs(b) < _DIV_FLOOR:
        raise EvaluationError(f"division by near-zero denominator {b!r}")
    return a / b


def _python_source(node, var, consts) -> str:
    # Parenthesized, so Python evaluates the operations in the tree's
    # order; `var(i)` spells the variable x_i, and each literal is a name
    # k0, k1, ... whose value goes to `consts`.
    if isinstance(node, Num):
        consts.append(float(node.value))
        return f"k{len(consts) - 1}"
    if isinstance(node, Var):
        return var(int(node.index))
    if isinstance(node, Neg):
        return f"(-{_python_source(node.arg, var, consts)})"
    if isinstance(node, BinOp) and node.op == "/":
        lhs = _python_source(node.left, var, consts)
        return f"_div({lhs}, {_python_source(node.right, var, consts)})"
    if isinstance(node, BinOp) and node.op in ("+", "-", "*"):
        return f"({_left_chain(node, var, consts)})"
    if isinstance(node, Call) and node.func in FUNCTIONS:
        args = ", ".join(_python_source(a, var, consts) for a in node.args)
        return f"{node.func}({args})"
    raise TypeError(f"not an AST node: {node!r}")


def _left_chain(node, var, consts) -> str:
    # A + - * operation without its own parentheses.  Down the left spine,
    # an operand that Python groups to the left the same way (a + - *
    # under + or -, a * under *) goes without them too, so a long sum such
    # as an `ar` update stays within the parser's limit of nested
    # parentheses.
    spine = [node]
    while isinstance(left := spine[-1].left, BinOp) and (
            left.op == "*" or (left.op in "+-" and spine[-1].op in "+-")):
        spine.append(left)
    text = _python_source(spine[-1].left, var, consts)
    for op in reversed(spine):
        text += f" {op.op} {_python_source(op.right, var, consts)}"
    return text


_COMPILE_NAMES = {name: fn for name, (_, fn) in FUNCTIONS.items()}
_COMPILE_NAMES.update(_div=_div, range=range)


@functools.lru_cache(maxsize=256)
def _factory(source: str, name: str, n_consts: int):
    # `source` defines the function `name`; compile it inside
    # make(k0, ..., k{n-1}), which binds the literals and returns it, so
    # trees of one shape share one compiled code object.
    ks = ", ".join(f"k{j}" for j in range(n_consts))
    try:
        code = compile(f"def make({ks}):\n{textwrap.indent(source, '    ')}    return {name}\n",
                       "<map>", "exec")
    except (RecursionError, SyntaxError) as exc:  # nested beyond what Python compiles
        raise ValueError(f"map expression too deeply nested to compile: {exc}") from None
    namespace = {"__builtins__": {}, **_COMPILE_NAMES}
    exec(code, namespace)
    return namespace["make"]


def compile_coords(nodes):
    """One Python function of a coordinate tuple `c` returning the tuple
    (node(c) for each node).

    Each operation runs in the tree's order on Python floats, so the
    result is the tree's value bit for bit; a near-zero denominator or
    sin/cos of an infinite value raises EvaluationError.  The trees are
    walked once here instead of on every call.
    """
    consts = []
    parts = [_python_source(n, lambda i: f"c[{i - 1}]", consts) for n in nodes]
    source = f"def step(c):\n    return ({', '.join(parts)},)\n"
    return _factory(source, "step", len(consts))(*consts)


def compile_orbit_loop(nodes):
    """The orbit loop of the map whose output trees are `nodes`, one per
    coordinate: `run(c1, ..., cd, t, stop, append) -> t`.

    From the sample (c1, ..., cd) at time t it computes the samples at
    t+1, ..., stop, each with the float operations of
    `compile_coords(nodes)`, and passes every coordinate of every sample
    to `append`.  It returns the time of the first sample with a
    coordinate outside [-1, 1] or NaN, or `stop` when there is none.
    """
    consts = []
    cs = [f"c{i}" for i in range(1, len(nodes) + 1)]
    parts = [_python_source(n, "c{}".format, consts) for n in nodes]
    inside = " and ".join(f"-1.0 <= {c} <= 1.0" for c in cs)
    source = "".join([
        f"def run({', '.join(cs)}, t, stop, append):\n",
        "    for t in range(t + 1, stop + 1):\n",
        f"        {', '.join(cs)}, = {', '.join(parts)},\n",
        *(f"        append({c})\n" for c in cs),
        f"        if not ({inside}):\n",
        "            return t\n",
        "    return stop\n",
    ])
    return _factory(source, "run", len(consts))(*consts)

