"""Tiny expression language for user-defined coordinate maps.

Variables x1..xd, real literals, + - * / with the usual precedence
(unary minus binds tighter than * and /), and the functions sin, cos,
tanh, abs, min, max.  Deliberately small: every expression is total on
[-1,1]^d apart from division by a near-zero denominator.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import ArityError, EvaluationError, ParseError, UnknownIdentifier

FUNCTIONS = {
    "sin": (1, math.sin),
    "cos": (1, math.cos),
    "tanh": (1, math.tanh),
    "abs": (1, abs),
    "min": (2, min),
    "max": (2, max),
}

_DIV_FLOOR = 1e-300

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
    if not source or not source.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(source), d)
    node = parser.parse_expr()
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


def _div(a, b):
    if abs(b) < _DIV_FLOOR:
        raise EvaluationError(f"division by near-zero denominator {b!r}")
    return a / b


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


def _python_source(node) -> str:
    # Fully parenthesized, so Python evaluates the operations in the
    # tree's order; `inf` and `nan` print as names bound in _COMPILE_NAMES.
    if isinstance(node, Num):
        return repr(float(node.value))
    if isinstance(node, Var):
        return f"c[{int(node.index) - 1}]"
    if isinstance(node, Neg):
        return f"(-{_python_source(node.arg)})"
    if isinstance(node, BinOp) and node.op in ("+", "-", "*", "/"):
        lhs, rhs = _python_source(node.left), _python_source(node.right)
        if node.op == "/":
            return f"_div({lhs}, {rhs})"
        return f"({lhs} {node.op} {rhs})"
    if isinstance(node, Call) and node.func in FUNCTIONS:
        return f"{node.func}({', '.join(_python_source(a) for a in node.args)})"
    raise TypeError(f"not an AST node: {node!r}")


_COMPILE_NAMES = {name: fn for name, (_, fn) in FUNCTIONS.items()}
_COMPILE_NAMES.update(_div=_div, inf=math.inf, nan=math.nan)


def compile_coords(nodes, passthrough: int = 0):
    """One Python function of a coordinate tuple `c` returning the tuple
    (node(c) for each node) + c[:passthrough].

    Each node gives bit for bit what evaluate_ast gives, including the
    EvaluationError on a near-zero denominator; the tree is walked once
    here instead of on every call.
    """
    parts = [_python_source(n) for n in nodes]
    parts += [f"c[{i}]" for i in range(passthrough)]
    source = f"lambda c: ({', '.join(parts)},)"
    return eval(source, {"__builtins__": {}, **_COMPILE_NAMES})


def variables_used(node) -> set[int]:
    if isinstance(node, Var):
        return {node.index}
    if isinstance(node, Neg):
        return variables_used(node.arg)
    if isinstance(node, BinOp):
        return variables_used(node.left) | variables_used(node.right)
    if isinstance(node, Call):
        out = set()
        for a in node.args:
            out |= variables_used(a)
        return out
    return set()
