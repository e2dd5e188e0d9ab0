"""Tiny expression language for user-defined coordinate maps.

Variables x1..xd, real literals, + - * / with the usual precedence
(unary minus binds tighter than * and /), and the functions sin, cos,
tanh, abs, min, max.  Deliberately small: every expression is total on
[-1,1]^d apart from division by a near-zero denominator and sin or cos
of an infinite intermediate, which raise EvaluationError.

Every map is a tuple of such trees, one per output coordinate, and
one source generator turns them into Python in two forms, one per access
pattern: `compile_orbit_loop` gives the loop that iterates the map over
a whole orbit, which for a shift map (`is_shift`) stores only the first
coordinate, and `compile_batch` the step of an array of points, with
one numpy operation per tree node over all of them.  Both do each
tree's float operations in the tree's order, so they agree bit for bit.
`linear_part` reads the matrix and the offset of a map whose trees are
affine.
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


def linear_part(trees):
    """The d x d matrix A and the offset vector b of the map x -> A x + b
    whose output trees are `trees`, as the pair (A, b), or None when a
    tree is not affine.

    Each tree is folded exactly in Fractions from `Num`, `Var`, `Neg`,
    `+`, `-`, `*` with a constant side and `/` by a constant of magnitude
    at least _DIV_FLOOR, and each entry is rounded to a float once, so a
    -0.0 literal reads as +0.0.  Any
    other node gives None: a call, a product of two sides that name a
    variable, or a divisor that names one.  So do a non-finite literal
    and a coefficient or constant of any node beyond the double range,
    where the float evaluation overflows.
    """
    d = len(trees)
    A = np.zeros((d, d))
    b = np.zeros(d)
    for i, tree in enumerate(trees):
        folded = _affine_fold(tree)
        if folded is None:
            return None
        for j, a in folded[0].items():
            A[i, j - 1] = float(a)
        b[i] = float(folded[1])
    return A, b


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


def _elementwise(fn, x):
    # fn of each entry of x by `math`, whose results do not depend on the
    # CPU, as numpy's SIMD kernels (np.tanh among them) may
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


class _BatchFunctions:
    """The functions of the language over arrays of n points, for one call
    of a `compile_batch` function, with the points at which a step raises.

    Each value is a Python float (a constant subtree) or an array of n
    entries.  A point fails where a division meets a denominator of
    magnitude below _DIV_FLOOR or sin/cos meets an infinite argument; its
    value there is whatever comes out, and sin/cos are given 0.0 in place
    of the infinity.  min and max keep the first argument unless the second
    is strictly smaller (larger), as Python's do, NaN and signed zeros
    included.
    """

    def __init__(self, n: int):
        self.failed = np.zeros(n, dtype=bool)

    def _div(self, a, b):
        self.failed |= np.abs(b) < _DIV_FLOOR
        return np.divide(a, b)

    def _trig(self, fn, x):
        infinite = np.isinf(x)
        self.failed |= infinite
        return _elementwise(fn, np.where(infinite, 0.0, x))

    def sin(self, x):
        return self._trig(math.sin, x)

    def cos(self, x):
        return self._trig(math.cos, x)

    @staticmethod
    def tanh(x):
        return _elementwise(math.tanh, x)

    abs = staticmethod(np.abs)

    @staticmethod
    def min(a, b):
        return np.where(b < a, b, a)

    @staticmethod
    def max(a, b):
        return np.where(b > a, b, a)

    def first_failure(self) -> int:
        """The index of the first failed point, or n when none failed."""
        failed = np.flatnonzero(self.failed)
        return int(failed[0]) if len(failed) else len(self.failed)


_COMPILE_NAMES = {name: fn for name, (_, fn) in FUNCTIONS.items()}
_COMPILE_NAMES.update(_div=_div, range=range, _BatchFunctions=_BatchFunctions,
                      _empty=np.empty, _errstate=np.errstate)


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


def is_shift(nodes) -> bool:
    """Whether the map whose output trees are `nodes` is a shift map:
    d >= 2 and trees 2..d are the variables x1..x(d-1), so each sample's
    coordinates after the first are the first coordinates of the d - 1
    samples before it."""
    return len(nodes) >= 2 and all(node == Var(i) for i, node in enumerate(nodes[1:], start=1))


def compile_orbit_loop(nodes):
    """The orbit loop of the map whose output trees are `nodes`, one per
    coordinate: `run(c1, ..., cd, t, stop, append, lo, hi) -> t`.

    From the sample (c1, ..., cd) at time t it computes the samples at
    t+1, ..., stop, each output coordinate by its tree's float operations
    in the tree's order, left to right over the trees, so the first
    failing tree raises: EvaluationError at a near-zero denominator or
    sin/cos of an infinite value.  It returns the time of the first
    sample with a checked coordinate outside [lo, hi] or NaN, or `stop`
    when there is none.  A non-shift map passes every coordinate of every
    sample to `append` and checks them all.  A shift map (`is_shift`)
    passes and checks only c1, as its other coordinates are earlier
    values of c1, already checked.
    """
    consts = []
    cs = [f"c{i}" for i in range(1, len(nodes) + 1)]
    parts = [_python_source(n, "c{}".format, consts) for n in nodes]
    new = cs[:1] if is_shift(nodes) else cs
    inside = " and ".join(f"lo <= {c} <= hi" for c in new)
    source = "".join([
        f"def run({', '.join(cs)}, t, stop, append, lo, hi):\n",
        "    for t in range(t + 1, stop + 1):\n",
        f"        {', '.join(cs)}, = {', '.join(parts)},\n",
        *(f"        append({c})\n" for c in new),
        f"        if not ({inside}):\n",
        "            return t\n",
        "    return stop\n",
    ])
    return _factory(source, "run", len(consts))(*consts)


def compile_batch(nodes):
    """The step of the map whose output trees are `nodes` over a batch of
    points: `batch(points) -> (images, first)`.

    `points` is an (n, d) float64 array.  Row i of the (n, d) array
    `images` is the image of row i by one step of `compile_orbit_loop`'s
    loop, bit for bit, at every row where that step does not raise;
    `first` is the index of the first row where it raises, or n.  Each
    + - * / node is one numpy float64 operation over the rows, in the
    tree's order, whose IEEE result is Python's; a constant subtree stays
    a Python float, and a constant output tree fills its column.  sin,
    cos and tanh run `math`'s function on each entry (see
    `_BatchFunctions`).  Nothing raises here: which error a row raises is
    for one step of the loop to tell.
    """
    consts = []
    cs = [f"c{i}" for i in range(1, len(nodes) + 1)]
    parts = [_python_source(n, "c{}".format, consts) for n in nodes]
    names = ["_div", *FUNCTIONS]
    source = "".join([
        "def batch(points):\n",
        "    functions = _BatchFunctions(points.shape[0])\n",
        f"    {', '.join(names)} = {', '.join(f'functions.{f}' for f in names)}\n",
        f"    {', '.join(cs)}, = points.T\n",
        "    images = _empty(points.shape)\n",
        "    with _errstate(all='ignore'):\n",
        *(f"        images[:, {i}] = {part}\n" for i, part in enumerate(parts)),
        "    return images, functions.first_failure()\n",
    ])
    return _factory(source, "batch", len(consts))(*consts)
