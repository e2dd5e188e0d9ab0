"""Computations kept for the tests only.

`detect_cycle`, `parseval_gap` and `quantization_error` check library
results and have no caller in the library.  `detect_cycle` finds its
candidate with the dict walker `first_repeat`, and `oracle_first_repeat`
is the brute-force first repeat it is held to.  `companion_matrix` and
`char_coefficients` are the matrix and the characteristic polynomial of
an `ar` map that the library reads off its trees.  `ar_recursion` is
the recursion from the coefficients that the algebraic route replaced
with the map's own loop.  `evaluate_ast` is a tree-walking interpreter,
and `tree_step` the per-point step of a map's trees built on it, the
reference for both compiled forms of the trees; `loop_step` is one step
of a map's compiled loop, the library's only per-point evaluator, and
`loop_orbit` the orbit of that loop run to the horizon, as
`MapDefinition.iterate` ran it before it copied the cycles it finds.  The
old builtin and `ar` step functions and the per-step orbit loop are the
forms that the compiled expression trees replaced, the per-pair
Lipschitz sampler and scalar Halton probes are the forms that the
blocked array passes of `maps` replaced, `whole_transition_table` counts
the states and conflicts of the earliest-occurrence table over the whole
array, as the blocked `orbit.build_transition_table` does over sorted
codes, and `scan_shadow_periodicity` is the pair-by-pair scan over a
list of codes that `orbit.shadow_periodicity` replaced; the tests hold
the library equal to them.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from aporbit.core import CLAMP_BAND, Point, box_overshoot, quantize
from aporbit.errors import AporbitError, OutOfRange, RangeViolation
from aporbit.expressions import FUNCTIONS, BinOp, Call, Neg, Num, Var, _div
from aporbit.maps import LIPSCHITZ_BLOCK, _PRIMES
from aporbit.orbit import SHADOW_WINDOW, Conflicts, TransitionTable


class NoCycleWithinHorizon(AporbitError):
    """The observed window is too short to certify an eventual cycle."""


def first_repeat(items):
    """(T, L) of the first repeated item: T the position of its first
    occurrence and L the distance; None if the items run out first."""
    first = {}
    for s in items:
        if s in first:
            return first[s], len(first) - first[s]
        first[s] = len(first)
    return None


def detect_cycle(seq) -> tuple[int, int]:
    """Minimal (pre-period, period) of an eventually periodic sequence.

    `first_repeat` finds the candidate, which is then checked against the
    periodicity definition on the whole window.
    """
    seq = list(seq)
    found = first_repeat(seq)
    if found is None:
        raise NoCycleWithinHorizon(f"no state repeats within the {len(seq)}-step window")
    pre_period, period = found
    for u in range(pre_period, len(seq) - period):
        if seq[u + period] != seq[u]:
            raise NoCycleWithinHorizon(
                "window is inconsistent with the first-repeat cycle; "
                "sequence is not an iterated-function trace"
            )
    return pre_period, period


def oracle_first_repeat(seq):
    """Brute-force first repetition by linear list scanning."""
    for t in range(len(seq)):
        first = seq.index(seq[t])
        if first < t:
            return first, t - first
    return None


def parseval_gap(form, values) -> float:
    """Worst per-coordinate gap between mean squared samples and the
    coefficient energy b_0^2 + sum (a_m^2+b_m^2)/2 (Nyquist term weight 1)."""
    values = np.asarray(values, dtype=float)
    L = form.period
    mean_sq = (values ** 2).mean(axis=0)
    energy = form.b[0] ** 2
    for m in range(1, form.harmonics + 1):
        weight = 1.0 if 2 * m == L else 0.5
        energy = energy + weight * (form.a[m] ** 2 + form.b[m] ** 2)
    return float(np.max(np.abs(mean_sq - energy)))


def quantization_error(p: Point, g) -> float:
    """l2 distance from p to its quantized state; always <= sqrt(d)/K."""
    q = np.array(quantize(p, g).decode().coords)
    return float(np.linalg.norm(np.array(p.coords) - q))


def evaluate_ast(node, coords) -> float:
    """Evaluate an AST at the coordinate vector (indexing is 1-based),
    with the library's FUNCTIONS and `_div`."""
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


def tree_step(trees):
    """The step of the map whose output trees are `trees`, by the
    interpreter: a coordinate tuple to the raw output tuple, with no
    range policing; the first failing tree, left to right, raises."""
    return lambda coords: tuple(evaluate_ast(tree, coords) for tree in trees)


def loop_step(m):
    """One step of the map's compiled loop, on [-inf, inf]: a coordinate
    tuple to the raw output tuple.  A shift map's loop appends x1 alone,
    and the rest of the output is the input shifted down."""
    def step(coords):
        out = []
        m.loop(*coords, 0, 1, out.append, -math.inf, math.inf)
        return (out[0],) + tuple(coords[:-1]) if m.shift else tuple(out)

    return step


def loop_orbit(m, y0: Point, horizon: int, box: bool) -> np.ndarray:
    """The (H+1, d) rows of the orbit from y0, the map's loop run to the
    horizon in one call, resumed only where it stops: with `box` on
    [-1, 1], clamping a stop sample within CLAMP_BAND and raising
    RangeViolation at any other, and otherwise on [-inf, inf], resuming
    at each NaN sample.  A shift map's loop appends x1 alone."""
    d = m.d
    order = slice(None, None, -1) if m.shift else slice(None)
    buf = array("d", y0.coords[order])
    lo, hi = (-1.0, 1.0) if box else (-math.inf, math.inf)
    t, current = 0, y0.coords
    while t < horizon:
        t = m.loop(*current, t, horizon, buf.append, lo, hi)
        current = tuple(buf[-d:])[order]
        if box:
            try:
                current = Point(current).coords
            except OutOfRange:
                raise RangeViolation(f"orbit left the box at t={t}: {list(current)}",
                                     t=t) from None
            buf[-d:] = array("d", current[order])
    if not m.shift:
        return np.frombuffer(buf).reshape(-1, d)
    z = np.frombuffer(buf)  # z(-d+1), ..., z(H)
    return np.array([z[t : t + d][::-1] for t in range(horizon + 1)]).reshape(-1, d)


# The step functions that the builtin maps and the `ar` map had before
# every map kind became compiled expression trees.

def _identity(coords):
    return coords


def _negation(coords):
    return tuple(-c for c in coords)


def _tent(coords):
    return tuple(1.0 - 2.0 * abs(c) for c in coords)


def _doubling(coords):
    return tuple(2.0 * c * c - 1.0 for c in coords)


BUILTIN_STEPS = {"identity": _identity, "negation": _negation, "tent": _tent,
                 "doubling": _doubling}


def ar_step(p):
    """The recurrence step, summing p_l z(t+1-l) in order of l from 0.0."""
    p = tuple(float(v) for v in p)
    shift = len(p) - 1

    def step(coords):
        new0 = 0.0
        for p_l, c in zip(p, coords):
            new0 += p_l * c
        return (new0,) + tuple(coords[:shift])

    return step


def ar_recursion(p, z0, horizon: int) -> np.ndarray:
    """z(0)..z(horizon) of the recurrence with coefficients p from
    z0 = (z(0), z(-1), ..., z(-d+1)), stepped by `ar_step`: the
    recursion that took the coefficients and the initial values apart."""
    step, state = ar_step(p), tuple(float(v) for v in z0)
    out = np.empty(horizon + 1)
    out[0] = state[0]
    for t in range(1, horizon + 1):
        state = step(state)
        out[t] = state[0]
    return out


def char_coefficients(p) -> np.ndarray:
    """Monic characteristic coefficients [1, -p_1, ..., -p_d], highest
    first, of the recurrence with coefficients p."""
    return np.concatenate([[1.0], -np.asarray(p, dtype=float)])


def companion_matrix(p) -> np.ndarray:
    """Matrix C with (z(t),...,z(t-d+1)) -> (z(t+1),...,z(t-d+2))."""
    d = len(p)
    C = np.zeros((d, d))
    C[0, :] = p
    for i in range(1, d):
        C[i, i - 1] = 1.0
    return C


def per_step_orbit(step, y0: Point, horizon: int):
    """The per-step orbit loop that the compiled loop replaced.

    Returns (samples, error): the (n, d) samples computed, and the
    exception generate_orbit raised with them (None when it returned
    them).  A NaN after the first coordinate passes the per-step
    `max(map(abs, ...))` test, so the loop goes on from it and only the
    final scan of the whole array reports it.
    """
    d = y0.d
    current = y0.coords
    buf = array("d", current)
    try:
        for t in range(1, horizon + 1):
            out = step(current)
            if not max(map(abs, out)) <= 1.0:  # outside the box, or NaN up front
                if box_overshoot(out) > CLAMP_BAND:
                    buf.extend(out)
                    break
                out = Point(out).coords  # clamped onto the box
            buf.extend(out)
            current = out
    except AporbitError as exc:
        return np.frombuffer(buf).reshape(-1, d), exc
    values = np.frombuffer(buf).reshape(-1, d)
    bad = np.flatnonzero(box_overshoot(values) > CLAMP_BAND)
    if len(bad):
        t = int(bad[0])
        return values, RangeViolation(f"orbit left the box at t={t}: {values[t].tolist()}", t=t)
    return values, None


def sampled_lipschitz(m, samples: int, seed: int) -> float:
    """The sampled Lipschitz estimate one pair at a time.  Each block of
    LIPSCHITZ_BLOCK samples draws the layout that `maps._sampled_block`
    documents; each point is then stepped by `tree_step`, and each ratio
    is taken by `np.linalg.norm`, an overflowing distance as inf."""
    rng = np.random.default_rng(seed)
    step = tree_step(m.trees)
    d = m.d
    gamma = 0.0
    for a in range(0, samples, LIPSCHITZ_BLOCK):
        n = min(LIPSCHITZ_BLOCK, samples - a)
        u = -1.0 + 2.0 * rng.random((n // 2, 3 * d))
        z = rng.standard_normal((n // 2, d))
        block = []
        for row, offset in zip(u, z):
            w = row[2 * d:]
            block += [(row[:d], row[d:2 * d]), (w, np.clip(w + 1e-3 * offset, -1.0, 1.0))]
        if n % 2:
            last = -1.0 + 2.0 * rng.random(2 * d)
            block.append((last[:d], last[d:]))
        for w, wp in block:
            dist = _norm(w - wp)
            if dist < 1e-6:
                continue
            fw = np.array(step(tuple(w.tolist())))
            fwp = np.array(step(tuple(wp.tolist())))
            with np.errstate(over="ignore", invalid="ignore"):  # inf, or a NaN refused below
                ratio = _norm(fw - fwp) / dist
            if math.isnan(ratio):
                raise RangeViolation(f"images {fw.tolist()}, {fwp.tolist()} have no finite distance")
            gamma = max(gamma, ratio)
    return gamma


def _norm(x) -> float:
    """The Euclidean norm of the vector x by `np.linalg.norm(axis=1)`."""
    return float(np.linalg.norm(x[None], axis=1)[0])


def halton(index: int, base: int) -> float:
    """The radical inverse of `index` in `base`, one digit at a time."""
    f = 1.0
    r = 0.0
    while index > 0:
        f /= base
        r += f * (index % base)
        index //= base
    return r


def probe_points(d: int, samples: int, seed: int) -> np.ndarray:
    """The probe points of `maps.validate_range`, one scalar Halton value
    per entry: 2^d corners, the center, then the shifted sequence."""
    corners = np.array(
        [[1.0 if (i >> axis) & 1 else -1.0 for axis in range(d)]
         for i in range(2 ** d)]
    )
    center = np.zeros((1, d))
    shift = np.random.default_rng(seed).random(d)
    quasi = np.empty((samples, d))
    for i in range(samples):
        for axis in range(d):
            quasi[i, axis] = (halton(i + 1, _PRIMES[axis % len(_PRIMES)]) + shift[axis]) % 1.0
    return np.vstack([corners, center, 2.0 * quasi - 1.0])


def whole_transition_table(shadow) -> TransitionTable:
    """N and the conflicts of the earliest-occurrence transition table from
    one np.unique over the whole shadow's codes."""
    if len(shadow) < 2:
        raise ValueError("need at least two shadow states to observe a transition")
    codes = shadow.codes()
    uniq, first, inverse = np.unique(codes[:-1], return_index=True, return_inverse=True)
    count = int(np.count_nonzero(codes[first + 1][inverse] != codes[1:]))
    return TransitionTable(shadow.grid, len(uniq), Conflicts(count))


def scan_shadow_periodicity(shadow, window: int = SHADOW_WINDOW):
    """Minimal (T, L) of the trailing `window` codes, every pair compared
    one at a time."""
    offset = max(0, len(shadow) - window)
    seq = shadow[offset:].codes().tolist()
    n = len(seq)
    for L in range(1, n // 2 + 1):
        t = n - 1 - L
        while t >= 0 and seq[t + L] == seq[t]:
            t -= 1
        T = t + 1
        if T + 2 * L <= n:
            return T + offset, L
    return None
