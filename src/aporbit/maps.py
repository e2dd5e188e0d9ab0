"""Self-maps of [-1,1]^d, each given by d expression trees.

A map is its output trees, one per coordinate, in the small language of
`expressions`, and nothing else.  The map kinds survive only as input
forms that build trees: an `ar` map is the recurrence step of
`recurrence_trees`, a `delay` map is an update tree followed by the
shift, an `expr` map its parsed trees, and a builtin map the coordinate
expressions in BUILTIN_MAPS.  The `ar` input form, with the checks on
its coefficients, lives here, so that `armodel` runs the algebraic
route on the map it builds.  A map definition compiles its
trees once into an orbit `loop`, the only per-point evaluator, which its
`iterate` alone runs, ORBIT_BLOCK steps a call, and on first use into
`batch`, the step of an array of points.  The loop is a function of the
state, so once `iterate` finds the state it has reached, bit for bit,
among the last REPEAT_WINDOW states, it copies the cycle up to the
horizon instead of running the loop.  A map is expected to send the box
into itself;
`validate_range` probes that claim.
`estimate_lipschitz` gives the stretching ratio used by the error-bound
machinery, by a method that the trees decide: the spectral norm of the
linear part for an affine map (`expressions.linear_part`), a sampled
estimate for any other, whose random points are drawn and stepped
LIPSCHITZ_BLOCK samples at a time.
"""

from __future__ import annotations

import functools
import json
import math
from array import array
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import expressions
from .core import CLAMP_BAND, OrbitSeries, Point, _repeat_lag, box_overshoot
from .errors import DimensionMismatch, OutOfRange, RangeViolation
from .expressions import BinOp, Num, Var

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Samples per block of the sampled Lipschitz estimate (even, so that each
# block holds whole pairs of samples).
LIPSCHITZ_BLOCK = 1024

# Steps per call of a map's orbit loop in `MapDefinition.iterate`, and the
# earlier states among which it looks for the state each call ends on.
ORBIT_BLOCK = 1024
REPEAT_WINDOW = 64


# The builtin maps, each as the expression of coordinate i in x1..xd.
BUILTIN_MAPS = {
    "identity": "x{i}",
    "negation": "-x{i}",
    "tent": "1 - 2*abs(x{i})",
    "doubling": "2*x{i}*x{i} - 1",  # the angle-doubling map under c = cos(theta)
}


@dataclass(frozen=True)
class MapDefinition:
    """A self-map of [-1,1]^d: output coordinate i is `trees[i]`, an
    expression tree over x1..xd, and d is the number of trees.

    The trees are the map's only field; whether the map is affine is read
    off them (`expressions.linear_part`).  `expressions` compiles the
    trees once, here, into `loop`, the orbit loop
    `loop(c1, ..., cd, t, stop, append, lo, hi) -> t` that stops at the
    first sample outside [lo, hi] or NaN (see
    `expressions.compile_orbit_loop`); `iterate` is its one caller.
    `shift` is read off the trees once too: whether trees 2..d are
    x1..x(d-1) (`expressions.is_shift`), so that the loop appends only x1
    of each sample.  Every `ar` and `delay` map of d >= 2 is one.
    `batch`, the step of an (n, d) array of points with the index of the
    first point where a step raises (see `expressions.compile_batch`), is
    compiled on first use, as most maps never need it.
    """

    trees: tuple
    loop: Callable = field(init=False, repr=False, compare=False)
    shift: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.trees:
            raise DimensionMismatch("a map needs at least one output tree")
        object.__setattr__(self, "loop", expressions.compile_orbit_loop(self.trees))
        object.__setattr__(self, "shift", expressions.is_shift(self.trees))

    def iterate(self, y0: Point, horizon: int, *, box: bool) -> OrbitSeries:
        """The orbit y(0)..y(horizon) from y0, as a series of (H+1, d) rows.

        The loop runs the steps, at most ORBIT_BLOCK a call.  With `box` it
        runs on [-1, 1] and stops at a sample outside the box or NaN: a
        sample within CLAMP_BAND of the box is clamped onto it (`Point`)
        and the loop resumes from there; any other raises RangeViolation.
        Without `box` it runs on [-inf, inf], so only a NaN sample stops
        it, and it resumes from that sample: nothing polices the orbit.

        After each call the bytes of the state reached are looked for among
        the REPEAT_WINDOW states before it.  At a repeat with lag P the
        loop would only write the last P samples again, the same bytes
        with the same checks passed, so they are copied up to the horizon,
        ORBIT_BLOCK steps or one cycle at a time, and the series carries
        the lag (`OrbitSeries.lag`).

        A non-shift map's loop appends every coordinate, and the rows are
        the buffer read as (H+1, d).  A shift map's loop appends only x1,
        so the buffer holds z(-d+1), ..., z(H): y0 reversed as the
        history, then one value a step, and a state is any d values in a
        row.  The rows are then a strided view of it whose row t reads
        (z(t), ..., z(t-d+1)) backwards from z(t), 8 B a sample.
        """
        if y0.d != self.d:
            raise DimensionMismatch(f"y0 dimension {y0.d} != map dimension {self.d}")
        if horizon < 0:
            raise ValueError("horizon must be >= 0")
        d = self.d
        order = slice(None, None, -1) if self.shift else slice(None)  # buffer order of a sample
        step = 1 if self.shift else d  # values a step appends
        buf = array("d", y0.coords[order])
        lo, hi = (-1.0, 1.0) if box else (-math.inf, math.inf)
        t, current, lag = 0, y0.coords, 0
        while t < horizon and not lag:
            t = self.loop(*current, t, min(t + ORBIT_BLOCK, horizon), buf.append, lo, hi)
            current = tuple(buf[-d:])[order]
            if box:
                try:
                    current = Point(current).coords  # clamped onto the box
                except OutOfRange:
                    raise RangeViolation(f"orbit left the box at t={t}: {list(current)}",
                                         t=t) from None
                buf[-d:] = array("d", current[order])
            lag = _repeat_lag(buf[-(REPEAT_WINDOW * step + d):].tobytes(), 8 * d, 8 * step)
        if t < horizon:  # stopped at a repeat: whole cycles, about a block of them at a time
            cycle = buf[-lag * step:] * max(1, ORBIT_BLOCK // lag)
            for a in range(t, horizon, len(cycle) // step):
                buf.extend(cycle[:(horizon - a) * step])
        offset, strides = (8 * (d - 1), (8, -8)) if self.shift else (0, (8 * d, 8))
        return OrbitSeries(np.ndarray((horizon + 1, d), float, buf, offset, strides), lag or None)

    @functools.cached_property
    def batch(self) -> Callable:
        return expressions.compile_batch(self.trees)

    @property
    def d(self) -> int:
        return len(self.trees)

    def __reduce__(self):
        # pickled as its definition; loop and shift are built again on loading
        return (MapDefinition, (self.trees,))


def _number(v, name: str) -> float:
    """v as a float; a boolean is refused, though float(True) is 1.0."""
    if isinstance(v, bool):
        raise ValueError(f"{name} = {v!r} is a boolean, not a number")
    return float(v)


def _finite_coefficients(p) -> tuple[float, ...]:
    """The coefficients as floats; a boolean, NaN or infinite one is refused."""
    p = tuple(_number(v, f"recurrence coefficient p_{l}") for l, v in enumerate(p, start=1))
    for l, v in enumerate(p, start=1):
        if not math.isfinite(v):
            raise ValueError(f"recurrence coefficient p_{l} = {v!r} is not finite")
    return p


def recurrence_trees(p) -> list:
    """The step (z(t), ..., z(t-d+1)) -> (z(t+1), ..., z(t-d+2)) of
    z(t+1) = p_1 z(t) + ... + p_d z(t-d+1) as d expression trees:
    0.0 + p_1 x1 + ... + p_d xd, summed in order of l from +0.0, then
    x1..x(d-1) shifted down."""
    p = _finite_coefficients(p)
    if not p:
        raise DimensionMismatch("need at least one coefficient")
    update = Num(0.0)
    for l, p_l in enumerate(p, start=1):
        update = BinOp("+", update, BinOp("*", Num(p_l), Var(l)))
    return [update] + [Var(i) for i in range(1, len(p))]


def ar_map(p) -> MapDefinition:
    return MapDefinition(tuple(recurrence_trees(p)))


def delay_map(source: str, d: int) -> MapDefinition:
    if d < 1:
        raise DimensionMismatch(f"dimension must be >= 1, got {d}")
    update = expressions.parse_expression(source, d)
    return MapDefinition((update,) + tuple(expressions.Var(i) for i in range(1, d)))


def expression_map(sources) -> MapDefinition:
    sources = list(sources)
    return MapDefinition(tuple(expressions.parse_expression(s, len(sources)) for s in sources))


def builtin_map(name: str, d: int) -> MapDefinition:
    if name not in BUILTIN_MAPS:
        raise ValueError(f"unknown builtin map {name!r}")
    return expression_map(BUILTIN_MAPS[name].format(i=i) for i in range(1, d + 1))


def _probe_points(d: int, samples: int, seed: int) -> np.ndarray:
    """2^d corners, the center, and a shifted Halton sequence in [-1,1]^d.

    Each axis takes the radical inverse of the indices 1..samples digit
    by digit; an index whose digits have run out adds exactly 0.0.
    """
    corners = np.where((np.arange(2 ** d)[:, None] >> np.arange(d)) & 1, 1.0, -1.0)
    center = np.zeros((1, d))
    rng = np.random.default_rng(seed)
    shift = rng.random(d)
    quasi = np.empty((samples, d))
    for axis in range(d):
        base = _PRIMES[axis % len(_PRIMES)]
        idx = np.arange(1, samples + 1)
        f = 1.0
        r = np.zeros(samples)
        while idx.any():
            f /= base
            r += f * (idx % base)
            idx //= base
        quasi[:, axis] = (r + shift[axis]) % 1.0
    quasi = 2.0 * quasi - 1.0
    return np.vstack([corners, center, quasi])


@dataclass(frozen=True)
class RangeReport:
    passed: bool
    max_overshoot: float
    worst_point: tuple[float, ...]
    points_checked: int

    def to_json(self):
        return {
            "passed": self.passed,
            "max_overshoot": self.max_overshoot,
            "worst_point": list(self.worst_point),
            "points_checked": self.points_checked,
        }


def validate_range(m: MapDefinition, samples: int = 256, seed: int = 0) -> RangeReport:
    """Probe whether the map sends [-1,1]^d into itself.

    Checks all corners, the center and `samples` quasi-random interior
    points, all stepped at once by `m.batch`; passes iff the worst
    overshoot stays within the clamp band.  A probe where a step raises
    is an infinite overshoot, and the first such probe is the worst point.
    """
    if samples < 0:
        raise ValueError("samples must be >= 0")
    probes = _probe_points(m.d, samples, seed)
    images, first = m.batch(probes)
    if first < len(probes):
        # an evaluation failure (e.g. division blow-up) is a range failure
        # at the first probe where a step raises
        worst_at, worst = first, math.inf
    else:
        over = box_overshoot(images)
        worst_at = int(np.argmax(over))
        worst = float(max(over[worst_at], 0.0))
    worst_point = probes[worst_at]
    return RangeReport(
        passed=bool(worst <= CLAMP_BAND),
        max_overshoot=worst,
        worst_point=tuple(float(x) for x in worst_point),
        points_checked=len(probes),
    )


@dataclass(frozen=True)
class LipschitzEstimate:
    gamma: float
    method: str  # "analytic" (the exact constant) or "sampled" (lower bound)
    sample_count: int | None = None

    def to_json(self):
        return {
            "gamma": self.gamma,
            "method": self.method,
            "sample_count": self.sample_count,
        }


def estimate_lipschitz(m: MapDefinition, samples: int = 4096, seed: int = 0) -> LipschitzEstimate:
    """Bound the stretching ratio sup |f(W)-f(W')| / |W-W'| over the box.

    An affine map x -> A x + b gets the spectral norm of A, its exact
    Lipschitz constant; for an `ar` map A is the companion matrix.  Any
    other map gets the max ratio over `samples` random pairs, a lower
    bound; half of the pairs use a small offset to probe local
    stretching.  The pairs are drawn and stepped in blocks of
    LIPSCHITZ_BLOCK samples (`_sampled_block`), at most three Generator
    calls a block.  `samples` and `seed` act only on a sampled estimate.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    affine = expressions.linear_part(m.trees)
    if affine is not None:
        return LipschitzEstimate(gamma=float(np.linalg.norm(affine[0], 2)), method="analytic")

    rng = np.random.default_rng(seed)
    gamma = 0.0
    for a in range(0, samples, LIPSCHITZ_BLOCK):
        gamma = max(gamma, _sampled_block(m, rng, min(LIPSCHITZ_BLOCK, samples - a)))
    return LipschitzEstimate(gamma=gamma, method="sampled", sample_count=samples)


def _sampled_block(m: MapDefinition, rng, n: int) -> float:
    """Largest ratio over the next n samples of `estimate_lipschitz`.

    Sample i is a point w_i and a partner w'_i: for even i another
    uniform point, for odd i w_i plus a normal offset of scale 1e-3,
    clipped to the box.  The block draws rng.random((n // 2, 3d)), whose
    row k holds w_2k, w'_2k and w_2k+1 as `-1.0 + 2.0*u`, then
    rng.standard_normal((n // 2, d)), whose row k is the offset of
    sample 2k+1, and for odd n rng.random(2d) for the last sample.
    Pairs closer than 1e-6 are skipped; the points of the rest are
    stepped in one `m.batch` call, whose images are those of one step of
    the orbit loop, bit for bit.  A distance is the square root of the
    row's sum of squares, the bits of `np.linalg.norm(axis=1)`, and an
    image distance that overflows is inf.  The first failure in sample
    order is raised, as stepping the points one at a time would meet it:
    RangeViolation for a pair whose images have no finite distance, or
    the error raised at the first point where a step fails, by one step
    of the orbit from that point.
    """
    d = m.d
    pairs, odd = divmod(n, 2)
    u = -1.0 + 2.0 * rng.random((pairs, 3 * d))
    z = rng.standard_normal((pairs, d))
    pts = np.empty((n, 2, d))  # row i: w_i, w'_i
    pts[0:2 * pairs:2] = u[:, :2 * d].reshape(pairs, 2, d)
    pts[1::2, 0] = u[:, 2 * d:]
    pts[1::2, 1] = np.clip(pts[1::2, 0] + 1e-3 * z, -1.0, 1.0)
    if odd:
        pts[-1] = (-1.0 + 2.0 * rng.random(2 * d)).reshape(2, d)
    diff = pts[:, 0] - pts[:, 1]
    dist = np.sqrt((diff * diff).sum(axis=1))
    kept = ~(dist < 1e-6)
    points = pts[kept].reshape(-1, d)  # w_i, w'_i, w_i+1, ...
    images, first = m.batch(points)
    f = images[:first // 2 * 2].reshape(-1, 2, d)
    with np.errstate(over="ignore", invalid="ignore"):  # inf, or a NaN refused below
        diff = f[:, 0] - f[:, 1]
        ratios = np.sqrt((diff * diff).sum(axis=1)) / dist[kept][:len(f)]
    bad = np.flatnonzero(np.isnan(ratios))
    if len(bad):
        fw, fwp = f[bad[0]]
        raise RangeViolation(f"images {fw.tolist()}, {fwp.tolist()} have no finite distance")
    if first < len(points):  # one step from that point raises its error
        m.iterate(Point(points[first].tolist()), 1, box=False)
    return float(np.max(ratios, initial=0.0))


def map_from_json(data: dict) -> MapDefinition:
    if not isinstance(data, dict):
        raise ValueError(f"a map definition is a JSON object, got {data!r}")
    kind = data.get("kind")
    d = data.get("d")
    if d is not None and (isinstance(d, bool) or not isinstance(d, int)):
        raise ValueError(f"map dimension d must be an integer, got {d!r}")
    if kind == "ar":
        m = ar_map(data["p"])
    elif kind == "delay":
        m = delay_map(data["expr"], data["d"])
    elif kind == "expr":
        m = expression_map(data["exprs"])
    elif kind == "builtin":
        m = builtin_map(data["name"], data["d"])
    else:
        raise ValueError(f"unknown map kind {kind!r} in definition")
    if d is not None and d != m.d:
        raise DimensionMismatch(f"definition gives d = {d} for a map of dimension {m.d}")
    return m


def load_map(path) -> MapDefinition:
    with open(path) as fh:
        return map_from_json(json.load(fh))
