"""Self-maps of [-1,1]^d, each given by d expression trees.

A map is its output trees, one per coordinate, in the small language of
`expressions`, and nothing else.  The map kinds survive only as input
forms that build trees: an `ar` map is the recurrence step of
`armodel.recurrence_trees`, a `delay` map is an update tree followed by
the shift, an `expr` map its parsed trees, and a builtin map the
coordinate expressions in BUILTIN_MAPS.  A map definition compiles its
trees once into a per-point `step` and an orbit `loop`, and is expected
to send the box into itself; `validate_range` probes that claim.
`estimate_lipschitz` gives the stretching ratio used by the error-bound
machinery, by a method that the trees decide: the spectral norm of the
linear part for an affine map (`expressions.linear_part`), a sampled
estimate for any other.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import expressions
from .armodel import recurrence_trees
from .core import CLAMP_BAND, Point, box_overshoot
from .errors import AporbitError, DimensionMismatch, RangeViolation

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Samples per block of the sampled Lipschitz estimate (even, so that each
# block holds whole pairs of samples).
LIPSCHITZ_BLOCK = 1024


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
    trees once, here, into two functions: `step` maps a coordinate tuple
    to the raw output tuple, before any range policing, and `loop` is the
    orbit loop `loop(c1, ..., cd, t, stop, append) -> t` that
    `generate_orbit` runs (see `expressions.compile_orbit_loop`).
    """

    trees: tuple
    step: Callable = field(init=False, repr=False, compare=False)
    loop: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.trees:
            raise DimensionMismatch("a map needs at least one output tree")
        object.__setattr__(self, "step", expressions.compile_coords(self.trees))
        object.__setattr__(self, "loop", expressions.compile_orbit_loop(self.trees))

    @property
    def d(self) -> int:
        return len(self.trees)

    def __reduce__(self):
        # pickled as its definition; step and loop are built again on loading
        return (MapDefinition, (self.trees,))


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


def evaluate(m: MapDefinition, p: Point) -> Point:
    """Apply the map; raises RangeViolation if the image leaves the box."""
    if p.d != m.d:
        raise DimensionMismatch(f"point dimension {p.d} != map dimension {m.d}")
    out = m.step(p.coords)
    overshoot = box_overshoot(out)
    if overshoot > CLAMP_BAND:
        raise RangeViolation(
            f"map output {out} leaves [-1,1]^{m.d} by {overshoot:.3e}"
        )
    return Point(out)


def _probe_points(d: int, samples: int, seed: int) -> np.ndarray:
    """2^d corners, the center, and a shifted Halton sequence in [-1,1]^d.

    Each axis takes the radical inverse of the indices 1..samples digit
    by digit; an index whose digits have run out adds exactly 0.0.
    """
    corners = np.array(
        [[1.0 if (i >> axis) & 1 else -1.0 for axis in range(d)]
         for i in range(2 ** d)]
    )
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
    points; passes iff the worst overshoot stays within the clamp band.
    """
    if samples < 0:
        raise ValueError("samples must be >= 0")
    probes = _probe_points(m.d, samples, seed)
    outs = []
    for row in probes.tolist():
        try:
            outs.append(m.step(tuple(row)))
        except AporbitError:
            # Treat evaluation failure (e.g. division blow-up) as a
            # range failure at this probe.
            break
    if len(outs) < len(probes):
        worst_at, worst = len(outs), math.inf
    else:
        over = box_overshoot(np.array(outs, dtype=float))
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
    stretching.  `samples` and `seed` act only on a sampled estimate.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    A = expressions.linear_part(m.trees)
    if A is not None:
        return LipschitzEstimate(gamma=float(np.linalg.norm(A, 2)), method="analytic")

    rng = np.random.default_rng(seed)
    gamma = 0.0
    for a in range(0, samples, LIPSCHITZ_BLOCK):
        gamma = max(gamma, _sampled_block(m, rng, min(LIPSCHITZ_BLOCK, samples - a)))
    return LipschitzEstimate(gamma=gamma, method="sampled", sample_count=samples)


def _sampled_block(m: MapDefinition, rng, n: int) -> float:
    """Largest ratio over the next n samples of `estimate_lipschitz`.

    Sample i is a point w_i and a partner w'_i: for even i another
    uniform point, for odd i w_i plus a normal offset of scale 1e-3,
    clipped to the box.  Each pair of samples draws rng.random(3d)
    (w_i, w'_i, w_i+1) and then rng.standard_normal(d), and a last odd
    sample draws rng.random(2d); `-1.0 + 2.0*u` and `0.0 + 1e-3*z` are
    what `uniform` and `normal` compute, so the stream and the points are
    those of one `uniform`/`normal` call per point.  Distances are taken
    by `vecdot`, the dot product that `np.linalg.norm` takes of a vector.
    Pairs closer than 1e-6 are skipped; the rest are stepped in sample
    order, and the first failure in that order is raised: a step's own
    error, or RangeViolation for images with no finite distance.
    """
    d = m.d
    pairs, odd = divmod(n, 2)
    u = np.empty((pairs, 3 * d))
    z = np.empty((pairs, d))
    draw_uniform, draw_normal = rng.random, rng.standard_normal
    for u_row, z_row in zip(u, z):
        draw_uniform(out=u_row)
        draw_normal(out=z_row)
    v = (-1.0 + 2.0 * u).reshape(pairs, 3, d)
    w = np.empty((n, d))
    wp = np.empty((n, d))
    w[0:2 * pairs:2] = v[:, 0]
    wp[0:2 * pairs:2] = v[:, 1]
    w[1::2] = v[:, 2]
    wp[1::2] = np.clip(w[1::2] + (0.0 + 1e-3 * z), -1.0, 1.0)
    if odd:
        w[-1], wp[-1] = (-1.0 + 2.0 * draw_uniform(2 * d)).reshape(2, d)
    diff = w - wp
    dist = np.sqrt(np.vecdot(diff, diff))
    kept = ~(dist < 1e-6)
    points = np.stack((w[kept], wp[kept]), axis=1).reshape(-1, d)  # w_i, w'_i, w_i+1, ...
    step = m.step
    images = []
    error = None
    try:
        for row in points.tolist():
            images.append(step(tuple(row)))
    except Exception as exc:  # raised below, unless a NaN pair comes before it
        error = exc
    f = np.array(images[:len(images) // 2 * 2], dtype=float).reshape(-1, 2, d)
    diff = f[:, 0] - f[:, 1]
    ratios = np.sqrt(np.vecdot(diff, diff)) / dist[kept][:len(f)]
    bad = np.flatnonzero(np.isnan(ratios))
    if len(bad):
        fw, fwp = f[bad[0]]
        raise RangeViolation(f"images {fw.tolist()}, {fwp.tolist()} have no finite distance")
    if error is not None:
        raise error
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
