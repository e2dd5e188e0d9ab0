"""Self-maps of [-1,1]^d: autoregressive, delay-coordinate, expression-defined, builtin.

Every kind is d expression trees, one per output coordinate: an `ar` map
is the recurrence step of `armodel.recurrence_trees`, a builtin map one
of the coordinate expressions in BUILTIN_MAPS.  A map definition compiles
its trees once into a per-point `step` and an orbit `loop`, and is
expected to send the box into itself; `validate_range` probes that
claim, `estimate_lipschitz` bounds the stretching ratio used by the
error-bound machinery.
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
from .errors import (
    AnalyticUnavailable,
    AporbitError,
    DimensionMismatch,
    RangeViolation,
)

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


# The builtin maps, each as the expression of coordinate i in x1..xd.
BUILTIN_MAPS = {
    "identity": "x{i}",
    "negation": "-x{i}",
    "tent": "1 - 2*abs(x{i})",
    "doubling": "2*x{i}*x{i} - 1",  # the angle-doubling map under c = cos(theta)
}


@dataclass(frozen=True)
class MapDefinition:
    """A self-map of [-1,1]^d.

    kind "ar":      coords[0] -> 0.0 + sum(p_l * coords[l-1]), rest shifted down.
    kind "delay":   coords[0] -> expression(coords), rest shifted down.
    kind "expr":    each output coordinate is its own expression.
    kind "builtin": named map from BUILTIN_MAPS.

    Every kind is a list of d output trees, which `expressions` compiles
    once, here, into two functions: `step` maps a coordinate tuple to the
    raw output tuple, before any range policing, and `loop` is the orbit
    loop `loop(c1, ..., cd, t, stop, append) -> t` that `generate_orbit`
    runs (see `expressions.compile_orbit_loop`).
    """

    d: int
    kind: str
    coeffs: tuple[float, ...] | None = None
    update: object | None = None
    exprs: tuple | None = None
    name: str | None = None
    step: Callable = field(init=False, repr=False, compare=False)
    loop: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d < 1:
            raise DimensionMismatch(f"dimension must be >= 1, got {self.d}")
        if self.kind not in ("ar", "delay", "expr", "builtin"):
            raise ValueError(f"unknown map kind {self.kind!r}")
        nodes = _output_trees(self)
        object.__setattr__(self, "step", expressions.compile_coords(nodes))
        object.__setattr__(self, "loop", expressions.compile_orbit_loop(nodes))

    def __reduce__(self):
        # pickled as its definition; step and loop are built again on loading
        return (MapDefinition, (self.d, self.kind, self.coeffs, self.update, self.exprs, self.name))


def _output_trees(m: MapDefinition) -> list:
    """The map's d output expression trees, one per coordinate."""
    if m.kind == "ar":
        if len(m.coeffs) != m.d:
            raise DimensionMismatch(f"{len(m.coeffs)} coefficients for dimension {m.d}")
        return recurrence_trees(m.coeffs)
    if m.kind == "delay":
        return [m.update] + [expressions.Var(i) for i in range(1, m.d)]
    if m.kind == "expr":
        if len(m.exprs) != m.d:
            raise DimensionMismatch(f"{len(m.exprs)} expressions for dimension {m.d}")
        return list(m.exprs)
    if m.name not in BUILTIN_MAPS:
        raise ValueError(f"unknown builtin map {m.name!r}")
    return [expressions.parse_expression(BUILTIN_MAPS[m.name].format(i=i), m.d)
            for i in range(1, m.d + 1)]


def ar_map(coeffs) -> MapDefinition:
    coeffs = tuple(float(c) for c in coeffs)
    return MapDefinition(d=len(coeffs), kind="ar", coeffs=coeffs)


def delay_map(source: str, d: int) -> MapDefinition:
    ast = expressions.parse_expression(source, d)
    return MapDefinition(d=d, kind="delay", update=ast)


def expression_map(sources) -> MapDefinition:
    sources = list(sources)
    d = len(sources)
    asts = tuple(expressions.parse_expression(s, d) for s in sources)
    return MapDefinition(d=d, kind="expr", exprs=asts)


def builtin_map(name: str, d: int) -> MapDefinition:
    if name not in BUILTIN_MAPS:
        raise ValueError(f"unknown builtin map {name!r}")
    return MapDefinition(d=d, kind="builtin", name=name)


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


def _halton(index: int, base: int) -> float:
    f = 1.0
    r = 0.0
    while index > 0:
        f /= base
        r += f * (index % base)
        index //= base
    return r


def _probe_points(d: int, samples: int, seed: int) -> np.ndarray:
    """2^d corners, the center, and a shifted Halton sequence in [-1,1]^d."""
    corners = np.array(
        [[1.0 if (i >> axis) & 1 else -1.0 for axis in range(d)]
         for i in range(2 ** d)]
    )
    center = np.zeros((1, d))
    rng = np.random.default_rng(seed)
    shift = rng.random(d)
    quasi = np.empty((samples, d))
    for i in range(samples):
        for axis in range(d):
            quasi[i, axis] = (_halton(i + 1, _PRIMES[axis % len(_PRIMES)])
                              + shift[axis]) % 1.0
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


def companion_matrix(coeffs) -> np.ndarray:
    """Matrix C with (z(t),...,z(t-d+1)) -> (z(t+1),...,z(t-d+2))."""
    d = len(coeffs)
    C = np.zeros((d, d))
    C[0, :] = coeffs
    for i in range(1, d):
        C[i, i - 1] = 1.0
    return C


@dataclass(frozen=True)
class LipschitzEstimate:
    gamma: float
    method: str  # "analytic" (upper bound) or "sampled" (lower bound)
    sample_count: int | None = None

    @property
    def is_lower_bound(self) -> bool:
        return self.method == "sampled"

    def to_json(self):
        return {
            "gamma": self.gamma,
            "method": self.method,
            "sample_count": self.sample_count,
        }


def estimate_lipschitz(
    m: MapDefinition,
    mode: str = "auto",
    samples: int = 4096,
    seed: int = 0,
) -> LipschitzEstimate:
    """Bound the stretching ratio sup |f(W)-f(W')| / |W-W'| over the box.

    Analytic mode (linear "ar" maps only) returns the spectral norm of the
    companion matrix, a true upper bound.  Sampled mode returns the max
    ratio over random pairs, a lower bound; half of the pairs use a small
    offset to probe local stretching.
    """
    if mode == "auto":
        mode = "analytic" if m.kind == "ar" else "sampled"
    if mode == "analytic":
        if m.kind != "ar":
            raise AnalyticUnavailable(
                f"analytic Lipschitz bound only for 'ar' maps, got {m.kind!r}"
            )
        gamma = float(np.linalg.norm(companion_matrix(m.coeffs), 2))
        return LipschitzEstimate(gamma=gamma, method="analytic")
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    if samples < 1:
        raise ValueError("samples must be >= 1 in sampled mode")

    rng = np.random.default_rng(seed)
    gamma = 0.0
    for i in range(samples):
        w = rng.uniform(-1.0, 1.0, m.d)
        if i % 2 == 0:
            wp = rng.uniform(-1.0, 1.0, m.d)
        else:
            wp = np.clip(w + rng.normal(scale=1e-3, size=m.d), -1.0, 1.0)
        dist = float(np.linalg.norm(w - wp))
        if dist < 1e-6:
            continue
        fw = np.array(m.step(tuple(w.tolist())))
        fwp = np.array(m.step(tuple(wp.tolist())))
        ratio = float(np.linalg.norm(fw - fwp)) / dist
        if math.isnan(ratio):
            raise RangeViolation(f"images {fw.tolist()}, {fwp.tolist()} have no finite distance")
        gamma = max(gamma, ratio)
    return LipschitzEstimate(gamma=gamma, method="sampled", sample_count=samples)


def map_to_json(m: MapDefinition) -> dict:
    out = {"d": m.d, "kind": m.kind}
    if m.kind == "ar":
        out["p"] = list(m.coeffs)
    elif m.kind == "delay":
        out["expr"] = expressions.to_source(m.update)
    elif m.kind == "expr":
        out["exprs"] = [expressions.to_source(e) for e in m.exprs]
    else:
        out["name"] = m.name
    return out


def map_from_json(data: dict) -> MapDefinition:
    kind = data.get("kind")
    if kind == "ar":
        return ar_map(data["p"])
    if kind == "delay":
        return delay_map(data["expr"], int(data["d"]))
    if kind == "expr":
        return expression_map(data["exprs"])
    if kind == "builtin":
        return builtin_map(data["name"], int(data["d"]))
    raise ValueError(f"unknown map kind {kind!r} in definition")


def load_map(path) -> MapDefinition:
    with open(path) as fh:
        return map_from_json(json.load(fh))
