"""Self-maps of [-1,1]^d: autoregressive, delay-coordinate, expression-defined.

A map definition evaluates points to points and is expected to send the
box into itself; `validate_range` probes that claim, `estimate_lipschitz`
bounds the stretching ratio used by the error-bound machinery.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import expressions
from .core import CLAMP_BAND, Point
from .errors import (
    AnalyticUnavailable,
    AporbitError,
    DimensionMismatch,
    RangeViolation,
)

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _builtin_identity(coords):
    return coords


def _builtin_negation(coords):
    return tuple(-c for c in coords)


def _builtin_tent(coords):
    return tuple(1.0 - 2.0 * abs(c) for c in coords)


def _builtin_doubling(coords):
    # Componentwise 2c^2 - 1, the angle-doubling map under c = cos(theta).
    return tuple(2.0 * c * c - 1.0 for c in coords)


BUILTIN_MAPS = {
    "identity": _builtin_identity,
    "negation": _builtin_negation,
    "tent": _builtin_tent,
    "doubling": _builtin_doubling,
}


@dataclass(frozen=True)
class MapDefinition:
    """A self-map of [-1,1]^d.

    kind "ar":      coords[0] -> sum(p_l * coords[l-1]), rest shifted down.
    kind "delay":   coords[0] -> expression(coords), rest shifted down.
    kind "expr":    each output coordinate is its own expression.
    kind "builtin": named map from BUILTIN_MAPS.

    `step` maps a coordinate tuple to the raw output tuple, before any
    range policing; it is built once, here, from the definition.
    """

    d: int
    kind: str
    coeffs: tuple[float, ...] | None = None
    update: object | None = None
    exprs: tuple | None = None
    name: str | None = None
    step: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d < 1:
            raise DimensionMismatch(f"dimension must be >= 1, got {self.d}")
        if self.kind not in ("ar", "delay", "expr", "builtin"):
            raise ValueError(f"unknown map kind {self.kind!r}")
        object.__setattr__(self, "step", _build_step(self))

    def __reduce__(self):
        # pickled as its definition; the step is built again on loading
        return (MapDefinition, (self.d, self.kind, self.coeffs, self.update, self.exprs, self.name))


def _ar_step(coeffs, d):
    shift = d - 1

    def step(coords):
        new0 = 0.0
        for p_l, c in zip(coeffs, coords):
            new0 += p_l * c
        return (new0,) + tuple(coords[:shift])

    return step


def _build_step(m: MapDefinition) -> Callable:
    if m.kind == "ar":
        return _ar_step(m.coeffs, m.d)
    if m.kind == "delay":
        return expressions.compile_coords([m.update], passthrough=m.d - 1)
    if m.kind == "expr":
        return expressions.compile_coords(m.exprs)
    if m.name not in BUILTIN_MAPS:
        raise ValueError(f"unknown builtin map {m.name!r}")
    return BUILTIN_MAPS[m.name]


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
    overshoot = max(abs(c) for c in out) - 1.0
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
    probes = _probe_points(m.d, samples, seed)
    worst = -math.inf
    worst_point = probes[0]
    for row in probes.tolist():
        try:
            out = m.step(tuple(row))
        except AporbitError:
            # Treat evaluation failure (e.g. division blow-up) as a
            # range failure at this probe.
            worst = math.inf
            worst_point = row
            break
        overshoot = max(abs(c) for c in out) - 1.0
        if overshoot > worst:
            worst = overshoot
            worst_point = row
    worst = float(max(worst, 0.0))
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
        fw = np.array(m.step(tuple(w)))
        fwp = np.array(m.step(tuple(wp)))
        ratio = float(np.linalg.norm(fw - fwp)) / dist
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
