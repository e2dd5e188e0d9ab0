"""Domain types: points in [-1,1]^d, uniform grids, quantized states, orbits.

The grid on each axis has K+1 nodes a_k = 2k/K - 1 (k = 0..K), spacing 2/K.
Quantization snaps each coordinate to the nearest node, resolving exact
midpoints toward the larger node; the resulting l2 error never exceeds
sqrt(d)/K.

`Point` and `GridState` are the boundary types for single values.  Orbits
and state sequences are stored as arrays: `OrbitSeries` holds an (H+1, d)
float array, `GridStates` an (n, d) integer index array.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, OutOfRange

# Values this far outside [-1,1] are clamped to the boundary; anything
# farther is rejected.  Tolerates floating-point overshoot of map evaluation.
CLAMP_BAND = 1e-12


def _clamp_coord(x: float) -> float:
    x = float(x)
    if x > 1.0:
        if x - 1.0 > CLAMP_BAND:
            raise OutOfRange(f"coordinate {x!r} outside [-1,1]")
        return 1.0
    if x < -1.0:
        if -1.0 - x > CLAMP_BAND:
            raise OutOfRange(f"coordinate {x!r} outside [-1,1]")
        return -1.0
    return x


@dataclass(frozen=True)
class Point:
    """A state vector in [-1,1]^d.  Immutable; validated on construction."""

    coords: tuple[float, ...]

    def __init__(self, coords):
        object.__setattr__(self, "coords", tuple(_clamp_coord(c) for c in coords))
        if not self.coords:
            raise DimensionMismatch("a point needs at least one coordinate")

    @property
    def d(self) -> int:
        return len(self.coords)

    def as_array(self) -> np.ndarray:
        return np.array(self.coords, dtype=float)

    def to_json(self):
        return list(self.coords)


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [-1,1]^d with K+1 nodes per axis."""

    K: int
    d: int

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")

    def node(self, k: int) -> float:
        """Axis node a_k = 2k/K - 1."""
        return 2.0 * k / self.K - 1.0

    def axis_nodes(self) -> np.ndarray:
        return np.array([self.node(k) for k in range(self.K + 1)])

    @property
    def spacing(self) -> float:
        return 2.0 / self.K

    @property
    def state_count(self) -> int:
        """Total number of grid states, (K+1)^d."""
        return (self.K + 1) ** self.d

    def to_json(self):
        return {"K": self.K, "d": self.d}


@dataclass(frozen=True)
class GridState:
    """A grid point identified by its integer index vector.

    Indices are stored exactly so states can be compared, hashed and used
    as transition-table keys without floating-point ambiguity.
    """

    indices: tuple[int, ...]
    grid: GridSpec

    def __init__(self, indices, grid: GridSpec):
        idx = tuple(int(i) for i in indices)
        if len(idx) != grid.d:
            raise DimensionMismatch(
                f"{len(idx)} indices for a grid of dimension {grid.d}"
            )
        for i in idx:
            if not 0 <= i <= grid.K:
                raise OutOfRange(f"index {i} outside 0..{grid.K}")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "grid", grid)

    def decode(self) -> Point:
        return Point(self.grid.node(i) for i in self.indices)

    def decode_array(self) -> np.ndarray:
        return np.array([self.grid.node(i) for i in self.indices])

    def to_json(self):
        return list(self.indices)


class GridStates(Sequence):
    """A sequence of grid states stored as an (n, d) int64 index array.

    The pipeline computes on `indices` and `codes()`; indexing yields
    GridState objects (a slice yields GridStates).  Compares equal to
    another GridStates on the same grid with the same indices, and to a
    list or tuple of the same GridState objects.
    """

    def __init__(self, indices: np.ndarray, grid: GridSpec):
        self.indices = indices
        self.grid = grid

    @classmethod
    def of(cls, states, grid: GridSpec | None = None) -> GridStates:
        """From GridState objects on one grid (`grid` is needed when empty)."""
        states = list(states)
        if grid is None:
            if not states:
                raise ValueError("an empty state sequence needs its grid")
            grid = states[0].grid
        if any(s.grid != grid for s in states):
            raise ValueError("states of different grids in one sequence")
        indices = np.array([s.indices for s in states], dtype=np.int64)
        return cls(indices.reshape(len(states), grid.d), grid)

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, t):
        if isinstance(t, slice):
            return GridStates(self.indices[t], self.grid)
        return GridState(self.indices[t].tolist(), self.grid)

    def __eq__(self, other):
        if isinstance(other, GridStates):
            return self.grid == other.grid and np.array_equal(self.indices, other.indices)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"GridStates(n={len(self)}, grid={self.grid})"

    def nodes(self) -> np.ndarray:
        """Decoded node coordinates, shape (n, d); equal to decode_array per state."""
        return 2.0 * self.indices / self.grid.K - 1.0

    def codes(self) -> np.ndarray:
        """One int64 per state, equal exactly where the states are equal.

        The mixed-radix code sum_i idx_i (K+1)^(d-1-i) when (K+1)^d fits in
        int64; otherwise the rank of each index row among the distinct
        rows, which is only comparable within this sequence.
        """
        if self.grid.state_count > 2 ** 63:
            _, rank = np.unique(self.indices, axis=0, return_inverse=True)
            return rank.reshape(-1).astype(np.int64)
        radix = self.grid.K + 1
        codes = self.indices[:, 0].copy()
        for j in range(1, self.grid.d):
            codes *= radix
            codes += self.indices[:, j]
        return codes


class _PointRows(Sequence):
    # The rows of an orbit array as Point objects, built on access.
    def __init__(self, values: np.ndarray):
        self._values = values

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, t):
        if isinstance(t, slice):
            return [Point(row) for row in self._values[t].tolist()]
        return Point(self._values[t].tolist())


@dataclass(frozen=True, eq=False)
class OrbitSeries:
    """Samples y(0)..y(H) of an orbit y(t+1) = map(y(t)).

    Built from Point samples, or from an (H+1, d) float array that the
    series takes over; either way the samples live in the read-only array
    `values`, and `samples` views its rows as Points.
    """

    d: int
    horizon: int
    values: np.ndarray = field(repr=False)

    def __init__(self, samples):
        if isinstance(samples, np.ndarray):
            values = np.asarray(samples, dtype=float)
            if values.ndim != 2 or values.shape[1] < 1:
                raise DimensionMismatch(f"orbit array of shape {values.shape}, need (H+1, d)")
        else:
            samples = tuple(samples)
            d = samples[0].d if samples else 1
            for p in samples:
                if p.d != d:
                    raise DimensionMismatch("orbit samples of mixed dimension")
            values = np.array([p.coords for p in samples], dtype=float).reshape(-1, d)
        if len(values) == 0:
            raise ValueError("an orbit needs at least the initial sample")
        values.flags.writeable = False
        object.__setattr__(self, "d", values.shape[1])
        object.__setattr__(self, "horizon", len(values) - 1)
        object.__setattr__(self, "values", values)

    @property
    def samples(self) -> Sequence:
        return _PointRows(self.values)

    def as_array(self) -> np.ndarray:
        """Shape (H+1, d), read-only."""
        return self.values


def _quantize_axis(c: float, g: GridSpec) -> int:
    # Nearest node with exact midpoints resolved to the larger node.  In
    # node-index space u = (c+1)K/2 the decision boundary sits at the
    # half-integers; away from it the float computation is already exact,
    # on it we fall back to rational arithmetic so ties resolve by the
    # true values of c and the nodes 2k/K - 1, not their roundings.
    K = g.K
    u = (c + 1.0) * K / 2.0
    k = math.floor(u)
    frac = u - k
    if abs(frac - 0.5) > 1e-9:
        idx = k + 1 if frac > 0.5 else k
    else:
        uq = (Fraction(c) + 1) * K / 2
        kq = math.floor(uq)
        idx = kq + 1 if uq - kq >= Fraction(1, 2) else kq
    return min(max(idx, 0), K)


def _quantize_rows(Y: np.ndarray, g: GridSpec) -> np.ndarray:
    # _quantize_axis on every entry of Y, vectorized: the same float u and
    # the same decision, with every entry that the scalar rule sends to
    # rational arithmetic (|frac - 0.5| <= 1e-9, or NaN) sent there again.
    K = g.K
    u = Y + 1.0
    u *= K
    u /= 2.0
    k = np.floor(u)
    frac = u
    frac -= k
    near = np.abs(frac - 0.5)
    slow = np.argwhere(~(near > 1e-9)).tolist()
    del near
    # before the cast below, so that a NaN raises as in the scalar rule
    exact = [_quantize_axis(float(Y[r, j]), g) for r, j in slow]
    idx = k.astype(np.int64)
    del k
    idx += frac > 0.5
    np.clip(idx, 0, K, out=idx)
    for (r, j), i in zip(slow, exact):
        idx[r, j] = i
    return idx


def quantize(p: Point, g: GridSpec) -> GridState:
    """Snap a point to the nearest grid state (midpoint ties go up)."""
    if p.d != g.d:
        raise DimensionMismatch(f"point dimension {p.d} != grid dimension {g.d}")
    return GridState((_quantize_axis(c, g) for c in p.coords), g)


def quantization_error(p: Point, g: GridSpec) -> float:
    """l2 distance from p to its quantized state; always <= sqrt(d)/K."""
    q = quantize(p, g).decode_array()
    return float(np.linalg.norm(p.as_array() - q))
