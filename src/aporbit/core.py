"""Domain types: points in [-1,1]^d, uniform grids, quantized states, orbits.

The grid on each axis has K+1 nodes a_k = 2k/K - 1 (k = 0..K), spacing 2/K.
Quantization snaps each coordinate to the nearest node, resolving exact
midpoints toward the larger node; the resulting l2 error never exceeds
sqrt(d)/K.  `_quantize_rows` is the one quantizer; it fills its result in
blocks of QUANTIZE_BLOCK rows, so its working memory does not grow with
the orbit, and settles exact ties once per distinct midpoint.  The box
rule is `box_overshoot` (NaN is infinitely far out) and `Point`, which
clamps within CLAMP_BAND.

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

# Rows per block of `_quantize_rows`: its temporaries are a few arrays of
# this many rows, whatever the length of the orbit.
QUANTIZE_BLOCK = 2048


def _clamp_coord(x: float) -> float:
    x = float(x)
    if -1.0 <= x <= 1.0:
        return x
    if not abs(x) - 1.0 <= CLAMP_BAND:  # beyond the band, or NaN
        raise OutOfRange(f"coordinate {x!r} outside [-1,1]")
    return math.copysign(1.0, x)


def box_overshoot(coords):
    """max|c| - 1 over the last axis: how far a point (or each row of an
    array) lies outside [-1,1], +inf where a coordinate is NaN."""
    over = np.max(np.abs(coords), axis=-1) - 1.0
    return np.where(np.isnan(over), np.inf, over)[()]


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

    def to_json(self):
        return list(self.indices)


class GridStates(Sequence):
    """A sequence of grid states stored as an (n, d) int64 index array.

    The pipeline computes on `indices` and `codes()`; indexing yields
    GridState objects (a slice yields GridStates).  Compares equal to
    another GridStates on the same grid with the same indices.  `of`
    builds one from GridState objects.
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
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"GridStates(n={len(self)}, grid={self.grid})"

    def nodes(self) -> np.ndarray:
        """Decoded node coordinates, shape (n, d): row t is the coordinates
        of `self[t].decode()`."""
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

    Built from an (H+1, d) float array that the series takes over: the
    samples live in the read-only array `values`, and `samples` views its
    rows as Points.
    """

    d: int
    horizon: int
    values: np.ndarray = field(repr=False)

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] < 1:
            raise DimensionMismatch(f"orbit array of shape {values.shape}, need (H+1, d)")
        if len(values) == 0:
            raise ValueError("an orbit needs at least the initial sample")
        values.flags.writeable = False
        object.__setattr__(self, "d", values.shape[1])
        object.__setattr__(self, "horizon", len(values) - 1)
        object.__setattr__(self, "values", values)

    @property
    def samples(self) -> Sequence:
        return _PointRows(self.values)


def _quantize_rows(Y: np.ndarray, g: GridSpec) -> np.ndarray:
    # Nearest node index of every entry, exact midpoints going up.  The
    # rows go through in blocks of QUANTIZE_BLOCK, each into its slice of
    # one result array, so the temporaries are the size of one block.
    if len(Y) <= QUANTIZE_BLOCK:
        return _quantize_block(Y, g.K, None, {})
    idx = np.empty(Y.shape, dtype=np.int64)
    midpoints = {}
    for a in range(0, len(Y), QUANTIZE_BLOCK):
        _quantize_block(Y[a : a + QUANTIZE_BLOCK], g.K, idx[a : a + QUANTIZE_BLOCK], midpoints)
    return idx


def _quantize_block(Y: np.ndarray, K: int, out, midpoints: dict) -> np.ndarray:
    # One block, written into `out` (a new array when None).  The float
    # u = (c+1)K/2 decides unless it lies within 1e-9 of k + 1/2; such an
    # entry is compared with the exact midpoint m_k = (2k+1)/K - 1.  No
    # double lies strictly between m_k and the double q nearest it, so
    # c >= m_k exactly when c > q, or c == q >= m_k.  `midpoints` keeps
    # (q, q >= m_k) by k across the blocks of one call, so each distinct
    # midpoint costs one Fraction pass.
    u = Y + 1.0
    u *= K
    u /= 2.0
    k = np.floor(u)
    frac = u
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN, refused below
        frac -= k
    tie = ~(np.abs(frac - 0.5) > 1e-9)  # NaN lands here too
    k_tie = k[tie]
    if len(k_tie) and not np.isfinite(k_tie).all():  # before the cast below
        raise ValueError(f"cannot quantize {Y[tie][~np.isfinite(k_tie)][0]!r}")
    if out is None:
        out = k.astype(np.int64)
    else:
        out[...] = k
    del k
    out += frac > 0.5
    if len(k_tie):
        mids, which = np.unique(k_tie, return_inverse=True)
        mids = mids.astype(np.int64).tolist()
        for kk in mids:
            if kk not in midpoints:
                mk = Fraction(2 * kk + 1 - K, K)
                midpoints[kk] = (float(mk), Fraction(float(mk)) >= mk)
        q = np.array([midpoints[kk][0] for kk in mids])[which]
        q_up = np.array([midpoints[kk][1] for kk in mids])[which]
        c = Y[tie]
        out[tie] = k_tie.astype(np.int64) + ((c > q) | ((c == q) & q_up))
    np.maximum(out, 0, out=out)
    np.minimum(out, K, out=out)
    return out


def quantize(p: Point, g: GridSpec) -> GridState:
    """Snap a point to the nearest grid state (midpoint ties go up)."""
    if p.d != g.d:
        raise DimensionMismatch(f"point dimension {p.d} != grid dimension {g.d}")
    return GridState(_quantize_rows(np.array([p.coords]), g)[0].tolist(), g)
