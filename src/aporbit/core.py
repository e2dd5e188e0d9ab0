"""Domain types: points in [-1,1]^d, uniform grids, quantized states, orbits.

The grid on each axis has K+1 nodes a_k = 2k/K - 1 (k = 0..K), spacing 2/K.
Quantization snaps each coordinate to the nearest node, resolving exact
midpoints toward the larger node; the resulting l2 error never exceeds
sqrt(d)/K.  `_quantize_rows` is the one quantizer: one pass over the
rows it is given, settling exact ties once per distinct midpoint.  Every
pass over a shadow or a chain goes BLOCK rows at a time, so its working
memory does not grow with the orbit.  The box rule is `box_overshoot`
(NaN is infinitely far out) and `Point`, which clamps within CLAMP_BAND.

`Point` and `GridState` are the boundary types for single values.  Orbits
and state sequences are stored as arrays: `OrbitSeries` holds an (H+1, d)
float array, with the lag at which its rows end up repeating when one is
known, and `GridStates` either an (n, d) integer index array or a view of
an orbit's float rows that quantizes the rows it is asked for, when it is
asked, and keeps none of them.  Its `codes()` are the one state key:
int64 mixed-radix codes, or on grids of 2^63 states or more, void keys
of each index row's bytes; `of_codes` decodes either.  `_repeat_lag` is
the one search for a repeated state, by its bytes, and `_row_norms` the
one distance kernel.
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

# Rows per block of every pass over a shadow or a chain: `codes()`, the
# transition table's pass and the chain distance walker each hold a few
# arrays of this many rows, whatever the length of the orbit.  Read at call
# time.  The size was measured: a round of the benchmark's ten
# ladder_period ladder jobs (seed 9) took no longer with distance blocks
# of 2^11 than of 2^12 or 2^16, and about 2 % longer with 2^10; the
# longest job's peak fell from 28.9 B a sample with blocks of 2^16 to
# 10.7, which is its orbits and level pipelines, no longer its window.
BLOCK = 2048


def _clamp_coord(x: float) -> float:
    x = float(x)
    if -1.0 <= x <= 1.0:
        return x
    if not abs(x) - 1.0 <= CLAMP_BAND:  # beyond the band, or NaN
        raise OutOfRange(f"coordinate {x!r} outside [-1,1]")
    return math.copysign(1.0, x)


def _repeat_lag(data: bytes, size: int, stride: int) -> int:
    """The smallest lag P >= 1 at which the state in the last `size` bytes
    of `data` starts again P*stride bytes earlier, bit for bit, or 0.

    States start every `stride` bytes, so a match that straddles two of
    them is skipped.  Bytes tell apart what `==` would not: 0.0 and -0.0,
    and NaNs of different payloads.
    """
    end = len(data) - size
    at = data.rfind(data[end:], 0, len(data) - 1)
    while at >= 0 and (end - at) % stride:
        at = data.rfind(data[end:], 0, at + size - 1)
    return (end - at) // stride if at >= 0 else 0


def _row_norms(diff: np.ndarray) -> np.ndarray:
    """The l2 norm of each row of a 2-d float array, which is squared in
    place: the square root of the row's plain sum of squares, the bits of
    `np.linalg.norm(diff, axis=1)`, with no BLAS call, so they do not
    depend on the CPU or the BLAS build."""
    diff *= diff
    dist = diff.sum(axis=1)
    return np.sqrt(dist, out=dist)


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
    """A sequence of grid states: (n, d) int64 index rows, or a view of an
    orbit's (n, d) float rows.

    The view quantizes only the rows that are read, each time they are
    read, so it holds no index array of its own; a slice of it is a view
    of the same rows.  The pipeline computes on `indices` and `codes()`;
    indexing yields GridState objects (a slice or an array of positions
    yields GridStates).
    Compares equal to another GridStates on the same grid with the same
    indices.  `of` builds one from GridState objects.
    """

    def __init__(self, rows: np.ndarray, grid: GridSpec):
        self._rows = rows
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

    @property
    def indices(self) -> np.ndarray:
        """The (n, d) index rows; a view quantizes all of its rows again,
        in one pass (`codes()` reads a view BLOCK rows at a time)."""
        rows = self._rows
        return _quantize_rows(rows, self.grid) if rows.dtype.kind == "f" else rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, t):
        if isinstance(t, (slice, np.ndarray)):  # a slice, or an array of positions
            return GridStates(self._rows[t], self.grid)
        return GridState(GridStates(self._rows[t][None], self.grid).indices[0].tolist(), self.grid)

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
        """One key per state, equal exactly where the states are equal, in
        any slice of any sequence on the grid.

        The int64 mixed-radix code sum_i idx_i (K+1)^(d-1-i) when (K+1)^d
        fits in int64 (and so in a numpy shape), otherwise the index row's
        8*d bytes as one numpy void (`V{8d}`).  Computed BLOCK rows at a
        time, so a view holds the index rows of one block.
        `of_codes` turns keys back into states.
        """
        g = self.grid
        wide = g.state_count >= 2 ** 63
        codes = np.empty(len(self), dtype=f"V{8 * g.d}" if wide else np.int64)
        for a in range(0, len(self), BLOCK):
            indices = self[a : a + BLOCK].indices
            block = codes[a : a + BLOCK]
            if wide:
                block.view(np.int64).reshape(indices.shape)[...] = indices
                continue
            block[:] = indices[:, 0]
            for j in range(1, g.d):
                block *= g.K + 1
                block += indices[:, j]
        return codes

    @classmethod
    def of_codes(cls, codes: np.ndarray, grid: GridSpec) -> GridStates:
        """The states on `grid` whose keys, as `codes()` gives them, are `codes`."""
        if codes.dtype.kind == "V":
            return cls(np.ascontiguousarray(codes).view(np.int64).reshape(len(codes), grid.d), grid)
        return cls(np.stack(np.unravel_index(codes, (grid.K + 1,) * grid.d), axis=1), grid)


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
    rows as Points.  `values` may be a strided view: a shift map's orbit
    reads every row from one sequence of first coordinates
    (`maps.MapDefinition.iterate`).  `lag`, when not None, is the smallest
    P such that the rows from some t_p on equal, bit for bit, the rows P
    before them (`MapDefinition.iterate` finds it); `repeats_from` finds
    t_p.
    """

    d: int
    horizon: int
    values: np.ndarray = field(repr=False)
    lag: int | None = None

    def __init__(self, values: np.ndarray, lag: int | None = None):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] < 1:
            raise DimensionMismatch(f"orbit array of shape {values.shape}, need (H+1, d)")
        if len(values) == 0:
            raise ValueError("an orbit needs at least the initial sample")
        values.flags.writeable = False
        object.__setattr__(self, "d", values.shape[1])
        object.__setattr__(self, "horizon", len(values) - 1)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "lag", lag)

    @property
    def samples(self) -> Sequence:
        return _PointRows(self.values)

    def repeats_from(self) -> int | None:
        """t_p, the first row that equals the row `lag` before it bit for
        bit, or None without a lag.  An orbit's next row is a function of
        its row, so every row after t_p repeats too, and the rows from
        `lag` to H are unequal, then equal: a bisection finds t_p."""
        P, rows = self.lag, self.values
        if P is None:
            return None
        lo, hi = P, self.horizon
        while lo < hi:
            t = (lo + hi) // 2
            if rows[t - P].tobytes() == rows[t].tobytes():
                hi = t
            else:
                lo = t + 1
        return lo


def _quantize_rows(Y: np.ndarray, g: GridSpec) -> np.ndarray:
    # Nearest node index of every entry, exact midpoints going up, in one
    # pass over the rows given.  The float u = (c+1)K/2 decides unless it
    # lies within 1e-9 of k + 1/2; such an entry is compared with the
    # exact midpoint m_k = (2k+1)/K - 1.  No double lies strictly between
    # m_k and the double q nearest it, so c >= m_k exactly when c > q, or
    # c == q >= m_k: each distinct midpoint of the call costs one Fraction
    # pass.
    K = g.K
    u = Y + 1.0
    u *= K
    u /= 2.0
    k = np.floor(u)
    frac = u
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN, refused below
        frac -= k
    tie = frac - 0.5
    np.abs(tie, out=tie)  # in place: one temporary fewer
    tie = ~(tie > 1e-9)  # NaN lands here too
    k_tie = k[tie]
    if len(k_tie) and not np.isfinite(k_tie).all():  # before the cast below
        raise ValueError(f"cannot quantize {Y[tie][~np.isfinite(k_tie)][0]!r}")
    out = k.astype(np.int64)
    del k
    out += frac > 0.5
    if len(k_tie):
        mids, which = np.unique(k_tie, return_inverse=True)
        midpoints = [Fraction(2 * kk + 1 - K, K) for kk in mids.astype(np.int64).tolist()]
        q = np.array([float(mk) for mk in midpoints])[which]
        q_up = np.array([Fraction(float(mk)) >= mk for mk in midpoints])[which]
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
