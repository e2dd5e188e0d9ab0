"""Orbit generation, grid shadowing, transition tables and periodic chains.

The pipeline: iterate a map to get an orbit (`MapDefinition.iterate`
runs the map's compiled loop on the box and polices each sample where
it stops), snap each sample to the grid (the "shadow"), and count the
states and the conflicts of the table where the earliest occurrence of
a state fixes its successor.  The chain runs those earliest successors
from the shadow's first state, so it is the shadow itself up to the
first time a state repeats: with the repeat first seen at T and seen
again at T + L, the chain is shadow[0..T+L-1], eventually periodic with
pre-period T and period L.

The orbit is the one whole array that grows with the horizon: 8 B a
sample for a shift map, whose orbit is a strided view of its first
coordinates, and 8*d B for any other map.  The shadow is a view of it
that quantizes a block when the block is read.  `build_transition_table`
reads it in one pass of blocks, keeping the distinct codes seen so far
sorted with their successors and first positions, and reads the chain
off those first positions after the pass; `run_pipeline` takes both
from that pass, and `shadow_periodicity` reads an int64 window.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

import numpy as np

from .armodel import coefficients_from_roots, recursion
from .core import GridSpec, GridState, GridStates, OrbitSeries, Point
from .errors import DanglingState, DimensionMismatch, NotPeriodic
from .maps import MapDefinition, ar_map

# Trailing shadow states examined by shadow_periodicity, and the pairs it
# compares one at a time for a candidate period before it compares the
# rest of the window in one array operation.
SHADOW_WINDOW = 8192
SCAN_STEPS = 32

# Shadow positions per block of build_transition_table (at least N).
TABLE_BLOCK = 2048

# Largest root modulus of the census's random stable recurrences.
STABLE_RADIUS = 0.9


def generate_orbit(m: MapDefinition, y0: Point, horizon: int) -> OrbitSeries:
    """Iterate the map from y0 for `horizon` steps on the box
    (`MapDefinition.iterate`): a sample within CLAMP_BAND of it is clamped
    onto it, and any other, or NaN, raises RangeViolation.  A shift map's
    orbit is a strided view of its first coordinates, 8 B a sample.  An
    orbit that reaches an exact cycle has its rows copied from there, and
    the cycle's length is the series' `lag`."""
    return m.iterate(y0, horizon, box=True)


def discretize_orbit(orbit: OrbitSeries, g: GridSpec) -> GridStates:
    """The shadow: a view of the orbit's samples, each quantized when read."""
    if orbit.d != g.d:
        raise DimensionMismatch(f"point dimension {orbit.d} != grid dimension {g.d}")
    return GridStates(orbit.values, g)


@dataclass(frozen=True)
class Conflicts:
    """The number of later occurrences of a state whose successor
    disagrees with the successor at its earliest occurrence."""

    count: int = 0

    def __len__(self) -> int:
        return self.count


@dataclass(frozen=True)
class TransitionTable:
    """N, the states with an outgoing observation, and the conflicts.

    `chain` is the chain that the earliest-occurrence transitions run from
    the shadow's first state, or None when they reach a state with no
    outgoing observation; it takes no part in comparisons."""

    grid: GridSpec
    n_states: int
    conflicts: Conflicts = Conflicts()
    chain: ChainResult | None = field(default=None, compare=False, repr=False)


def build_transition_table(shadow: GridStates) -> TransitionTable:
    """N, the conflicts and the chain of the shadow's earliest-occurrence
    transitions.

    One pass over consecutive blocks of the shadow, each read once; a
    block's codes follow the previous block's last code.  The codes seen
    so far stay sorted, each next to the code that followed its earliest
    occurrence and that occurrence's position, and a block looks its
    distinct codes up there once: O(block + N) temporaries, and as a block
    is TABLE_BLOCK or N positions, O(1) per position to merge its new
    codes in.  After the pass, the chain is read off the first positions:
    when they start 0, 1, ..., t-1 the states there are distinct, the
    state at t is the successor of the one first seen at t-1, and the
    cycle closes at t if that state is known.  From 2^63 grid states on
    the codes are ranks, comparable only within one array, so the whole
    shadow is read into one index array, ranked once, and the chain is its
    first rows.
    """
    n, g = len(shadow), shadow.grid
    if n < 2:
        raise ValueError("need at least two shadow states to observe a transition")
    ranks = None
    if g.state_count >= 2 ** 63:
        shadow = GridStates(shadow.indices, g)
        ranks = shadow.codes()
    count = 0
    a, b = 0, min(max(TABLE_BLOCK, 2), n)  # the first block holds a transition
    while a < n:
        codes = shadow[a:b].codes() if ranks is None else ranks[a:b]
        if a:  # the transition out of the previous block's last position
            codes = np.concatenate((last, codes))
        last = codes[-1:]
        src, dst = codes[:-1], codes[1:]
        uniq, j, inverse = np.unique(src, return_index=True, return_inverse=True)
        expect = dst[j]  # a new code's successor at its first position here
        if not a:  # every code of the first block is new
            known, succ, first = uniq, expect, j
        else:
            at = np.searchsorted(known, uniq)
            seen = known[np.minimum(at, len(known) - 1)] == uniq
            expect[seen] = succ[at[seen]]
            if not seen.all():
                known = np.insert(known, at[~seen], uniq[~seen])
                succ = np.insert(succ, at[~seen], expect[~seen])
                first = np.insert(first, at[~seen], j[~seen] + a - 1)  # src[0] is at a - 1
        count += int(np.count_nonzero(expect[inverse] != dst))
        a, b = b, min(b + max(TABLE_BLOCK, len(known)), n)
    order = np.argsort(first)
    t = int(np.count_nonzero(first[order] == np.arange(len(order))))  # 0..t-1 are new
    close = succ[order[t - 1]]  # the state at t
    at = min(int(np.searchsorted(known, close)), len(known) - 1)
    chain = None
    if known[at] == close:
        T = int(first[at])
        seq = shadow.indices[:t].copy() if ranks is not None else np.stack(
            np.unravel_index(known[order[:t]], (g.K + 1,) * g.d), axis=1)
        chain = ChainResult(grid=g, seq=GridStates(seq, g), pre_period=T, period=t - T)
    return TransitionTable(g, len(known), Conflicts(count), chain)


@dataclass
class ChainResult:
    """The approximating chain: eventually periodic states y*(0), y*(1), ...

    `seq` stores the distinct prefix up to the point where the cycle
    closes (length pre_period + period); any later value follows by
    periodic extension, so the chain is evaluable at every t >= 0.
    """

    grid: GridSpec
    seq: GridStates = field(repr=False)
    pre_period: int
    period: int

    def __post_init__(self):
        self._nodes = self.seq.nodes()

    def _positions(self, t_start: int, t_end: int) -> np.ndarray:
        # Positions in seq of t_start..t_end: t itself within the stored
        # prefix, and (t - T) mod L + T beyond it.  That fold is exact for
        # every t >= T (it leaves T <= t < T + L where they are), so it runs
        # in place on the part of the one position array from T on.
        if t_start < 0:
            raise ValueError("t must be >= 0")
        ts = np.arange(t_start, t_end + 1, dtype=np.int64)
        T = self.pre_period
        if t_end >= len(self.seq):
            tail = ts[max(T - t_start, 0):]
            tail -= T
            tail %= self.period
            tail += T
        return ts

    def check_certificate(self) -> None:
        """Raise NotPeriodic unless (T, L) certifies `seq`: T >= 0, L >= 1,
        and seq holds exactly the T + L states up to the cycle's close."""
        T, L = self.pre_period, self.period
        if not (T >= 0 and L >= 1 and len(self.seq) == T + L):
            raise NotPeriodic(f"(T, L) = ({T}, {L}) does not certify {len(self.seq)} stored states")

    def state_at(self, t: int) -> GridState:
        return self.seq[self._positions(t, t)[0]]

    def value_at(self, t: int) -> np.ndarray:
        return self._nodes[self._positions(t, t)[0]].copy()

    def values(self, t_start: int, t_end: int) -> np.ndarray:
        """Decoded chain values for t_start..t_end inclusive, shape (n, d)."""
        return self._nodes.take(self._positions(t_start, t_end), axis=0)

    @property
    def d(self) -> int:
        return self.grid.d

    def summary(self) -> dict:
        return {
            "K": self.grid.K,
            "d": self.grid.d,
            "T": self.pre_period,
            "L": self.period,
        }


def build_chain(shadow: GridStates, table: TransitionTable | None = None) -> ChainResult:
    """The chain of a shadow: the shadow up to its first repeated state.

    Running the earliest-occurrence transitions from shadow[0] retraces
    the shadow as long as every state is new, and closes its cycle at the
    first repeat: a state first seen at T and again at T + L gives
    pre-period T, period L and the states shadow[0..T+L-1] (a copy, so the
    chain does not keep the shadow alive).  `table`, the shadow's
    transition table, holds the chain its pass found; without it the
    table's pass runs over the first (K+1)^d + 1 states, which must repeat
    one.  A shadow without a repeat ends in a state with no outgoing
    observation, reported as DanglingState (possible under horizon
    truncation, never patched over).
    """
    if not len(shadow):
        raise ValueError("an empty shadow has no chain")
    if table is None and len(shadow) > 1:  # its first (K+1)^d + 1 states hold a repeat
        table = build_transition_table(shadow[: shadow.grid.state_count + 1])
    if table is None or table.chain is None:
        raise DanglingState(
            f"chain reached a state with no outgoing edge at t={len(shadow)}",
            state=shadow[-1],
            t=len(shadow),
        )
    return table.chain


def shadow_periodicity(shadow: GridStates):
    """Minimal (T, L) consistent with eventual periodicity of the window.

    Shadows are not function traces (the true orbit can distinguish states
    the grid merges), so first-repeat detection does not apply; this scans
    periods directly and requires at least two full tail periods in view.
    Only the periods L at which the last code recurs L steps back are
    tried, each pair by pair for SCAN_STEPS pairs and then in one array
    comparison over the int64 codes of the window.  Diagnostic only: a
    longer window could still refute the verdict.  Long sequences are
    examined over their trailing SHADOW_WINDOW entries; the reported T is
    then the earliest time within that suffix, an upper bound for the true
    pre-period.
    """
    offset = max(0, len(shadow) - SHADOW_WINDOW)
    codes = shadow[offset:].codes()
    seq = memoryview(codes)  # the int64 codes, read one at a time as Python ints
    n = len(seq)
    back = codes[n - 1 - n // 2 : n - 1][::-1]  # back[L - 1] is codes[n - 1 - L]
    for L in memoryview(np.flatnonzero(back == codes[n - 1 :]) + 1):  # the last code recurs
        t = n - 1 - L
        stop = t - SCAN_STEPS
        while t > stop and t >= 0 and seq[t + L] == seq[t]:
            t -= 1
        if t == stop >= 0:  # a long match: one array comparison finds where it ends
            differ = np.flatnonzero(codes[L : t + 1 + L] != codes[: t + 1])
            t = int(differ[-1]) if len(differ) else -1
        T = t + 1
        if T + 2 * L <= n:
            return T + offset, L
    return None


def default_horizon(g: GridSpec) -> int:
    """10 * (K+1)^d, capped at 10^7."""
    return min(10 * g.state_count, 10 ** 7)


def run_pipeline(m: MapDefinition, y0: Point, g: GridSpec, horizon: int):
    """orbit -> shadow -> table -> chain; returns all four."""
    orbit = generate_orbit(m, y0, horizon)
    shadow = discretize_orbit(orbit, g)
    table = build_transition_table(shadow)
    chain = build_chain(shadow, table)
    return orbit, shadow, table, chain


@dataclass(frozen=True)
class CensusReport:
    d: int
    K: int
    generator: str
    ensemble: int
    seed: int
    pairs: tuple  # (pre_period, period) per sample
    redraws: int = 0

    @property
    def periods(self) -> list[int]:
        return [L for _, L in self.pairs]

    @property
    def histogram(self) -> dict:
        hist = {}
        for L in self.periods:
            hist[L] = hist.get(L, 0) + 1
        return dict(sorted(hist.items()))

    def to_json(self):
        Ls = self.periods
        return {
            "d": self.d,
            "K": self.K,
            "generator": self.generator,
            "ensemble": self.ensemble,
            "seed": self.seed,
            "state_count": (self.K + 1) ** self.d,
            "mean_L": statistics.fmean(Ls),
            "median_L": statistics.median(Ls),
            "max_L": max(Ls),
            "mean_T": statistics.fmean(T for T, _ in self.pairs),
            "histogram_L": {str(k): v for k, v in self.histogram.items()},
            "redraws": self.redraws,
        }


def _census_random_map(d: int, K: int, rng) -> tuple[int, int]:
    # A random next-first-coordinate function respecting the shift
    # structure, drawn lazily: the walk stops at its first repeated state,
    # so each state before it is new and draws its successor once.  T is
    # the position of the repeat's first occurrence and L the distance.
    first = {}
    state = tuple(int(i) for i in rng.integers(0, K + 1, d))
    while state not in first:
        first[state] = len(first)
        state = (int(rng.integers(0, K + 1)),) + state[:-1]
    return first[state], len(first) - first[state]


def _random_stable_ar(d: int, rng):
    """Coefficients of a recurrence whose roots all lie within STABLE_RADIUS."""
    roots = []
    remaining = d
    while remaining > 0:
        if remaining >= 2 and rng.random() < 0.5:
            r = STABLE_RADIUS * np.sqrt(rng.random())
            theta = rng.uniform(0.0, np.pi)
            mu = r * np.exp(1j * theta)
            roots.extend([mu, np.conj(mu)])
            remaining -= 2
        else:
            roots.append(complex(rng.uniform(-STABLE_RADIUS, STABLE_RADIUS)))
            remaining -= 1
    return coefficients_from_roots(roots)


def _census_random_ar(d: int, K: int, rng, horizon: int) -> tuple[int, int]:
    p = _random_stable_ar(d, rng)
    m = ar_map(p)
    z0 = rng.uniform(-1.0, 1.0, d)
    # The recurrence is linear, so rescaling the initial data rescales the
    # whole trajectory; halve against the observed max to keep the orbit
    # safely inside the box.
    z = recursion(m, Point(z0), horizon)
    peak = max(float(np.max(np.abs(z0))), float(np.max(np.abs(z))))
    if peak > 1.0:
        z0 = z0 / (2.0 * peak)
    g = GridSpec(K=K, d=d)
    chain = build_chain(discretize_orbit(generate_orbit(m, Point(z0), horizon), g))
    return chain.pre_period, chain.period


def period_census(
    d: int,
    K: int,
    ensemble: int,
    seed: int = 0,
    generator: str = "random_map",
) -> CensusReport:
    """Sample (pre-period, period) statistics over a random ensemble.

    "random_map" draws a uniformly random new-first-coordinate function on
    the grid states (the shift fills the remaining coordinates);
    "random_ar" draws stable recurrence coefficients and takes the chain
    of the quantized orbit over default_horizon steps.
    """
    if ensemble < 1:
        raise ValueError("ensemble must be >= 1")
    if generator not in ("random_map", "random_ar"):
        raise ValueError(f"unknown generator {generator!r}")
    horizon = default_horizon(GridSpec(K=K, d=d))
    rng = np.random.default_rng(seed)
    pairs, redraws, failure = [], 0, None
    while len(pairs) < ensemble:
        if len(pairs) + redraws == 10 * ensemble:
            raise DanglingState(
                f"census generator kept failing: {redraws} of {10 * ensemble} draws "
                f"gave no chain; the last: {failure}", failure.state, failure.t
            ) from failure
        try:
            if generator == "random_map":
                pairs.append(_census_random_map(d, K, rng))
            else:
                pairs.append(_census_random_ar(d, K, rng, horizon))
        except DanglingState as exc:  # a chain that did not close: redraw
            redraws += 1
            failure = exc
    return CensusReport(
        d=d,
        K=K,
        generator=generator,
        ensemble=ensemble,
        seed=seed,
        pairs=tuple(pairs),
        redraws=redraws,
    )
