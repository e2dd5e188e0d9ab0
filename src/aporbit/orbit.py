"""Orbit generation, grid shadowing, transition tables and periodic chains.

The pipeline: iterate a map to get an orbit (the map's compiled loop
runs the steps, and `generate_orbit` polices each sample where it stops),
snap each sample to the grid (the "shadow"), and count the states and
the conflicts of the table where the earliest occurrence of a state
fixes its successor.  The chain runs those earliest successors from the
shadow's first state, so it is the shadow itself up to the first time a
state repeats: with the repeat first seen at T and seen again at T + L,
the chain is shadow[0..T+L-1], eventually periodic with pre-period T and
period L.

The orbit and the shadow are whole arrays, the only memory that grows
with the horizon.  Every later stage works in blocks: the quantizer,
the transition table (sorted codes with their successor codes,
O(block + N) temporaries) and `shadow_periodicity` (an int64 window).
"""

from __future__ import annotations

import statistics
from array import array
from dataclasses import dataclass, field

import numpy as np

from .armodel import ARSpec, coefficients_from_roots, recursion
from .core import (CLAMP_BAND, GridSpec, GridState, GridStates, OrbitSeries, Point,
                   _quantize_rows, box_overshoot)
from .errors import DanglingState, DimensionMismatch, NotPeriodic, RangeViolation
from .maps import MapDefinition, ar_map

# Conflicting observations kept as examples; the rest are only counted.
CONFLICT_EXAMPLES = 5

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
    """Iterate the map from y0 for `horizon` steps; errors if the orbit escapes or is NaN.

    The map's compiled `loop` runs the steps and stops at a sample outside
    the box or NaN.  A sample within CLAMP_BAND of the box is clamped onto
    it and the loop resumes from there; any other raises RangeViolation.
    """
    if y0.d != m.d:
        raise DimensionMismatch(f"y0 dimension {y0.d} != map dimension {m.d}")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    d = m.d
    buf = array("d", y0.coords)
    t, current = 0, y0.coords
    while t < horizon:
        t = m.loop(*current, t, horizon, buf.append)
        current = tuple(buf[-d:])
        if box_overshoot(current) > CLAMP_BAND:
            raise RangeViolation(f"orbit left the box at t={t}: {list(current)}", t=t)
        current = Point(current).coords  # clamped onto the box
        buf[-d:] = array("d", current)
    return OrbitSeries(np.frombuffer(buf).reshape(-1, d))


def discretize_orbit(orbit: OrbitSeries, g: GridSpec) -> GridStates:
    """Quantize every orbit sample."""
    if orbit.d != g.d:
        raise DimensionMismatch(f"point dimension {orbit.d} != grid dimension {g.d}")
    return GridStates(_quantize_rows(orbit.values, g), g)


@dataclass(frozen=True)
class Conflicts:
    """Later occurrences of a state whose successor disagrees with the
    successor at its earliest occurrence: their number, and the first few
    as (state, t, observed successor) in time order."""

    count: int = 0
    examples: tuple = ()

    def __len__(self) -> int:
        return self.count


@dataclass(frozen=True)
class TransitionTable:
    """N, the states with an outgoing observation, and the conflicts."""

    grid: GridSpec
    n_states: int
    conflicts: Conflicts = Conflicts()


def build_transition_table(shadow: GridStates) -> TransitionTable:
    """N and the conflicts of the shadow's earliest-occurrence transitions.

    One pass over blocks of state codes, each ending with the next block's
    first code.  The codes seen so far stay sorted, next to the code that
    followed each one's earliest occurrence, and a block looks its distinct
    codes up there once: O(block + N) temporaries, and as a block is
    TABLE_BLOCK or N positions, O(1) per position to merge its new codes
    in.  Above 2^63 grid states the codes are the whole shadow's ranks.
    """
    n = len(shadow)
    if n < 2:
        raise ValueError("need at least two shadow states to observe a transition")
    ranks = shadow.codes() if shadow.grid.state_count > 2 ** 63 else None
    a, count, times = 0, 0, []
    while a < n - 1:
        b = min(a + max(TABLE_BLOCK, len(known) if a else 0), n - 1)
        codes = shadow[a : b + 1].codes() if ranks is None else ranks[a : b + 1]
        src, dst = codes[:-1], codes[1:]
        uniq, j, inverse = np.unique(src, return_index=True, return_inverse=True)
        expect = dst[j]  # a new code's successor at its first position here
        if not a:  # every code of the first block is new
            known, succ = uniq, expect
        else:
            at = np.searchsorted(known, uniq)
            seen = known[np.minimum(at, len(known) - 1)] == uniq
            expect[seen] = succ[at[seen]]
            if not seen.all():
                known = np.insert(known, at[~seen], uniq[~seen])
                succ = np.insert(succ, at[~seen], expect[~seen])
        bad = np.flatnonzero(expect[inverse] != dst)
        count += len(bad)
        times += (bad[: CONFLICT_EXAMPLES - len(times)] + a).tolist()
        a = b
    examples = tuple((shadow[t], t, shadow[t + 1]) for t in times)
    return TransitionTable(shadow.grid, len(known), Conflicts(count, examples))


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
        # prefix, folded into the period beyond it.
        if t_start < 0:
            raise ValueError("t must be >= 0")
        ts = np.arange(t_start, t_end + 1, dtype=np.int64)
        T = self.pre_period
        if t_end >= len(self.seq):
            ts = np.where(ts < len(self.seq), ts, T + (ts - T) % self.period)
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
        return self._nodes[self._positions(t_start, t_end)]

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


def _first_repeat(items):
    # The one cycle walker: consume items up to the first repeated one and
    # return (T, L), where T is the position of the repeat's first
    # occurrence and L the distance; None if the items run out first.
    first = {}
    for t, s in enumerate(items):
        if s in first:
            return first[s], t - first[s]
        first[s] = t
    return None


def build_chain(shadow: GridStates) -> ChainResult:
    """The chain of a shadow: the shadow up to its first repeated state.

    Running the earliest-occurrence transitions from shadow[0] retraces
    the shadow as long as every state is new, and closes its cycle at the
    first repeat: a state first seen at T and again at T + L gives
    pre-period T, period L and the states shadow[0..T+L-1] (a copy, so the
    chain does not keep the shadow alive).  A shadow without a repeat
    ends in a state with no outgoing observation, reported as
    DanglingState (possible under horizon truncation, never patched over).
    """
    if not len(shadow):
        raise ValueError("an empty shadow has no chain")
    found = _first_repeat(row.tobytes() for row in shadow.indices)
    if found is None:
        raise DanglingState(
            f"chain reached a state with no outgoing edge at t={len(shadow)}",
            state=shadow[-1],
            t=len(shadow),
        )
    pre_period, period = found
    return ChainResult(
        grid=shadow.grid,
        seq=GridStates(shadow.indices[: pre_period + period].copy(), shadow.grid),
        pre_period=pre_period,
        period=period,
    )


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
    chain = build_chain(shadow)
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
    # Lazy random next-first-coordinate function respecting the shift
    # structure; only visited states draw randomness.
    memo = {}

    def step(s):
        if s not in memo:
            memo[s] = (int(rng.integers(0, K + 1)),) + s[:-1]
        return memo[s]

    def walk(state):
        while True:
            yield state
            state = step(state)

    return _first_repeat(walk(tuple(int(i) for i in rng.integers(0, K + 1, d))))


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


def _census_random_ar(d: int, K: int, rng, horizon: int) -> tuple[int, int] | None:
    p = _random_stable_ar(d, rng)
    m = ar_map(p)
    z0 = rng.uniform(-1.0, 1.0, d)
    # The recurrence is linear, so rescaling the initial data rescales the
    # whole trajectory; halve against the observed max to keep the orbit
    # safely inside the box.
    z = recursion(ARSpec(p, z0), horizon)
    peak = max(float(np.max(np.abs(z0))), float(np.max(np.abs(z))))
    if peak > 1.0:
        z0 = z0 / (2.0 * peak)
    g = GridSpec(K=K, d=d)
    try:
        _, _, _, chain = run_pipeline(m, Point(z0), g, horizon)
    except DanglingState:
        return None
    return chain.pre_period, chain.period


def period_census(
    d: int,
    K: int,
    ensemble: int,
    seed: int = 0,
    generator: str = "random_map",
    horizon: int | None = None,
) -> CensusReport:
    """Sample (pre-period, period) statistics over a random ensemble.

    "random_map" draws a uniformly random new-first-coordinate function on
    the grid states (the shift fills the remaining coordinates);
    "random_ar" draws stable recurrence coefficients and runs the full
    quantization pipeline.
    """
    if ensemble < 1:
        raise ValueError("ensemble must be >= 1")
    if generator not in ("random_map", "random_ar"):
        raise ValueError(f"unknown generator {generator!r}")
    g = GridSpec(K=K, d=d)
    if horizon is None:
        horizon = default_horizon(g)
    rng = np.random.default_rng(seed)
    pairs = []
    redraws = 0
    attempts_left = 10 * ensemble
    while len(pairs) < ensemble:
        if attempts_left <= 0:
            raise RuntimeError("census generator kept failing; giving up")
        attempts_left -= 1
        if generator == "random_map":
            result = _census_random_map(d, K, rng)
        else:
            result = _census_random_ar(d, K, rng, horizon)
        if result is None:
            redraws += 1
            continue
        pairs.append(result)
    return CensusReport(
        d=d,
        K=K,
        generator=generator,
        ensemble=ensemble,
        seed=seed,
        pairs=tuple(pairs),
        redraws=redraws,
    )
