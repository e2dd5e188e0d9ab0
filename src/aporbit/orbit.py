"""Orbit generation, grid shadowing, transition tables and periodic chains.

The pipeline: iterate a map to get an orbit, snap each sample to the grid
(the "shadow"), record observed state transitions in a table, then run the
table as a deterministic finite-state chain from the quantized initial
state.  The chain is eventually periodic; its pre-period T and period L
are certified by first-visit cycle detection.
"""

from __future__ import annotations

import statistics
from array import array
from dataclasses import dataclass, field

import numpy as np

from .core import GridSpec, GridState, GridStates, OrbitSeries, Point, _quantize_rows
from .errors import (
    DanglingState,
    DimensionMismatch,
    NoCycleWithinHorizon,
    RangeViolation,
)
from .maps import MapDefinition, ar_map, evaluate

# Conflicting observations kept as examples; the rest are only counted.
CONFLICT_EXAMPLES = 5


def generate_orbit(m: MapDefinition, y0: Point, horizon: int) -> OrbitSeries:
    """Iterate the map from y0 for `horizon` steps; errors if the orbit escapes."""
    if y0.d != m.d:
        raise DimensionMismatch(f"y0 dimension {y0.d} != map dimension {m.d}")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    step = m.step
    current = y0.coords
    buf = array("d", current)
    for t in range(1, horizon + 1):
        out = step(current)
        if not max(map(abs, out)) <= 1.0:
            # outside the box (or NaN): police and clamp exactly as evaluate() does
            try:
                out = evaluate(m, Point(current)).coords
            except RangeViolation as exc:
                raise RangeViolation(f"orbit left the box at t={t}: {exc}", t=t) from exc
        buf.extend(out)
        current = out
    return OrbitSeries(np.frombuffer(buf).reshape(horizon + 1, m.d))


def discretize_orbit(orbit, g: GridSpec) -> GridStates:
    """Quantize every orbit sample (accepts an OrbitSeries or a point list)."""
    if isinstance(orbit, OrbitSeries):
        values = orbit.values
    else:
        points = list(orbit)
        for p in points:
            if p.d != g.d:
                raise DimensionMismatch(f"point dimension {p.d} != grid dimension {g.d}")
        values = np.array([p.coords for p in points], dtype=float).reshape(len(points), g.d)
    if values.shape[1] != g.d:
        raise DimensionMismatch(f"point dimension {values.shape[1]} != grid dimension {g.d}")
    return GridStates(_quantize_rows(values, g), g)


@dataclass(frozen=True)
class Conflicts:
    """Later occurrences of a state whose successor disagrees with the
    successor at its earliest occurrence: their number, and the first few
    as (state, t, observed successor) in time order."""

    count: int = 0
    examples: tuple = ()

    def __len__(self) -> int:
        return self.count


@dataclass(eq=False)
class TransitionTable:
    """Observed next-state function over the visited grid states.

    Row n of `rows` (n < N) is the index vector of the n-th visited state
    with an outgoing observation, in first-seen order; its successor, fixed
    by its earliest occurrence, is row `succ[n]`.  Later occurrences that
    disagree are counted in `conflicts` (the discretized dynamics is then
    not a function of the state at this resolution).  A state first seen
    at the final shadow position has no outgoing observation; it is row N,
    and the dangling state when an earliest observation leads to it.
    """

    grid: GridSpec
    rows: np.ndarray = field(repr=False)
    succ: np.ndarray = field(repr=False)
    conflicts: Conflicts = Conflicts()

    @property
    def n_states(self) -> int:
        return len(self.succ)

    @property
    def states(self) -> GridStates:
        return GridStates(self.rows[: self.n_states], self.grid)

    @property
    def successor(self) -> dict:
        """The table as {state: successor state}."""
        rows = GridStates(self.rows, self.grid)
        return {rows[n]: rows[k] for n, k in enumerate(self.succ.tolist())}

    @property
    def dangling(self) -> GridState | None:
        """The successor state without an outgoing edge, if any."""
        if np.any(self.succ == self.n_states):
            return GridState(self.rows[self.n_states].tolist(), self.grid)
        return None


def build_transition_table(shadow) -> TransitionTable:
    """Extract the earliest-occurrence transition table from a shadow sequence."""
    if not isinstance(shadow, GridStates):
        shadow = list(shadow)
    if len(shadow) < 2:
        raise ValueError("need at least two shadow states to observe a transition")
    if not isinstance(shadow, GridStates):
        shadow = GridStates.of(shadow)
    codes = shadow.codes()
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)  # distinct states in first-seen order
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    row = rank[inverse]  # row of the state at each time
    del inverse
    # a state first seen at the final position sorts last and has no outgoing edge
    n_states = len(order) - int(first[order[-1]] == len(codes) - 1)
    succ = row[first[order[:n_states]] + 1]
    mismatch = succ[row[:-1]] != row[1:]
    del row
    count = int(np.count_nonzero(mismatch))
    times = np.flatnonzero(mismatch)[:CONFLICT_EXAMPLES].tolist() if count else []
    conflicts = Conflicts(
        count=count,
        examples=tuple((shadow[t], t, shadow[t + 1]) for t in times),
    )
    return TransitionTable(
        grid=shadow.grid, rows=shadow.indices[first[order]], succ=succ, conflicts=conflicts
    )


@dataclass
class ChainResult:
    """The approximating chain: eventually periodic states y*(0), y*(1), ...

    `seq` stores the distinct prefix up to the point where the cycle
    closes (length pre_period + period); any later value follows by
    periodic extension, so the chain is evaluable at every t >= 0.  A
    sequence of GridState objects is stored as GridStates.
    """

    grid: GridSpec
    seq: GridStates = field(repr=False)
    pre_period: int
    period: int
    horizon: int
    table: TransitionTable | None = field(default=None, repr=False)

    def __post_init__(self):
        if not isinstance(self.seq, GridStates):
            self.seq = GridStates.of(self.seq, self.grid)
        self._nodes = self.seq.nodes()

    def _position(self, t: int) -> int:
        if t < 0:
            raise ValueError("t must be >= 0")
        if t < len(self.seq):
            return t
        return self.pre_period + (t - self.pre_period) % self.period

    def state_at(self, t: int) -> GridState:
        return self.seq[self._position(t)]

    def value_at(self, t: int) -> np.ndarray:
        return self._nodes[self._position(t)].copy()

    def values(self, t_start: int, t_end: int) -> np.ndarray:
        """Decoded chain values for t_start..t_end inclusive, shape (n, d)."""
        if t_start < 0:
            raise ValueError("t must be >= 0")
        ts = np.arange(t_start, t_end + 1, dtype=np.int64)
        T = self.pre_period
        if t_end >= len(self.seq):
            ts = np.where(ts < len(self.seq), ts, T + (ts - T) % self.period)
        return self._nodes[ts]

    @property
    def d(self) -> int:
        return self.grid.d

    def summary(self) -> dict:
        return {
            "K": self.grid.K,
            "d": self.grid.d,
            "T": self.pre_period,
            "L": self.period,
            "N": self.table.n_states if self.table is not None else None,
            "conflicts": len(self.table.conflicts) if self.table is not None else None,
        }


def _first_repeat(items):
    # The one cycle walker: consume items up to the first repeated one and
    # return (the distinct items in order, T, L), where T is the position
    # of the repeat's first occurrence and L the distance; None if the
    # items run out first.
    first = {}
    for t, s in enumerate(items):
        if s in first:
            return list(first), first[s], t - first[s]
        first[s] = t
    return None


def build_chain(table: TransitionTable, initial: GridState, horizon: int) -> ChainResult:
    """Run the table from the initial state until its cycle closes.

    Termination is guaranteed by the finite state count unless the walk
    reaches a state with no outgoing observation, which is reported as
    DanglingState (possible under horizon truncation, never patched over).
    """
    n = table.n_states
    hits = []
    if initial.grid == table.grid:
        hits = np.flatnonzero((table.rows[:n] == initial.indices).all(axis=1))
    if not len(hits):
        raise ValueError("initial state has no outgoing observation in the table")
    succ = table.succ.tolist()

    def walk(row):
        t = 0
        while True:
            yield row
            t += 1
            if row >= n:
                raise DanglingState(
                    f"chain reached a state with no outgoing edge at t={t}",
                    state=table.dangling,
                    t=t,
                )
            row = succ[row]

    visited, pre_period, period = _first_repeat(walk(int(hits[0])))
    return ChainResult(
        grid=table.grid,
        seq=GridStates(table.rows[visited], table.grid),
        pre_period=pre_period,
        period=period,
        horizon=horizon,
        table=table,
    )


def detect_cycle(seq) -> tuple[int, int]:
    """Minimal (pre-period, period) of an eventually periodic sequence.

    First-visit hash map over exact states; the candidate is then checked
    against the periodicity definition on the whole available window.
    """
    seq = list(seq)
    found = _first_repeat(seq)
    if found is None:
        raise NoCycleWithinHorizon(
            f"no state repeats within the {len(seq)}-step window"
        )
    _, pre_period, period = found
    for u in range(pre_period, len(seq) - period):
        if seq[u + period] != seq[u]:
            raise NoCycleWithinHorizon(
                "window is inconsistent with the first-repeat cycle; "
                "sequence is not an iterated-function trace"
            )
    return pre_period, period


def shadow_periodicity(seq, max_window: int = 8192):
    """Minimal (T, L) consistent with eventual periodicity of the window.

    Shadows are not function traces (the true orbit can distinguish states
    the grid merges), so first-repeat detection does not apply; this scans
    periods directly and requires at least two full tail periods in view.
    Diagnostic only: a longer window could still refute the verdict.  Long
    sequences are examined over their trailing `max_window` entries; the
    reported T is then the earliest time within that suffix, an upper
    bound for the true pre-period.
    """
    if not isinstance(seq, GridStates):
        seq = list(seq)
    offset = max(0, len(seq) - max_window)
    seq = seq[offset:]
    if isinstance(seq, GridStates):
        seq = seq.codes().tolist()
    n = len(seq)
    for L in range(1, n // 2 + 1):
        t = n - 1 - L
        while t >= 0 and seq[t + L] == seq[t]:
            t -= 1
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
    chain = build_chain(table, shadow[0], horizon)
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

    state = tuple(int(i) for i in rng.integers(0, K + 1, d))
    visit = {state: 0}
    t = 0
    while True:
        state = step(state)
        t += 1
        if state in visit:
            return visit[state], t - visit[state]
        visit[state] = t


def _random_stable_ar(d: int, rng, radius: float = 0.9):
    """Coefficients of a recurrence whose roots all lie within `radius`."""
    roots = []
    remaining = d
    while remaining > 0:
        if remaining >= 2 and rng.random() < 0.5:
            r = radius * np.sqrt(rng.random())
            theta = rng.uniform(0.0, np.pi)
            mu = r * np.exp(1j * theta)
            roots.extend([mu, np.conj(mu)])
            remaining -= 2
        else:
            roots.append(complex(rng.uniform(-radius, radius)))
            remaining -= 1
    coeffs = np.real(np.poly(np.array(roots)))  # monic, highest power first
    return tuple(float(-c) for c in coeffs[1:])


def _census_random_ar(d: int, K: int, rng, horizon: int) -> tuple[int, int] | None:
    p = _random_stable_ar(d, rng)
    m = ar_map(p)
    z0 = rng.uniform(-1.0, 1.0, d)
    # The recurrence is linear, so rescaling the initial data rescales the
    # whole trajectory; halve against the observed max to keep the orbit
    # safely inside the box.
    peak = float(np.max(np.abs(z0)))
    coords = tuple(z0)
    for _ in range(horizon):
        coords = m.step(coords)
        peak = max(peak, abs(coords[0]))
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
