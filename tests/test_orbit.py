"""Orbit generation, transition tables, chains, cycle detection, census."""

import tracemalloc

import numpy as np
import pytest

from aporbit import (
    GridSpec,
    GridState,
    Point,
    ar_map,
    build_chain,
    build_transition_table,
    detect_cycle,
    discretize_orbit,
    generate_orbit,
    period_census,
    run_pipeline,
)
from aporbit.errors import DanglingState, NoCycleWithinHorizon, RangeViolation
from aporbit.maps import MapDefinition
from aporbit.orbit import CONFLICT_EXAMPLES


def states(g, *index_vectors):
    return [GridState(iv, g) for iv in index_vectors]


def test_generate_orbit_alternating():
    m = ar_map([-1.0])
    orb = generate_orbit(m, Point([1.0]), 3)
    assert [p.coords[0] for p in orb.samples] == [1.0, -1.0, 1.0, -1.0]


def test_generate_orbit_rotation():
    m = ar_map([0.0, -1.0])
    orb = generate_orbit(m, Point([1.0, 0.0]), 4)
    assert [p.coords for p in orb.samples] == [
        (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (1.0, 0.0)
    ]


def test_generate_orbit_escape_carries_t():
    # force past range validation: build the definition directly
    m = MapDefinition(d=1, kind="ar", coeffs=(2.0,))
    with pytest.raises(RangeViolation) as info:
        generate_orbit(m, Point([1.0]), 5)
    assert info.value.t == 1


def test_discretize_orbit():
    g = GridSpec(K=1, d=1)
    orb = [Point([1.0]), Point([-1.0]), Point([1.0])]
    assert [s.indices for s in discretize_orbit(orb, g)] == [(1,), (0,), (1,)]
    g2 = GridSpec(K=2, d=1)
    assert [s.indices for s in discretize_orbit([Point([0.5]), Point([0.25])], g2)] \
        == [(2,), (1,)]
    assert discretize_orbit([], g) == []


def test_transition_table_simple():
    g = GridSpec(K=4, d=1)
    A, B = states(g, [0], [1])
    table = build_transition_table([A, B, A, B])
    assert table.states == (A, B)
    assert table.successor == {A: B, B: A}
    assert len(table.conflicts) == 0
    assert table.dangling is None
    assert table.succ.tolist() == [1, 0]


def test_transition_table_conflict():
    g = GridSpec(K=4, d=1)
    A, B, C = states(g, [0], [1], [2])
    table = build_transition_table([A, B, A, C])
    assert table.successor[A] == B  # first occurrence wins
    assert len(table.conflicts) == 1
    assert table.conflicts.examples == ((A, 2, C),)
    # C is first seen at the final position: no outgoing observation, so it
    # is excluded from states; the chain cannot reach it (only the
    # conflicted observation pointed there), hence nothing dangles.
    assert C not in table.states
    assert table.dangling is None
    # but a fresh final state on the walked path does dangle
    table2 = build_transition_table([A, B, C])
    assert table2.dangling == C


def oracle_table(shadow):
    """The per-state loop: the earliest occurrence fixes each successor."""
    states, successor, conflicts = [], {}, []
    for t in range(len(shadow) - 1):
        s, nxt = shadow[t], shadow[t + 1]
        if s not in successor:
            successor[s] = nxt
            states.append(s)
        elif successor[s] != nxt:
            conflicts.append((s, t, nxt))
    dangling = next((s for s in successor.values() if s not in successor), None)
    return states, successor, conflicts, dangling


def test_transition_table_matches_loop_oracle():
    rng = np.random.default_rng(21)
    for _ in range(300):
        g = GridSpec(K=int(rng.integers(1, 6)), d=int(rng.integers(1, 3)))
        n = int(rng.integers(2, 60))
        shadow = [GridState(rng.integers(0, g.K + 1, g.d), g) for _ in range(n)]
        states, successor, conflicts, dangling = oracle_table(shadow)
        table = build_transition_table(shadow)
        assert list(table.states) == states
        assert table.successor == successor
        assert len(table.conflicts) == len(conflicts)
        assert table.conflicts.examples == tuple(conflicts[:CONFLICT_EXAMPLES])
        assert table.dangling == dangling


def test_transition_table_counts_conflicts_keeps_first_examples():
    g = GridSpec(K=4, d=1)
    A, B, C = states(g, [0], [1], [2])
    shadow = [A, B] + [A, C] * 8 + [A]
    table = build_transition_table(shadow)
    assert len(table.conflicts) == 8
    assert table.conflicts.examples == tuple((A, t, C) for t in (2, 4, 6, 8, 10))


def test_transition_table_beyond_int64_codes():
    # (K+1)^d > 2^63: states are told apart by their rows, not by codes
    g = GridSpec(K=2 ** 40, d=2)
    A, B, C = states(g, [0, 2 ** 40], [2 ** 40, 0], [7, 7])
    table = build_transition_table([A, B, C, B, C, B])
    assert table.states == (A, B, C)
    assert table.successor == {A: B, B: C, C: B}
    chain = build_chain(table, A, 5)
    assert (chain.pre_period, chain.period) == (1, 2)
    assert list(chain.seq) == [A, B, C]


def test_rotation_shadow_is_4cycle_at_K2():
    # The 4-cycle orbit lies exactly on the K=2 grid {-1,0,1}.
    m = ar_map([0.0, -1.0])
    g = GridSpec(K=2, d=2)
    orbit, shadow, table, chain = run_pipeline(m, Point([1.0, 0.0]), g, 8)
    assert len(table.conflicts) == 0
    assert table.n_states == 4
    assert (chain.pre_period, chain.period) == (0, 4)
    # chain equals the shadow for as long as the shadow runs
    assert [chain.state_at(t) for t in range(len(shadow))] == list(shadow)


def test_rotation_shadow_at_K1_has_conflicts():
    # On the K=1 grid the midpoint rule sends 0 to node 1, so distinct
    # orbit points merge and the table is genuinely conflicted.
    m = ar_map([0.0, -1.0])
    g = GridSpec(K=1, d=2)
    _, _, table, chain = run_pipeline(m, Point([1.0, 0.0]), g, 8)
    assert len(table.conflicts) > 0
    assert (chain.pre_period, chain.period) == (0, 1)


def test_build_chain_examples():
    g = GridSpec(K=4, d=1)
    A, B, C = states(g, [0], [1], [2])
    table = build_transition_table([A, B, A, B])
    chain = build_chain(table, A, 7)
    assert (chain.pre_period, chain.period) == (0, 2)
    assert [chain.state_at(t).indices[0] for t in range(8)] == [0, 1, 0, 1, 0, 1, 0, 1]
    table = build_transition_table([A, B, C, B, C])
    chain = build_chain(table, A, 5)
    assert (chain.pre_period, chain.period) == (1, 2)
    table = build_transition_table([A, A, A])
    chain = build_chain(table, A, 3)
    assert (chain.pre_period, chain.period) == (0, 1)


def test_build_chain_dangling():
    g = GridSpec(K=4, d=1)
    A, B, C = states(g, [0], [1], [2])
    table2 = build_transition_table([A, B, C])
    with pytest.raises(DanglingState) as info:
        build_chain(table2, A, 5)
    assert info.value.state == C  # stuck at C; y*(3) is undefined
    assert info.value.t == 3


def test_chain_periodicity_on_window():
    g = GridSpec(K=4, d=1)
    A, B, C, D = states(g, [0], [1], [2], [3])
    table = build_transition_table([A, B, C, D, B, C, D, B])
    chain = build_chain(table, A, 20)
    T, L = chain.pre_period, chain.period
    assert (T, L) == (1, 3)
    ys = [chain.state_at(t) for t in range(21)]
    for t in range(T, 20 - L + 1):
        assert ys[t + L] == ys[t]


def test_detect_cycle_examples():
    assert detect_cycle([5, 3, 7, 3, 7, 3]) == (1, 2)
    assert detect_cycle([9, 9, 9]) == (0, 1)
    with pytest.raises(NoCycleWithinHorizon):
        detect_cycle([1, 2, 3, 4])
    with pytest.raises(NoCycleWithinHorizon):
        detect_cycle([1, 2, 3])
    assert detect_cycle([1, 2, 1]) == (0, 2)


def oracle_first_repeat(seq):
    """Brute-force first repetition by linear list scanning."""
    for t in range(len(seq)):
        first = seq.index(seq[t])
        if first < t:
            return first, t - first
    return None


def test_detect_cycle_matches_bruteforce_oracle():
    rng = np.random.default_rng(123)
    for _ in range(300):
        n = int(rng.integers(2, 400))
        f = rng.integers(0, n, n)
        x = int(rng.integers(0, n))
        seq = [x]
        seen = {x}
        extra = 0
        while True:
            x = int(f[x])
            seq.append(x)
            if x in seen:
                extra += 1
                if extra > 3:
                    break
            seen.add(x)
        assert detect_cycle(seq) == oracle_first_repeat(seq)


def test_census_random_map_basic():
    report = period_census(d=2, K=3, ensemble=50, seed=7, generator="random_map")
    assert len(report.pairs) == 50
    bound = report.to_json()["state_count"]
    for T, L in report.pairs:
        assert 1 <= L <= bound
        assert 0 <= T <= bound
    # deterministic under the seed
    again = period_census(d=2, K=3, ensemble=50, seed=7, generator="random_map")
    assert again.pairs == report.pairs


def test_census_degenerate_single_state():
    # d=1, K=... the single-state analogue: a 1-node axis needs K>=1, so
    # use the smallest grid and check L=1 whenever only one state exists.
    report = period_census(d=1, K=1, ensemble=20, seed=0, generator="random_map")
    for _, L in report.pairs:
        assert 1 <= L <= 2


def test_census_random_ar():
    report = period_census(d=2, K=3, ensemble=20, seed=11, generator="random_ar")
    assert len(report.pairs) == 20
    for T, L in report.pairs:
        assert 1 <= L <= 16
    again = period_census(d=2, K=3, ensemble=20, seed=11, generator="random_ar")
    assert again.pairs == report.pairs


def test_pipeline_deterministic():
    m = ar_map([0.4, -0.3])
    g = GridSpec(K=16, d=2)
    a = run_pipeline(m, Point([0.9, -0.2]), g, 128)
    b = run_pipeline(m, Point([0.9, -0.2]), g, 128)
    assert a[1] == b[1]                      # shadows identical
    assert a[3].seq == b[3].seq              # chains bit-identical
    assert (a[3].pre_period, a[3].period) == (b[3].pre_period, b[3].period)
    assert a[2].n_states <= g.state_count    # N <= (K+1)^d


def test_pipeline_memory_per_sample():
    # orbit, shadow, table and chain at 2*10^5 samples of a 2-d map
    H = 200_000
    tracemalloc.start()
    try:
        run_pipeline(ar_map([1.5297, -1.0]), Point([0.9, 0.688]), GridSpec(K=64, d=2), H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (H + 1) <= 150


def test_census_report_stats():
    report = period_census(d=1, K=3, ensemble=30, seed=2, generator="random_map")
    data = report.to_json()
    assert data["mean_L"] == pytest.approx(np.mean(report.periods))
    assert data["max_L"] == max(report.periods)
    assert sum(report.histogram.values()) == 30
