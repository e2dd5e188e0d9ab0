"""Orbit generation, transition tables, chains, cycle detection, census."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aporbit import (
    BUILTIN_MAPS,
    ChainResult,
    GridSpec,
    GridState,
    GridStates,
    OrbitSeries,
    Point,
    TransitionTable,
    ar_map,
    build_chain,
    build_transition_table,
    builtin_map,
    delay_map,
    discretize_orbit,
    expression_map,
    generate_orbit,
    period_census,
    run_pipeline,
)
from aporbit.core import CLAMP_BAND, box_overshoot
from aporbit.errors import (AporbitError, DanglingState, DimensionMismatch, EvaluationError,
                            RangeViolation)
from aporbit.expressions import Var, parse_expression
from aporbit.maps import MapDefinition
from aporbit import orbit
from aporbit.orbit import CONFLICT_EXAMPLES, TABLE_BLOCK
from oracles import (BUILTIN_STEPS, NoCycleWithinHorizon, ar_step, detect_cycle, per_step_orbit,
                     scan_shadow_periodicity, whole_transition_table)
from test_expressions import ast_nodes, evaluate_ast


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
    m = ar_map([2.0])  # leaves the box at t = 1
    with pytest.raises(RangeViolation) as info:
        generate_orbit(m, Point([1.0]), 5)
    assert info.value.t == 1


# inf * 0: NaN wherever x1 != 0
NAN_1D = ["x1*1e200*1e200*0"]
NAN_2ND = ["0.5*x1", "x1*1e200*1e200*0"]


@pytest.mark.parametrize("sources, y0", [(NAN_1D, [0.3]), (NAN_2ND, [0.3, 0.1])])
def test_generate_orbit_rejects_nan(sources, y0):
    # the loop stops at a NaN in any coordinate, the second one included
    with pytest.raises(RangeViolation) as info:
        generate_orbit(expression_map(sources), Point(y0), 10)
    assert info.value.t == 1


def test_generate_orbit_reports_the_first_bad_sample():
    # NaN hides in x2 from t = 1; x1 leaves the box at t = 2
    m = expression_map(["x1 + 0.6", "x1*1e200*1e200*0"])
    with pytest.raises(RangeViolation) as info:
        generate_orbit(m, Point([0.3, 0.1]), 10)
    assert info.value.t == 1
    with pytest.raises(RangeViolation) as info:
        generate_orbit(expression_map(["x1 + 0.6", "0.5*x2"]), Point([0.3, 0.1]), 10)
    assert info.value.t == 2


def test_generate_orbit_clamps_within_the_band():
    # 1 + 1e-13 is clamped to 1 and the orbit goes on from the clamped value
    m = expression_map(["x1 + 1e-13", "-x2"])
    orb = generate_orbit(m, Point([1.0, 0.5]), 3)
    assert orb.values.tolist() == [[1.0, 0.5], [1.0, -0.5], [1.0, 0.5], [1.0, -0.5]]
    with pytest.raises(RangeViolation) as info:
        generate_orbit(expression_map(["x1 + 1e-11"]), Point([1.0]), 3)
    assert info.value.t == 1


EDGE_COORDS = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324]


def assert_matches_per_step(m, step, y0, horizon):
    """generate_orbit against the per-step loop that iterates `step`: the
    same samples bit for bit, or the same exception with the same t."""
    want, error = per_step_orbit(step, y0, horizon)
    try:
        got = generate_orbit(m, y0, horizon)
    except AporbitError as exc:
        assert error is not None, exc
        if isinstance(error, EvaluationError) and isinstance(exc, RangeViolation):
            # The per-step loop went on from a NaN after the first
            # coordinate and failed on a later step; the compiled loop
            # stops at that NaN, the first sample outside the box.
            bad = np.flatnonzero(box_overshoot(want) > CLAMP_BAND)
            assert len(bad) and exc.t == bad[0] and np.isnan(want[exc.t]).any()
            return
        assert type(exc) is type(error)
        assert str(exc) == str(error)
        assert getattr(exc, "t", None) == getattr(error, "t", None)
        return
    assert error is None, error
    assert np.array_equal(got.values.view(np.int64), want.view(np.int64))


def edge_nodes(d):
    """Trees that clamp at +-1, leave the box, turn NaN where x1 != 0, or
    divide by zero once x_i is NaN or 0 (max(0, NaN) is 0)."""
    sources = ["x{i} * 1.0000000000005", "-x{i} - 1e-13", "x{i} + 1e-11", "x1*1e200*1e200*0",
               "x1*1e200*1e200*0 + 1/max(0, x{i})", "0.5*x{i}"]
    return st.builds(lambda src, i: parse_expression(src.format(i=i), d),
                     st.sampled_from(sources), st.integers(1, d))


def drawn_map(data, d):
    """A map of each kind, with the step its orbit was iterated by before
    the compiled loop: the old builtin and `ar` step functions, and the
    tree interpreter for expression trees."""
    kind = data.draw(st.sampled_from(["ar", "delay", "expr", "builtin"]))
    if kind == "ar":
        near_one = st.sampled_from([1.0 + 4e-13, -1.0 - 4e-13, 1.0, -1.0, 0.0, -0.0, 1.5])
        p = data.draw(st.lists(st.one_of(st.floats(-1.2, 1.2), near_one),
                               min_size=d, max_size=d))
        return ar_map(p), ar_step(p)
    if kind == "builtin":
        name = data.draw(st.sampled_from(sorted(BUILTIN_MAPS)))
        return builtin_map(name, d), BUILTIN_STEPS[name]
    if kind == "delay":
        update = data.draw(st.one_of(ast_nodes(d), edge_nodes(d)))
        nodes = [update] + [Var(i) for i in range(1, d)]
    else:
        nodes = data.draw(st.lists(st.one_of(ast_nodes(d), edge_nodes(d)),
                                   min_size=d, max_size=d))
    return MapDefinition(tuple(nodes)), lambda c: tuple(evaluate_ast(n, c) for n in nodes)


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_generate_orbit_matches_the_per_step_loop(data):
    d = data.draw(st.integers(1, 4))
    m, step = drawn_map(data, d)
    y0 = data.draw(st.lists(st.one_of(st.floats(-1.0, 1.0), st.sampled_from(EDGE_COORDS)),
                            min_size=d, max_size=d))
    assert_matches_per_step(m, step, Point(y0), data.draw(st.integers(0, 200)))


def ar_case(p):
    """An `ar` map and the old `ar` step of its coefficients."""
    return ar_map(p), ar_step(p)


def tree_case(m):
    """A map of trees and its own compiled step."""
    return m, m.step


# each m is a map and the step that the per-step loop iterates
@pytest.mark.parametrize("m, y0, error, t", [
    # clamped within CLAMP_BAND at every step, in the first or a later coordinate
    (ar_case([1.0 + 4e-13]), [1.0], None, None),
    (tree_case(expression_map(["-x1", "x2 * 1.0000000000005"])), [0.5, -1.0], None, None),
    (ar_case([1.0 + 4e-13, -0.0]), [-1.0, 0.5], None, None),
    # escapes
    (ar_case([1.5]), [0.9], RangeViolation, 1),
    (ar_case([1.1]), [0.5], RangeViolation, 8),
    (tree_case(expression_map(["x1", "x2 + 0.3"])), [0.2, 0.0], RangeViolation, 4),
    # NaN in the first or a later coordinate
    (tree_case(expression_map(NAN_1D)), [0.3], RangeViolation, 1),
    (tree_case(expression_map(NAN_2ND)), [0.3, 0.1], RangeViolation, 1),
    (tree_case(expression_map(["0.5*x1", "x2", "x1*1e200*1e200*0"])), [0.3, 0.1, 0.2],
     RangeViolation, 1),
    # evaluation errors
    (tree_case(expression_map(["x1 / (x2 - 0.5)", "x2"])), [0.3, 0.5], EvaluationError, None),
    (tree_case(delay_map("sin(x2 * 1e300 * 1e300)", 2)), [0.3, 0.5], EvaluationError, None),
])
def test_generate_orbit_edge_cases_match_the_per_step_loop(m, y0, error, t):
    m, step = m
    assert_matches_per_step(m, step, Point(y0), 20)
    if error is not None:
        with pytest.raises(error) as info:
            generate_orbit(m, Point(y0), 20)
        assert getattr(info.value, "t", None) == t


def test_generate_orbit_stops_at_a_nan_the_per_step_loop_went_past():
    # x2 is NaN from t = 1 on; at t = 2, max(0, NaN) is 0 and 1/0 fails.
    # The per-step loop missed the NaN in x2 and raised at t = 2; the
    # compiled loop reports the NaN sample.
    m = expression_map(["0.5*x1", "x1*1e200*1e200*0 + 1/max(0, x2)"])
    _, error = per_step_orbit(m.step, Point([0.3, 0.5]), 10)
    assert isinstance(error, EvaluationError)
    with pytest.raises(RangeViolation) as info:
        generate_orbit(m, Point([0.3, 0.5]), 10)
    assert info.value.t == 1


def test_generate_orbit_never_calls_the_step():
    def refuse(coords):
        raise AssertionError("generate_orbit called the per-point step")

    for m, y0 in (
        (ar_map([1.0 + 4e-13, 0.0]), [1.0, 0.5]),  # clamps at every step
        (delay_map("0.5*x1 - 0.3*sin(x2)", 2), [0.3, -0.7]),
        (expression_map(["0.5*x1", "tanh(x2)"]), [0.3, -0.7]),
        (builtin_map("doubling", 3), [0.3, -0.7, 0.9]),
    ):
        want = generate_orbit(m, Point(y0), 100).values
        object.__setattr__(m, "step", refuse)
        assert np.array_equal(generate_orbit(m, Point(y0), 100).values, want)
    m = ar_map([1.5])
    object.__setattr__(m, "step", refuse)
    with pytest.raises(RangeViolation):
        generate_orbit(m, Point([0.9]), 10)


def test_discretize_orbit():
    g = GridSpec(K=1, d=1)
    orb = OrbitSeries(np.array([[1.0], [-1.0], [1.0]]))
    assert [s.indices for s in discretize_orbit(orb, g)] == [(1,), (0,), (1,)]
    g2 = GridSpec(K=2, d=1)
    assert [s.indices for s in discretize_orbit(OrbitSeries(np.array([[0.5], [0.25]])), g2)] \
        == [(2,), (1,)]
    with pytest.raises(DimensionMismatch):
        discretize_orbit(orb, GridSpec(K=1, d=2))


def test_transition_table_simple():
    g = GridSpec(K=4, d=1)
    A, B = states(g, [0], [1])
    table = build_transition_table(GridStates.of([A, B, A, B]))
    assert table == TransitionTable(g, 2)
    assert len(table.conflicts) == 0


def test_transition_table_conflict():
    g = GridSpec(K=4, d=1)
    A, B, C = states(g, [0], [1], [2])
    table = build_transition_table(GridStates.of([A, B, A, C]))
    assert len(table.conflicts) == 1  # the first occurrence A -> B wins
    assert table.conflicts.examples == ((A, 2, C),)
    # C is first seen at the final position: no outgoing observation, so it
    # is not counted among the states
    assert table.n_states == 2
    assert build_transition_table(GridStates.of([A, B, C])).n_states == 2


def oracle_table(shadow):
    """The per-state loop: the earliest occurrence fixes each successor.
    Returns {state: successor} in first-seen order, and the conflicts."""
    successor, conflicts = {}, []
    for t in range(len(shadow) - 1):
        s, nxt = shadow[t], shadow[t + 1]
        if s not in successor:
            successor[s] = nxt
        elif successor[s] != nxt:
            conflicts.append((s, t, nxt))
    return successor, conflicts


def test_transition_table_matches_loop_oracle():
    rng = np.random.default_rng(21)
    for _ in range(300):
        g = GridSpec(K=int(rng.integers(1, 6)), d=int(rng.integers(1, 3)))
        n = int(rng.integers(2, 60))
        shadow = [GridState(rng.integers(0, g.K + 1, g.d), g) for _ in range(n)]
        successor, conflicts = oracle_table(shadow)
        table = build_transition_table(GridStates.of(shadow))
        assert table.n_states == len(successor)
        assert len(table.conflicts) == len(conflicts)
        assert table.conflicts.examples == tuple(conflicts[:CONFLICT_EXAMPLES])


def test_transition_table_counts_conflicts_keeps_first_examples():
    g = GridSpec(K=4, d=1)
    A, B, C = states(g, [0], [1], [2])
    shadow = GridStates.of([A, B] + [A, C] * 8 + [A])
    table = build_transition_table(shadow)
    assert len(table.conflicts) == 8
    assert table.conflicts.examples == tuple((A, t, C) for t in (2, 4, 6, 8, 10))


def assert_table_is_the_whole_array_table(shadow, block=TABLE_BLOCK):
    # equal N, conflict count and examples, or the same refusal
    with mock.patch.object(orbit, "TABLE_BLOCK", block):
        try:
            got = build_transition_table(shadow)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                whole_transition_table(shadow)
            return
    assert got == whole_transition_table(shadow)


GRIDS = [GridSpec(K=1, d=1), GridSpec(K=3, d=2), GridSpec(K=6, d=3),
         GridSpec(K=2 ** 40, d=2)]  # the last: (K+1)^d > 2^63, codes are ranks


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_blocked_transition_table_equals_the_whole_array_table(data):
    # shadows of 0 to 5 blocks of 1..6 positions over a few states, so that
    # first sightings and conflicts fall on block edges and the final position
    g = data.draw(st.sampled_from(GRIDS))
    block = data.draw(st.integers(1, 6))
    alphabet = data.draw(st.lists(st.lists(st.integers(0, g.K), min_size=g.d, max_size=g.d),
                                  min_size=1, max_size=12, unique_by=tuple))
    n = data.draw(st.integers(0, 5 * block + 1))
    picks = data.draw(st.lists(st.integers(0, len(alphabet) - 1), min_size=n, max_size=n))
    rows = np.array([alphabet[i] for i in picks], dtype=np.int64).reshape(n, g.d)
    assert_table_is_the_whole_array_table(GridStates(rows, g), block)


@pytest.mark.parametrize("g", [GRIDS[1], GRIDS[3]], ids=["codes", "ranks"])
@pytest.mark.parametrize("block", [1, 2, 4])
def test_blocked_transition_table_at_block_edges(g, block):
    # A state new at the first and at the last source of a block (its
    # successor is the block's lookahead), a conflict on each side of a
    # block edge, and a state first seen at the final position.
    A, B, C, D, E = ([i, i] for i in (0, 1, 2, 3, g.K))
    cases = [
        [A, B, A, B, C, A, C, B, D, A, D, E],
        [A, A, B, A, C, C, A, B, D, D, E],
        [A, B, C, D, A, C, B, D, A, B, C, D, E],
        [A, B] * 8 + [E],
        [A] * (4 * block) + [B],
        [A] * (4 * block + 1) + [B, A],
    ]
    for case in cases:
        for n in range(len(case) + 1):
            shadow = GridStates(np.array(case[:n], dtype=np.int64).reshape(n, 2), g)
            assert_table_is_the_whole_array_table(shadow, block)


def test_blocked_transition_table_on_a_long_shadow():
    # many blocks at the library's own block size, conflicted and not
    H = 5 * TABLE_BLOCK + 17
    for y0, K in (([0.9, 0.688], 64), ([0.9, 0.688], 4), ([0.3, 0.2], 4096)):
        _, shadow, _, _ = run_pipeline(ar_map([1.5297, -1.0]), Point(y0), GridSpec(K=K, d=2), H)
        assert_table_is_the_whole_array_table(shadow)


def test_transition_table_beyond_int64_codes():
    # (K+1)^d > 2^63: states are told apart by their rows, not by codes
    g = GridSpec(K=2 ** 40, d=2)
    A, B, C = states(g, [0, 2 ** 40], [2 ** 40, 0], [7, 7])
    assert build_transition_table(GridStates.of([A, B, C, B, C, B])) == TransitionTable(g, 3)
    table = build_transition_table(GridStates.of([A, B, C, A, C]))
    assert table.n_states == 3 and table.conflicts.examples == ((A, 3, C),)
    chain = build_chain(GridStates.of([A, B, C, B, C, B]))
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
    chain = build_chain(GridStates.of([A, B, A, B]))
    assert (chain.pre_period, chain.period) == (0, 2)
    assert [chain.state_at(t).indices[0] for t in range(8)] == [0, 1, 0, 1, 0, 1, 0, 1]
    chain = build_chain(GridStates.of([A, B, C, B, C]))
    assert (chain.pre_period, chain.period) == (1, 2)
    chain = build_chain(GridStates.of([A, A, A]))
    assert (chain.pre_period, chain.period) == (0, 1)


def test_build_chain_dangling():
    g = GridSpec(K=4, d=1)
    A, B, C = states(g, [0], [1], [2])
    with pytest.raises(DanglingState) as info:
        build_chain(GridStates.of([A, B, C]))
    assert info.value.state == C  # stuck at C; y*(3) is undefined
    assert info.value.t == 3


def test_chain_periodicity_on_window():
    g = GridSpec(K=4, d=1)
    A, B, C, D = states(g, [0], [1], [2], [3])
    chain = build_chain(GridStates.of([A, B, C, D, B, C, D, B]))
    T, L = chain.pre_period, chain.period
    assert (T, L) == (1, 3)
    ys = [chain.state_at(t) for t in range(21)]
    for t in range(T, 20 - L + 1):
        assert ys[t + L] == ys[t]


def first_seen_table(shadow):
    """The earliest-occurrence table over rows in first-seen order: the
    index rows of the distinct states, and each source's successor row
    (len(rows) - 1 for a state seen only at the final position)."""
    successor, _ = oracle_table(shadow)
    order = list(successor) + [s for s in successor.values() if s not in successor][:1]
    row = {s: n for n, s in enumerate(order)}
    return GridStates.of(order, shadow.grid), [row[successor[s]] for s in successor]


def oracle_table_walk(shadow):
    """The table walk: run the earliest-occurrence successors from the
    row of shadow[0] until a row repeats."""
    rows, succ = first_seen_table(shadow)
    row, first = 0, {}
    while row not in first:
        first[row] = len(first)
        if row == len(succ):
            raise DanglingState("dangling", state=rows[row], t=len(first))
        row = succ[row]
    return ChainResult(
        grid=shadow.grid,
        seq=GridStates(rows.indices[list(first)], shadow.grid),
        pre_period=first[row],
        period=len(first) - first[row],
    )


def chain_or_dangling(build, shadow):
    try:
        chain = build(shadow)
    except DanglingState as exc:
        return "dangling", exc.state, exc.t
    return chain.pre_period, chain.period, chain.seq


def random_shadow(rng, g, n):
    # half uniform over the grid (all distinct, so dangling, on large
    # grids), half drawn from a small pool (repeats and conflicts)
    if rng.random() < 0.5:
        return GridStates(rng.integers(0, g.K + 1, (n, g.d)), g)
    pool = rng.integers(0, g.K + 1, (int(rng.integers(1, 9)), g.d))
    return GridStates(pool[rng.integers(0, len(pool), n)], g)


def test_build_chain_matches_table_walk():
    rng = np.random.default_rng(2310)
    dangling = conflicted = 0
    for _ in range(3000):
        g = GridSpec(K=int(rng.integers(1, 6)), d=int(rng.integers(1, 4)))
        shadow = random_shadow(rng, g, int(rng.integers(2, 60)))
        got = chain_or_dangling(build_chain, shadow)
        assert got == chain_or_dangling(oracle_table_walk, shadow)
        dangling += got[0] == "dangling"
        conflicted += len(build_transition_table(shadow).conflicts) > 0
    assert dangling >= 100 and conflicted >= 1000
    # (K+1)^d beyond int64: the rows themselves tell the states apart
    g = GridSpec(K=2 ** 40, d=2)
    outcomes = set()
    for _ in range(50):
        shadow = random_shadow(rng, g, int(rng.integers(2, 20)))
        got = chain_or_dangling(build_chain, shadow)
        assert got == chain_or_dangling(oracle_table_walk, shadow)
        outcomes.add(got[0] == "dangling")
    assert outcomes == {True, False}


def test_build_chain_copies_the_shadow_prefix():
    g = GridSpec(K=4, d=2)
    shadow = GridStates(np.array([[0, 1], [2, 3], [4, 0], [2, 3], [4, 0]]), g)
    chain = build_chain(shadow)
    assert chain.seq == shadow[:3]
    assert not np.shares_memory(chain.seq.indices, shadow.indices)


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


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_shadow_periodicity_equals_the_pair_by_pair_scan(data):
    # a transient, then a cycle repeated with a few entries changed, so
    # that candidate periods match for short and for long runs, over
    # windows shorter and longer than the shadow
    window = data.draw(st.integers(2, 120))
    scan = data.draw(st.integers(1, 8))
    transient = data.draw(st.lists(st.integers(0, 5), max_size=40))
    cycle = data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=12))
    body = transient + cycle * data.draw(st.integers(0, 30))
    for _ in range(data.draw(st.integers(0, 3))):
        if body:
            body[data.draw(st.integers(0, len(body) - 1))] = data.draw(st.integers(0, 5))
    shadow = GridStates(np.array(body, dtype=np.int64).reshape(-1, 1), GridSpec(K=5, d=1))
    with mock.patch.object(orbit, "SHADOW_WINDOW", window), \
            mock.patch.object(orbit, "SCAN_STEPS", scan):
        got = orbit.shadow_periodicity(shadow)
    assert got == scan_shadow_periodicity(shadow, window)


def test_shadow_periodicity_of_pipeline_shadows():
    # fixed points, short and long cycles and no period in the window,
    # at the library's own window and scan length
    for p, y0, K in (([1.5297, -1.0], [0.9, 0.688], 64), ([1.5297, -1.0], [0.9, 0.688], 1024),
                     ([0.6, -0.3], [0.5, 0.3], 256), ([0.0, -1.0], [1.0, 0.0], 2)):
        for H in (40, 9000, 14000):
            g = GridSpec(K=K, d=2)
            shadow = discretize_orbit(generate_orbit(ar_map(p), Point(y0), H), g)
            assert orbit.shadow_periodicity(shadow) == scan_shadow_periodicity(shadow)


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


@pytest.mark.parametrize("kind", ["ar", "uniform"])
def test_transition_table_memory_per_sample(kind):
    # the blocked table of a 2-d shadow of 2*10^5 samples, an orbit's and
    # one of uniform random states; one pass over the whole array's codes
    # would take about 49 B per sample
    H, g = 200_000, GridSpec(K=64, d=2)
    if kind == "ar":
        shadow = discretize_orbit(generate_orbit(ar_map([1.5297, -1.0]), Point([0.9, 0.688]), H), g)
    else:
        shadow = GridStates(np.random.default_rng(7).integers(0, g.K + 1, (H + 1, g.d)), g)
    tracemalloc.start()
    try:
        build_transition_table(shadow)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (H + 1) < 4


def test_census_report_stats():
    report = period_census(d=1, K=3, ensemble=30, seed=2, generator="random_map")
    data = report.to_json()
    assert data["mean_L"] == pytest.approx(np.mean(report.periods))
    assert data["max_L"] == max(report.periods)
    assert sum(report.histogram.values()) == 30
