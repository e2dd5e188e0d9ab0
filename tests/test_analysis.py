"""Error bound, pre-period re-selection, lcm windows, ladder diagnostics."""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from aporbit import (
    ChainResult,
    GridSpec,
    GridState,
    GridStates,
    Point,
    ar_map,
    build_chain,
    build_ladder_plan,
    bounds_for_horizon,
    check_convergence_condition,
    condition_term,
    expression_map,
    fit_trig,
    lcm_periods,
    reselect_T,
    sup_difference,
    tail_convergence,
    verify_error_bound,
)
from aporbit.analysis import SUP_BLOCK
from aporbit.errors import DimensionMismatch, NotPeriodic, Overflow


def chain_error_bound(t, gamma, d, K):
    """Oracle: (2 * sum_{s=1..t} gamma^s + 1) * sqrt(d)/K by the raw sum."""
    if t < 0 or K < 1 or d < 1 or gamma <= 0:
        raise ValueError("need t >= 0, gamma > 0, d >= 1, K >= 1")
    powsum = 0.0
    term = 1.0
    for _ in range(t):
        term *= gamma
        powsum += term
    return (2.0 * powsum + 1.0) * math.sqrt(d) / K


def chain_error_bound_closed(t, gamma, d, K):
    """Oracle: (2(gamma - gamma^(1-t))/(gamma-1) + gamma^-t) * gamma^t * sqrt(d)/K,
    the raw sum for gamma != 1; inf once a power overflows the float range."""
    if gamma == 1.0:
        raise ValueError("closed form is singular at gamma = 1")
    try:
        C = 2.0 * (gamma - gamma ** (-t + 1)) / (gamma - 1.0) + gamma ** (-t)
        return C * gamma ** t * math.sqrt(d) / K
    except OverflowError:
        return math.inf


def test_bound_worked_values():
    # t=0: the empty sum leaves the pure quantization term sqrt(d)/K
    assert bounds_for_horizon(3.7, 1, 4, 0).tolist() == [0.25]
    # gamma=2, t=3, d=1, K=1: 2*(2+4+8)+1 = 29, and the closed form agrees
    assert bounds_for_horizon(2.0, 1, 1, 3)[3] == 29.0
    assert chain_error_bound_closed(3, 2.0, 1, 1) == pytest.approx(29.0)
    # gamma=1 (closed form singular): raw sum gives (2*5+1)*2/10
    assert bounds_for_horizon(1.0, 4, 10, 5)[5] == pytest.approx(2.2)
    with pytest.raises(ValueError):
        chain_error_bound_closed(5, 1.0, 4, 10)
    # a constant map has Lipschitz constant 0: the bound is sqrt(d)/K
    assert bounds_for_horizon(0.0, 4, 10, 3).tolist() == [0.2] * 4
    for bad in ((1.5, 2, 8, -1), (-0.5, 2, 8, 5), (math.nan, 2, 8, 5),
                (1.5, 0, 8, 5), (1.5, 2, 0, 5)):
        with pytest.raises(ValueError):
            bounds_for_horizon(*bad)


def test_bound_raw_vs_closed_agreement():
    for gamma in (0.5, 0.9, 1.1, 2.0, 3.0):
        arr = bounds_for_horizon(gamma, 2, 8, 60)
        for t in range(61):
            closed = chain_error_bound_closed(t, gamma, 2, 8)
            assert abs(arr[t] - closed) <= 1e-12 * closed


def test_bound_monotonicity():
    base = bounds_for_horizon(1.5, 2, 8, 11)
    assert base[11] >= base[10]
    assert np.all(np.diff(base) >= 0)
    assert np.all(bounds_for_horizon(1.6, 2, 8, 11) >= base)
    assert np.all(bounds_for_horizon(1.5, 3, 8, 11) >= base)
    assert np.all(bounds_for_horizon(1.5, 2, 9, 11) <= base)


def test_bounds_for_horizon_matches_scalar():
    for gamma in (0.3, 1.0, 1.3, 2.0):
        arr = bounds_for_horizon(gamma, 2, 4, 60)
        for t in range(61):
            assert arr[t] == pytest.approx(chain_error_bound(t, gamma, 2, 4), rel=1e-14)


def test_verify_error_bound_contracting_ar():
    report = verify_error_bound(ar_map([0.5]), Point([0.8]), K=8, horizon=50)
    assert report.passed
    assert report.gamma == pytest.approx(0.5)
    assert report.gamma_method == "analytic"
    assert report.conflicts >= 0
    assert report.worst_ratio <= 1.0 + 1e-12
    assert "closed_form_gap" not in report.to_json()
    np.testing.assert_array_equal(report.bound, bounds_for_horizon(report.gamma, 1, 8, 50))


def test_verify_error_bound_constant_map():
    # a constant map has the analytic gamma 0; the bound stays sqrt(d)/K
    report = verify_error_bound(expression_map(["0.5"]), Point([0.3]), K=4, horizon=10)
    assert (report.gamma, report.gamma_method) == (0.0, "analytic")
    assert report.passed
    assert report.bound.tolist() == [0.25] * 11


def test_verify_error_bound_rotation_exact_at_K2():
    report = verify_error_bound(ar_map([0.0, -1.0]), Point([1.0, 0.0]), K=2, horizon=40)
    assert report.passed
    assert report.conflicts == 0
    assert np.max(report.actual) == 0.0  # orbit lies exactly on the grid


def test_verify_error_bound_rotation_K1_still_passes():
    # merged states produce conflicts at K=1, but the bound still holds
    report = verify_error_bound(ar_map([0.0, -1.0]), Point([1.0, 0.0]), K=1, horizon=40)
    assert report.conflicts > 0
    assert report.passed


def test_verify_error_bound_identity_map():
    report = verify_error_bound(
        expression_map(["x1", "x2"]), Point([0.37, -0.81]), K=5, horizon=30
    )
    assert report.passed
    assert np.max(report.actual) <= math.sqrt(2) / 5 + 1e-15


def test_lcm_examples():
    assert lcm_periods(4, 6) == 12
    assert lcm_periods(1, 9) == 9
    assert lcm_periods(12, 18) == 36
    with pytest.raises(ValueError):
        lcm_periods(0, 3)
    with pytest.raises(Overflow):
        lcm_periods(2 ** 62, 2 ** 62 - 1)


def test_reselect_examples():
    assert reselect_T([3, 5], [4, 1]) == [3, 7]
    assert reselect_T([0, 0, 0], [1, 1, 1]) == [0, 0, 0]
    assert reselect_T([2, 2], [5, 1]) == [2, 2]
    assert reselect_T([], []) == []


def test_reselect_constraints_random():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        Ts = [int(t) for t in rng.integers(0, 20, n)]
        Ls = [int(l) for l in rng.integers(1, 10, n)]
        out = reselect_T(Ts, Ls)
        assert all(o >= t for o, t in zip(out, Ts))
        assert all(b >= a for a, b in zip(out, out[1:]))
        assert all((out[j + 1] - out[j]) % Ls[j] == 0 for j in range(n - 1))


def test_reselect_minimality_exhaustive():
    # A componentwise minimum over all admissible sequences need not exist
    # (e.g. T=[0,0,5], L=[5,7,1]: [0,0,7] and [0,5,5] are incomparable),
    # so "minimal" means the exhaustive lexicographic minimum, which the
    # greedy pass realizes.
    rng = np.random.default_rng(13)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        Ts = [int(t) for t in rng.integers(0, 20, n)]
        Ls = [int(l) for l in rng.integers(1, 20, n)]
        out = reselect_T(Ts, Ls)
        bound = max(out) + max(Ls) + 1
        best = None
        for seq in itertools.product(*(range(t, bound) for t in Ts)):
            ok = all(
                seq[j + 1] >= seq[j] and (seq[j + 1] - seq[j]) % Ls[j] == 0
                for j in range(n - 1)
            )
            if ok and (best is None or list(seq) < best):
                best = list(seq)
        assert best == out


def test_reselect_incomparable_witness():
    # both sequences admissible for T=[0,0,5], L=[5,7,1]; greedy returns
    # the lexicographically smaller one
    assert reselect_T([0, 0, 5], [5, 7, 1]) == [0, 0, 7]
    alt = [0, 5, 5]
    assert alt[1] >= 0 and (alt[1] - alt[0]) % 5 == 0
    assert alt[2] >= 5 and (alt[2] - alt[1]) % 7 == 0


def test_condition_worked_term():
    # T'_2=2, lcm=2, K_1=4, gamma=2 -> 9 * 16 / 4 = 36
    assert condition_term(2, 2, 4, 2.0) == 36.0
    plan = build_ladder_plan([4, 8], [2, 2], [2, 2])
    report = check_convergence_condition(plan, 2.0, budget=100.0)
    assert report.terms == (36.0,)
    assert report.partial_sums == (36.0,)
    assert report.below_budget
    assert "not decidable" in report.note


def test_condition_geometric_terms():
    # gamma=1, T'=0, lcm=1, K_j = 2^j: terms 3/2^j, partial sums below 3
    Ks = [2 ** j for j in range(1, 8)]
    plan = build_ladder_plan(Ks, [0] * len(Ks), [1] * len(Ks))
    report = check_convergence_condition(plan, 1.0, budget=4.0)
    for j, term in enumerate(report.terms):
        assert term == pytest.approx(3.0 / Ks[j])
    assert report.below_budget
    assert report.partial_sums[-1] < 3.0


def test_powers_beyond_float_range_give_inf():
    assert condition_term(10, 2000, 64, 2.02) == math.inf
    assert chain_error_bound_closed(2000, 2.02, 2, 64) == math.inf
    assert bounds_for_horizon(2.02, 2, 64, 2000)[-1] == math.inf
    # terms 6*2.02^3 and inf: no budget claim, and no NaN ratio
    plan = build_ladder_plan([4, 8, 16], [0, 0, 0], [2, 3, 1000])
    report = check_convergence_condition(plan, 2.02, budget=1e6)
    assert math.isfinite(report.terms[0]) and report.terms[1] == math.inf
    assert report.growth_ratios == (None,)
    assert report.below_budget is False
    assert report.to_json()["growth_ratios"] == [None]


def test_condition_empty_ladder():
    plan = build_ladder_plan([4], [0], [1])
    report = check_convergence_condition(plan, 2.0, budget=1.0)
    assert report.terms == ()
    assert report.below_budget


def chain_of_values(node_indices, K):
    g = GridSpec(K=K, d=1)
    return build_chain(GridStates.of([GridState([i], g) for i in node_indices]))


def test_sup_difference_identical_chains():
    c = chain_of_values([2, 0, 2], K=2)
    assert sup_difference(c, c, 0, 0) == 0.0


def hand_chain(index_cycle, K, pre_period=0):
    """ChainResult built directly from a value cycle (repeats allowed)."""
    from aporbit import ChainResult

    g = GridSpec(K=K, d=1)
    return ChainResult(
        grid=g,
        seq=GridStates(np.array([[i] for i in index_cycle], dtype=np.int64), g),
        pre_period=pre_period,
        period=len(index_cycle) - pre_period,
    )


def test_sup_difference_enumerated():
    # values (1,-1) period 2 vs (1,0,-1,0) period 4, aligned at T'=0;
    # enumerating the 5 points of the inclusive lcm window gives sup 2
    # (|1-(-1)| at t=2).
    chain2 = hand_chain([2, 0], K=2)
    chain4 = hand_chain([2, 1, 0, 1], K=2)
    sup = 0.0
    for t in range(5):
        sup = max(sup, float(np.linalg.norm(
            chain4.value_at(t) - chain2.value_at(t))))
    got = sup_difference(chain2, chain4, 0, 0)
    assert got == pytest.approx(sup)
    assert got == pytest.approx(2.0)


def test_sup_difference_shift_by_period_is_zero():
    c = chain_of_values([3, 1, 3], K=4)
    assert c.period == 2
    assert sup_difference(c, c, 0, 2) == 0.0  # shift by one period
    with pytest.raises(ValueError):
        sup_difference(c, c, 0, 1)  # shift not divisible by the period


def test_sup_window_reduction_identity():
    # sup over any multiple of the lcm window equals sup over one window
    rng = np.random.default_rng(8)
    for _ in range(20):
        L1, L2 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        cyc1 = [int(x) for x in rng.integers(0, 7, L1)]
        cyc2 = [int(x) for x in rng.integers(0, 7, L2)]
        window = math.lcm(L1, L2)
        def val(cyc, t):
            return 2 * cyc[t % len(cyc)] / 6 - 1
        sup_one = max(
            abs(val(cyc1, t) - val(cyc2, t)) for t in range(window + 1)
        )
        sup_three = max(
            abs(val(cyc1, t) - val(cyc2, t)) for t in range(3 * window + 1)
        )
        assert sup_one == sup_three


def test_tail_convergence_rotation():
    # exactly periodic orbit on even grids: all sups collapse to zero
    report = tail_convergence(
        ar_map([0.0, -1.0]), Point([1.0, 0.0]), [2, 4, 8], horizon=64
    )
    assert report.chain_sups == (0.0, 0.0)
    assert report.orbit_sups == (0.0, 0.0)
    assert report.consistent


@pytest.mark.parametrize("Ks", [[16, 8], [4, 4], [0, 4]])
def test_tail_convergence_checks_the_ladder_first(monkeypatch, Ks):
    def no_orbit(*args):
        raise AssertionError("an orbit was generated for a bad ladder")

    monkeypatch.setattr("aporbit.orbit.generate_orbit", no_orbit)
    monkeypatch.setattr("aporbit.analysis.generate_orbit", no_orbit)
    with pytest.raises(ValueError, match="strictly increasing"):
        tail_convergence(ar_map([0.5]), Point([0.3]), Ks, horizon=300)


def test_tail_convergence_fixed_point():
    # 0.5 is a grid node at K=4 and K=8 (not at K=2, where it is a midpoint)
    report = tail_convergence(
        expression_map(["x1"]), Point([0.5]), [4, 8], horizon=32
    )
    assert report.chain_sups == (0.0,)
    assert report.orbit_sups == (0.0,)
    assert report.consistent


def test_tail_convergence_contracting():
    # contracting recurrence: sups bounded by grid error plus tail decay
    report = tail_convergence(
        ar_map([0.5]), Point([1.0]), [4, 8, 16], horizon=80, tolerance=1.0
    )
    for j, sup in enumerate(report.chain_sups):
        Kj, Kj1 = [4, 8, 16][j], [4, 8, 16][j + 1]
        assert sup <= 1.0 / Kj + 1.0 / Kj1 + 0.5 ** 10 + 1e-12
    assert len(report.orbit_sups) == 2
    assert report.plan.T_prime[0] <= report.plan.T_prime[1]


def test_sup_difference_requires_certificates():
    c = chain_of_values([2, 0, 2], K=2)
    fake = type(c)(grid=c.grid, seq=c.seq, pre_period=0, period=0)
    with pytest.raises(NotPeriodic):
        sup_difference(fake, c, 0, 0)


def test_certificate_must_match_the_stored_states():
    # two stored rows cannot hold the T + L = 3 states the certificate claims
    g = GridSpec(K=2, d=1)
    short = ChainResult(grid=g, seq=GridStates(np.array([[0], [2]]), g),
                        pre_period=0, period=3)
    good = chain_of_values([2, 0, 2], K=2)
    with pytest.raises(NotPeriodic):
        fit_trig(short)
    with pytest.raises(NotPeriodic):
        sup_difference(short, good, 0, 0)
    with pytest.raises(NotPeriodic):
        sup_difference(good, short, 0, 0)


def stepwise_sup(chain_j, chain_jp1, T_prime_jp1):
    """Oracle: the per-step walk over the inclusive lcm window."""
    window = math.lcm(chain_j.period, chain_jp1.period)
    sup = 0.0
    for t in range(window + 1):
        diff = chain_jp1.value_at(t + T_prime_jp1) - chain_j.value_at(t + T_prime_jp1)
        sup = max(sup, float(np.linalg.norm(diff)))
    return sup


def random_chain(rng, K, d, pre_period, period):
    g = GridSpec(K=K, d=d)
    indices = rng.integers(0, K + 1, (pre_period + period, d)).astype(np.int64)
    return ChainResult(grid=g, seq=GridStates(indices, g), pre_period=pre_period,
                       period=period)


def aligned_pair(rng, K, d, L_j, L_jp1):
    c_j = random_chain(rng, K, d, int(rng.integers(0, 6)), L_j)
    c_jp1 = random_chain(rng, K, d, int(rng.integers(0, 6)), L_jp1)
    T_j, T_jp1 = reselect_T([c_j.pre_period, c_jp1.pre_period], [L_j, L_jp1])
    return c_j, c_jp1, T_j, T_jp1


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sup_difference_equals_stepwise_walk(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(8):
        L_j, L_jp1 = (int(x) for x in rng.integers(1, 101, 2))
        assert math.lcm(L_j, L_jp1) <= 10 ** 4
        K = int(rng.choice([3, 64, 1000]))
        c_j, c_jp1, T_j, T_jp1 = aligned_pair(rng, K, d, L_j, L_jp1)
        assert sup_difference(c_j, c_jp1, T_j, T_jp1) == stepwise_sup(c_j, c_jp1, T_jp1)


def test_sup_difference_across_a_block_boundary():
    rng = np.random.default_rng(257)
    c_j, c_jp1, T_j, T_jp1 = aligned_pair(rng, 512, 2, 257, 263)
    assert math.lcm(257, 263) == 67591 > SUP_BLOCK
    assert sup_difference(c_j, c_jp1, T_j, T_jp1) == stepwise_sup(c_j, c_jp1, T_jp1)


def test_sup_difference_dimension_mismatch():
    rng = np.random.default_rng(3)
    with pytest.raises(DimensionMismatch):
        sup_difference(random_chain(rng, 4, 1, 0, 2), random_chain(rng, 4, 2, 0, 2), 0, 0)


def test_sup_difference_long_window_time_and_memory():
    # coprime periods: an lcm window of 1,005,973 steps
    rng = np.random.default_rng(997)
    c_j, c_jp1, T_j, T_jp1 = aligned_pair(rng, 4096, 3, 997, 1009)
    start = time.perf_counter()
    sup = sup_difference(c_j, c_jp1, T_j, T_jp1)
    assert time.perf_counter() - start < 1.0
    tracemalloc.start()
    try:
        assert sup_difference(c_j, c_jp1, T_j, T_jp1) == sup
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    # every pair of cycle positions meets in a coprime window
    nodes_j = c_j.values(T_j, T_j + 996)
    nodes_jp1 = c_jp1.values(T_jp1, T_jp1 + 1008)
    pair = nodes_jp1[:, None, :] - nodes_j[None, :, :]
    assert sup == pytest.approx(math.sqrt(np.max(np.sum(pair * pair, axis=2))), rel=1e-12)
