"""Trigonometric representation of periodic chains."""

import time

import numpy as np
import pytest

from aporbit import (
    GridSpec,
    GridState,
    GridStates,
    build_chain,
    eval_trig,
    eval_trig_range,
    fit_trig,
    fit_trig_samples,
)
from aporbit.errors import BeforePhaseOrigin, NotPeriodic
from oracles import parseval_gap


def direct_fit(values, T, L):
    """Oracle: O(L^2) direct Fourier sums with the exact integer phase fold."""
    values = np.asarray(values, dtype=float)
    d = values.shape[1]
    M = L // 2
    a = np.zeros((M + 1, d))
    b = np.zeros((M + 1, d))
    us = np.arange(L, dtype=np.int64)
    for m in range(M + 1):
        ang = 2.0 * np.pi * ((m * us) % L) / L
        if m == 0:
            b[0] = values.mean(axis=0)
            continue
        alpha_c = np.cos(ang) @ values
        if 2 * m == L:
            b[m] = (alpha_c if (m * T) % L == 0 else -alpha_c) / L
            continue
        alpha_c = alpha_c * (2.0 / L)
        alpha_s = (np.sin(ang) @ values) * (2.0 / L)
        phi = 2.0 * np.pi * ((m * T) % L) / L
        c, s = np.cos(phi), np.sin(phi)
        b[m] = alpha_c * c - alpha_s * s
        a[m] = alpha_c * s + alpha_s * c
    return a, b


def direct_eval(form, t):
    """Oracle: the finite sum at one t, angles reduced mod L in integers."""
    ms = np.arange(form.harmonics + 1, dtype=np.int64)
    ang = 2.0 * np.pi * ((ms * t) % form.period) / form.period
    return np.sin(ang) @ form.a + np.cos(ang) @ form.b


def chain_from_indices(index_lists, K):
    g = GridSpec(K=K, d=len(index_lists[0]))
    return build_chain(GridStates.of([GridState(iv, g) for iv in index_lists]))


def test_constant_chain():
    # single fixed state: L=1, b_0 carries the constant
    chain = chain_from_indices([[3], [3], [3]], K=4)
    form = fit_trig(chain)
    assert form.period == 1 and form.harmonics == 0
    assert form.b[0][0] == pytest.approx(0.5)  # node 3 of K=4 is 0.5
    assert form.a[0][0] == 0.0
    for t in range(10):
        assert eval_trig(form, t)[0] == pytest.approx(0.5)


def test_two_cycle_is_cos_pi_t():
    # values 1, -1: y(t) = cos(pi t), so b_1 = 1 and everything else 0
    chain = chain_from_indices([[2], [0], [2]], K=2)
    form = fit_trig(chain)
    assert form.period == 2
    assert form.b[0][0] == pytest.approx(0.0, abs=1e-15)
    assert form.b[1][0] == pytest.approx(1.0)
    assert np.all(form.a == 0.0)
    assert eval_trig(form, 7)[0] == pytest.approx(-1.0)


def test_four_cycle_is_cos_half_pi_t():
    # values 1, 0, -1, 0: y(t) = cos(pi t / 2).  (As a scalar state chain
    # this needs two successors for 0, so feed the samples directly; the
    # d=2 rotation realizes the same sequence in its first coordinate.)
    values = np.array([[1.0], [0.0], [-1.0], [0.0]])
    form = fit_trig_samples(values, 0, 4)
    assert form.period == 4 and form.harmonics == 2
    assert form.b[1][0] == pytest.approx(1.0)
    assert form.b[0][0] == pytest.approx(0.0, abs=1e-15)
    assert form.b[2][0] == pytest.approx(0.0, abs=1e-15)
    assert np.max(np.abs(form.a)) <= 1e-15


def test_reconstruction_over_three_periods():
    rng = np.random.default_rng(5)
    for K in (3, 8, 17):
        g = GridSpec(K=K, d=2)
        # random periodic tail with a known phase origin (T, L)
        T, L = int(rng.integers(0, 4)), int(rng.integers(1, 9))
        cycle = [tuple(rng.integers(0, K + 1, 2)) for _ in range(L)]
        values = np.array(
            [GridState(iv, g).decode().coords for iv in cycle]
        )
        form = fit_trig_samples(values, T, L)
        recon = eval_trig_range(form, T, T + 3 * L)
        expected = np.array(
            [values[(t - T) % L] for t in range(T, T + 3 * L + 1)]
        )
        assert np.max(np.abs(recon - expected)) <= 1e-9


def test_phase_origin_folding():
    # pre-period 1 then a 2-cycle: the formula holds in t itself for t >= T
    chain = chain_from_indices([[1], [2], [0], [2], [0]], K=2)
    assert (chain.pre_period, chain.period) == (1, 2)
    form = fit_trig(chain)
    assert form.phase_origin == 1
    for t in range(1, 12):
        assert eval_trig(form, t)[0] == pytest.approx(
            chain.value_at(t)[0], abs=1e-12
        )
    with pytest.raises(BeforePhaseOrigin):
        eval_trig(form, 0)


def test_form_periodicity():
    chain = chain_from_indices([[0], [1], [4], [2], [1], [4], [2]], K=4)
    form = fit_trig(chain)
    L = form.period
    for t in range(form.phase_origin, form.phase_origin + 2 * L):
        assert np.allclose(
            eval_trig(form, t), eval_trig(form, t + L), atol=1e-12
        )


def test_parseval():
    rng = np.random.default_rng(9)
    for L in (1, 2, 3, 8, 13, 40):
        values = rng.uniform(-1, 1, (L, 3))
        form = fit_trig_samples(values, 0, L)
        assert parseval_gap(form, values) <= 1e-9


def test_not_periodic_guard():
    with pytest.raises(NotPeriodic):
        fit_trig("not a chain")


@pytest.mark.parametrize("period", [0, -1])
def test_fit_trig_samples_refuses_a_period_below_one(period):
    with pytest.raises(ValueError, match="period must be >= 1"):
        fit_trig_samples(np.zeros((0, 1)), 0, period)


def test_large_period_reconstruction():
    rng = np.random.default_rng(21)
    L = 2000
    values = rng.uniform(-1, 1, (L, 1))
    form = fit_trig_samples(values, 0, L)
    ts = list(range(0, L, 97)) + [L - 1, L, 2 * L + 5]
    for t in ts:
        assert eval_trig(form, t)[0] == pytest.approx(
            values[t % L][0], abs=1e-9
        )
    assert parseval_gap(form, values) <= 1e-9


def test_nyquist_sine_is_zero_for_even_period():
    rng = np.random.default_rng(2)
    for L in (2, 4, 10):
        values = rng.uniform(-1, 1, (L, 2))
        for T in (0, 1, 3):
            form = fit_trig_samples(values, T, L)
            assert np.all(form.a[L // 2] == 0.0)
            assert np.all(form.a[0] == 0.0)


def random_cases(seed, count):
    rng = np.random.default_rng(seed)
    Ls = [1, 2, 3, 4, 511, 512] + [int(x) for x in rng.integers(1, 513, count)]
    for L in Ls:
        T = int(rng.integers(0, 3 * L + 1))
        d = int(rng.integers(1, 4))
        scale = 10.0 ** rng.uniform(-3, 3)
        yield L, T, rng.uniform(-scale, scale, (L, d))


def test_fft_fit_matches_direct_sum():
    for L, T, values in random_cases(31, 40):
        form = fit_trig_samples(values, T, L)
        a, b = direct_fit(values, T, L)
        tol = 1e-12 * np.max(np.abs(values))
        assert np.max(np.abs(form.a - a)) <= tol, (L, T)
        assert np.max(np.abs(form.b - b)) <= tol, (L, T)
        assert np.all(form.a[0] == 0.0)
        if L % 2 == 0:
            assert np.all(form.a[L // 2] == 0.0)


def test_eval_trig_range_matches_direct_sum():
    for L, T, values in random_cases(32, 40):
        form = fit_trig_samples(values, T, L)
        t_end = T + 3 * L
        curve = eval_trig_range(form, T, t_end)
        assert curve.shape == (3 * L + 1, values.shape[1])
        oracle = np.array([direct_eval(form, t) for t in range(T, t_end + 1)])
        tol = 1e-12 * np.max(np.abs(values))
        assert np.max(np.abs(curve - oracle)) <= tol, (L, T)
        for t in (T, T + L // 2, t_end):
            assert np.array_equal(eval_trig(form, t), curve[t - T])


def test_eval_trig_range_before_phase_origin():
    form = fit_trig_samples(np.ones((3, 1)), 2, 3)
    with pytest.raises(BeforePhaseOrigin):
        eval_trig_range(form, 1, 5)


def test_large_period_fit_and_curve_under_a_second():
    rng = np.random.default_rng(40)
    L, T = 10 ** 5, 17
    values = rng.uniform(-1, 1, (L, 2))
    start = time.perf_counter()
    form = fit_trig_samples(values, T, L)
    curve = eval_trig_range(form, T, T + 3 * L)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    expected = values[np.arange(3 * L + 1) % L]
    assert np.max(np.abs(curve - expected)) <= 1e-9
    assert parseval_gap(form, values) <= 1e-9
