"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is fixed here, none deferred.
"""

import cmath
import math
import time

import numpy as np

from aporbit import (
    GridSpec,
    GridState,
    GridStates,
    Point,
    ar_map,
    build_chain,
    build_ladder_plan,
    characteristic_roots,
    check_convergence_condition,
    classify,
    coefficients_from_roots,
    condition_term,
    estimate_lipschitz,
    eval_trig,
    expression_map,
    fit_trig,
    fit_trig_samples,
    lcm_periods,
    period_census,
    recursion,
    reselect_T,
    run_pipeline,
    solve_coefficients,
    spec_from_roots,
    split,
    validate_range,
    verify_error_bound,
)
from oracles import detect_cycle, loop_step, oracle_first_repeat, parseval_gap, quantization_error


def report(name, detail):
    print(f"[PASS] {name}: {detail}")


# --------------------------------------------------------------------------
# corpora (deterministic)
# --------------------------------------------------------------------------

def ar_map_corpus():
    """20 box-preserving linear recurrences (sum |p_l| <= 1)."""
    rng = np.random.default_rng(2024)
    corpus = [ar_map([-1.0]), ar_map([0.0, -1.0])]
    while len(corpus) < 20:
        d = int(rng.integers(1, 4))
        raw = rng.uniform(-1, 1, d)
        total = rng.uniform(0.3, 1.0)
        corpus.append(ar_map(raw / np.sum(np.abs(raw)) * total))
    return corpus


EXPR_SOURCES = [
    ["0.9*cos(3*x1)"],
    ["tanh(x1) * 0.9"],
    ["0.5*x1 - 0.4*sin(x2)", "x1"],
    ["1 - 2*abs(x1)"],
    ["2*x1*x1 - 1"],
    ["0.8*sin(3.14159*x1)"],
    ["0.5*x1 + 0.5*cos(2*x2)", "tanh(2*x1)"],
    ["max(-0.9, min(0.9, x1 + 0.3))"],
    ["0.6*x2", "0.7*sin(2*x1)"],
    ["0.3*x1 - 0.6*x2*x2 + 0.2", "x1"],
]


def draw_disk_roots(rng, d, unit_prob=0.3, max_radius=0.95, min_sep=0.05):
    """Conjugate-symmetric roots in the closed unit disk, unit roots simple."""
    while True:
        roots = []
        used_unit_reals = set()
        remaining = d
        while remaining > 0:
            if remaining >= 2 and rng.random() < 0.6:
                theta = rng.uniform(0.15, np.pi - 0.15)
                if rng.random() < unit_prob:
                    r = 1.0
                else:
                    r = math.sqrt(rng.random()) * max_radius
                mu = r * cmath.exp(1j * theta)
                roots.extend([mu, mu.conjugate()])
                remaining -= 2
            else:
                if rng.random() < unit_prob:
                    sign = 1.0 if rng.random() < 0.5 else -1.0
                    if sign not in used_unit_reals:
                        used_unit_reals.add(sign)
                        roots.append(complex(sign))
                        remaining -= 1
                        continue
                roots.append(complex(rng.uniform(-max_radius, max_radius)))
                remaining -= 1
        if all(abs(a - b) >= min_sep
               for i, a in enumerate(roots) for b in roots[i + 1:]):
            return roots


def draw_symmetric_coeffs(rng, roots, lo=0.05, hi=0.3):
    coeffs = []
    for mu, _ in roots:
        if mu.imag > 0:
            coeffs.append(
                rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(0, 2 * np.pi))
            )
        elif mu.imag < 0:
            coeffs.append(coeffs[-1].conjugate())
        else:
            coeffs.append(complex(rng.uniform(-hi, hi)))
    return coeffs


# --------------------------------------------------------------------------
# 1. quantization bound: zero violations at zero tolerance
# --------------------------------------------------------------------------

def test_criterion_1_quantization_bound():
    start = time.time()
    rng = np.random.default_rng(1)
    checked = 0
    for _ in range(10_000):
        d = int(rng.integers(1, 6))
        K = int(rng.integers(1, 65))
        p = Point(rng.uniform(-1, 1, d))
        assert quantization_error(p, GridSpec(K=K, d=d)) <= math.sqrt(d) / K
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 1.0, f"quantization sweep took {elapsed:.2f}s"
    report("criterion 1 (quantization bound)",
           f"{checked} random points, d<=5, K<=64, zero violations, "
           f"{elapsed:.2f}s")


# --------------------------------------------------------------------------
# 2. chain approximation error bound over the map corpus
# --------------------------------------------------------------------------

def test_criterion_2_error_bound_corpus():
    start = time.time()
    rng = np.random.default_rng(2024)
    runs = conflicted = 0
    worst_free = 0.0
    conflicted_list = []
    for i, m in enumerate(ar_map_corpus()):
        lip = estimate_lipschitz(m)
        y0 = Point(rng.uniform(-1, 1, m.d))
        for K in (2, 4, 8, 16):
            rep = verify_error_bound(m, y0, K, 200, lipschitz=lip)
            runs += 1
            if rep.conflicts:
                conflicted += 1
                conflicted_list.append((f"ar[{i}]", K, rep.worst_ratio))
            else:
                assert rep.passed, (i, K, rep.worst_ratio)
                worst_free = max(worst_free, rep.worst_ratio)
    for i, sources in enumerate(EXPR_SOURCES):
        m = expression_map(sources)
        assert validate_range(m, samples=200, seed=0).passed, sources
        lip = estimate_lipschitz(m, samples=3000, seed=i)
        assert lip.method == "sampled"  # caveat flag present on every run
        y0 = Point(rng.uniform(-1, 1, m.d))
        for K in (2, 4, 8, 16):
            rep = verify_error_bound(m, y0, K, 200, lipschitz=lip)
            runs += 1
            if rep.conflicts:
                conflicted += 1
                conflicted_list.append((f"expr[{i}]", K, rep.worst_ratio))
            else:
                assert rep.passed, (sources, K, rep.worst_ratio)
                worst_free = max(worst_free, rep.worst_ratio)
    elapsed = time.time() - start
    assert elapsed < 30.0, f"bound sweep took {elapsed:.2f}s"
    lines = ", ".join(f"{tag} K={K} ratio={r:.4f}"
                      for tag, K, r in conflicted_list[:6])
    report("criterion 2 (error bound)",
           f"{runs} runs (20 AR analytic + 10 expr sampled, K in 2..16), "
           f"0 violations on {runs - conflicted} conflict-free runs, worst "
           f"ratio {worst_free:.6f}; {conflicted} conflicted runs listed "
           f"separately (first: {lines}); {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 3. chain periodicity and (T, L) against the brute-force oracle
# --------------------------------------------------------------------------

def test_criterion_3_chain_periodicity_and_cycle_oracle():
    start = time.time()
    # (a) exhaustive periodicity of chains built from random tables
    rng = np.random.default_rng(33)
    for _ in range(200):
        n = int(rng.integers(2, 50))
        g = GridSpec(K=n - 1, d=1)
        f = rng.integers(0, n, n)
        shadow = [GridState([int(rng.integers(0, n))], g)]
        for _ in range(3 * n):
            shadow.append(GridState([int(f[shadow[-1].indices[0]])], g))
        horizon = 3 * n
        chain = build_chain(GridStates.of(shadow))
        T, L = chain.pre_period, chain.period
        ys = [chain.state_at(t) for t in range(horizon + 1)]
        for t in range(T, horizon - L + 1):
            assert ys[t + L] == ys[t]
    # the same exhaustive check on pipeline-produced chains
    for m in ar_map_corpus()[:8]:
        y0 = Point(rng.uniform(-1, 1, m.d))
        for K in (3, 8):
            horizon = 120
            _, _, _, chain = run_pipeline(
                m, y0, GridSpec(K=K, d=m.d), horizon
            )
            T, L = chain.pre_period, chain.period
            ys = [chain.state_at(t) for t in range(horizon + 1)]
            for t in range(T, horizon - L + 1):
                assert ys[t + L] == ys[t]
    # (b) detect_cycle vs brute-force first-repeat oracle, 1000 graphs
    rng = np.random.default_rng(555)
    for trial in range(1000):
        n = int(rng.integers(2, 10_001))
        f = rng.integers(0, n, n)
        x = int(rng.integers(0, n))
        seq = [x]
        seen = {x}
        while True:
            x = int(f[x])
            seq.append(x)
            if x in seen:
                break
            seen.add(x)
        for _ in range(3):  # margin past closure for the verification pass
            x = int(f[x])
            seq.append(x)
        assert detect_cycle(seq) == oracle_first_repeat(seq), trial
    elapsed = time.time() - start
    assert elapsed < 10.0, f"periodicity sweep took {elapsed:.2f}s"
    report("criterion 3 (chain periodicity)",
           f"200 chains exhaustively periodic on [T, H-L]; detect_cycle == "
           f"brute-force oracle on 1000 graphs (<=10^4 states); {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 4. trigonometric representation: reconstruction and Parseval
# --------------------------------------------------------------------------

def test_criterion_4_trig_representation():
    rng = np.random.default_rng(44)
    worst_recon = worst_parseval = 0.0
    # chains from random transition tables
    for _ in range(50):
        n = int(rng.integers(2, 40))
        g = GridSpec(K=n - 1, d=1)
        f = rng.integers(0, n, n)
        shadow = [GridState([int(rng.integers(0, n))], g)]
        for _ in range(3 * n):
            shadow.append(GridState([int(f[shadow[-1].indices[0]])], g))
        chain = build_chain(GridStates.of(shadow))
        form = fit_trig(chain)
        T, L = chain.pre_period, chain.period
        for t in range(T, T + 3 * L + 1):
            err = abs(eval_trig(form, t)[0] - chain.value_at(t)[0])
            worst_recon = max(worst_recon, err)
        vals = chain.values(T, T + L - 1)
        worst_parseval = max(worst_parseval, parseval_gap(form, vals))
    # direct sample fits, including the L = 10^4 boundary
    for L in (1, 2, 3, 997, 10_000):
        values = rng.uniform(-1, 1, (L, 2))
        T = int(rng.integers(0, 5))
        form = fit_trig_samples(values, T, L)
        for t in list(range(T, T + min(L, 40))) + [T + L, T + 2 * L, T + 3 * L]:
            err = np.max(np.abs(eval_trig(form, t) - values[(t - T) % L]))
            worst_recon = max(worst_recon, err)
        worst_parseval = max(worst_parseval, parseval_gap(form, values))
    assert worst_recon <= 1e-9
    assert worst_parseval <= 1e-9
    report("criterion 4 (trig representation)",
           f"reconstruction <= {worst_recon:.2e}, Parseval gap <= "
           f"{worst_parseval:.2e} (fits up to L=10^4)")


# --------------------------------------------------------------------------
# 5. ladder machinery: re-selection, lcm, window reduction, worked term
# --------------------------------------------------------------------------

def test_criterion_5_ladder_machinery():
    import itertools

    rng = np.random.default_rng(55)
    # reselect_T: constraints + exhaustive lexicographic minimum, T, L <= 20
    for _ in range(80):
        n = int(rng.integers(2, 5))
        Ts = [int(t) for t in rng.integers(0, 21, n)]
        Ls = [int(l) for l in rng.integers(1, 21, n)]
        out = reselect_T(Ts, Ls)
        assert all(o >= t for o, t in zip(out, Ts))
        assert all(b >= a for a, b in zip(out, out[1:]))
        assert all((out[j + 1] - out[j]) % Ls[j] == 0 for j in range(n - 1))
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
    # lcm against the arithmetic oracle
    for _ in range(500):
        a, b = int(rng.integers(1, 1000)), int(rng.integers(1, 1000))
        got = lcm_periods(a, b)
        assert got % a == 0 and got % b == 0
        assert all((v % a != 0 or v % b != 0) for v in range(max(a, b), got, max(a, b)))
    # sup-over-window reduction identity on decoded chains
    for _ in range(30):
        K = 6
        g = GridSpec(K=K, d=1)
        L1, L2 = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        cyc1 = [int(x) for x in rng.integers(0, K + 1, L1)]
        cyc2 = [int(x) for x in rng.integers(0, K + 1, L2)]
        window = math.lcm(L1, L2)

        def val(cyc, t):
            return g.node(cyc[t % len(cyc)])

        sup_one = max(abs(val(cyc1, t) - val(cyc2, t)) for t in range(window + 1))
        for mult in (2, 3):
            sup_mult = max(
                abs(val(cyc1, t) - val(cyc2, t))
                for t in range(mult * window + 1)
            )
            assert sup_mult == sup_one  # exact equality on decoded values
    # worked condition term: T'=2, lcm=2, K=4, gamma=2 -> 36
    assert condition_term(2, 2, 4, 2.0) == 36.0
    plan = build_ladder_plan([4, 8], [2, 2], [2, 2])
    rep = check_convergence_condition(plan, 2.0, budget=100.0)
    assert rep.terms == (36.0,)
    report("criterion 5 (ladder machinery)",
           "reselect_T == exhaustive lex-min (80 ladders, T,L<=20); lcm vs "
           "oracle (500); window reduction exact (30); worked term = 36")


# --------------------------------------------------------------------------
# 6. closed form vs recursion on the random bounded corpus
# --------------------------------------------------------------------------

def test_criterion_6_closed_form_corpus():
    start = time.time()
    rng = np.random.default_rng(99)
    worst = 0.0
    count = 0
    for d in (1, 2, 3, 4):
        for _ in range(50):
            roots = draw_disk_roots(rng, d)
            m = ar_map(coefficients_from_roots(roots))
            y0 = Point(rng.uniform(-1, 1, d))
            dec = solve_coefficients(m, y0)
            z = recursion(m, y0, 100)
            closed = np.array([dec.evaluate(t) for t in range(101)])
            worst = max(worst, float(np.max(np.abs(z - closed))))
            count += 1
    elapsed = time.time() - start
    assert worst <= 1e-6
    assert elapsed < 5.0, f"closed-form sweep took {elapsed:.2f}s"
    report("criterion 6 (closed form)",
           f"{count} random bounded specs (50 per d in 1..4), max "
           f"|recursion - closed| = {worst:.2e} <= 1e-6; {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 7. convergence to the almost periodic part
# --------------------------------------------------------------------------

def test_criterion_7_ap_convergence():
    rng = np.random.default_rng(7)
    # (a) decay radius <= 0.9: |z(200) - ap(200)| <= 1e-6
    worst_mixed = 0.0
    for _ in range(40):
        d = int(rng.integers(2, 5))
        while True:
            roots = []
            if rng.random() < 0.7:
                theta = rng.uniform(0.3, np.pi - 0.3)
                mu = cmath.exp(1j * theta)
                roots += [(mu, 1), (mu.conjugate(), 1)]
            else:
                roots.append((complex(1.0 if rng.random() < 0.5 else -1.0), 1))
            flat = [r for r, _ in roots]
            while sum(m for _, m in roots) < d:
                cand = complex(rng.uniform(-0.9, 0.9))
                if all(abs(cand - f) >= 0.3 for f in flat):
                    roots.append((cand, 1))
                    flat.append(cand)
                else:
                    break
            if sum(m for _, m in roots) == d:
                break
        m, y0 = spec_from_roots(roots, draw_symmetric_coeffs(rng, roots))
        dec = solve_coefficients(m, y0)
        assert dec.decay_radius <= 0.9 + 1e-12
        ap_part, _ = split(dec)
        z = recursion(m, y0, 200)
        worst_mixed = max(worst_mixed, abs(z[200] - ap_part(200)))
    assert worst_mixed <= 1e-6
    # (b) pure unit-circle specs: sup over t <= 200 below 1e-9
    worst_unit = 0.0
    for _ in range(30):
        pairs = int(rng.integers(1, 3))
        thetas = []
        roots = []
        while len(thetas) < pairs:
            theta = rng.uniform(0.2, np.pi - 0.2)
            if all(abs(theta - t0) >= 0.2 for t0 in thetas):
                thetas.append(theta)
                mu = cmath.exp(1j * theta)
                roots += [(mu, 1), (mu.conjugate(), 1)]
        m, y0 = spec_from_roots(roots, draw_symmetric_coeffs(rng, roots, 0.1, 0.4))
        dec = solve_coefficients(m, y0)
        assert dec.decay_radius == 0.0
        ap_part, _ = split(dec)
        z = recursion(m, y0, 200)
        worst_unit = max(
            worst_unit, max(abs(z[t] - ap_part(t)) for t in range(201))
        )
    assert worst_unit <= 1e-9
    report("criterion 7 (ap convergence)",
           f"40 mixed specs (rho<=0.9): |z(200)-ap(200)| <= "
           f"{worst_mixed:.2e}; 30 pure unit specs: sup_t<=200 <= "
           f"{worst_unit:.2e}")


# --------------------------------------------------------------------------
# 8. classification vs observed boundedness
# --------------------------------------------------------------------------

def observe_bounded(m, y0, threshold=10.0, tmax=10_000):
    step, state = loop_step(m), y0.coords
    if abs(state[0]) > threshold:
        return False
    for _ in range(tmax):
        state = step(state)
        if abs(state[0]) > threshold:
            return False
    return True


def test_criterion_8_classification():
    rng = np.random.default_rng(88)
    cases = []
    for _ in range(15):  # bounded draws
        d = int(rng.integers(1, 5))
        roots = []
        while sum(m for _, m in roots) < d:
            left = d - sum(m for _, m in roots)
            if left >= 2 and rng.random() < 0.5:
                theta = rng.uniform(0.2, np.pi - 0.2)
                r = 1.0 if rng.random() < 0.4 else 0.85 * math.sqrt(rng.random())
                mu = r * cmath.exp(1j * theta)
                roots += [(mu, 1), (mu.conjugate(), 1)]
            else:
                roots.append((complex(rng.uniform(-0.85, 0.85)), 1))
        cases.append((spec_from_roots(roots, draw_symmetric_coeffs(rng, roots, 0.05, 0.25)),
                      True))
    for _ in range(12):  # unbounded draws: a root at modulus >= 1.01
        d = int(rng.integers(1, 5))
        grow = complex(rng.uniform(1.01, 1.3) * (1 if rng.random() < 0.5 else -1))
        roots = [(grow, 1)]
        while sum(m for _, m in roots) < d:
            cand = complex(rng.uniform(-0.8, 0.8))
            if all(abs(cand - r) >= 0.1 for r, _ in roots):
                roots.append((cand, 1))
        coeffs = [
            complex(rng.uniform(0.05, 0.3) * (1 if rng.random() < 0.5 else -1))
            for _ in roots
        ]
        cases.append((spec_from_roots(roots, coeffs), False))
    # the double-unit-root case with nonzero linear coefficient
    cases.append(((ar_map([2.0, -1.0]), Point([1.0, 0.0])), False))
    for (m, y0), expect_bounded in cases:
        verdict = classify(characteristic_roots(m))
        observed = observe_bounded(m, y0)
        assert (verdict == "bounded") == observed == expect_bounded, m.trees[0]
    report("criterion 8 (classification)",
           f"{len(cases)} specs: classify matches observed |z|<=10 vs "
           f"escape within t<=10^4, incl. double unit root p=(2,-1)")


# --------------------------------------------------------------------------
# 9. census sanity and determinism
# --------------------------------------------------------------------------

def test_criterion_9_census():
    rep = period_census(d=2, K=3, ensemble=200, seed=7, generator="random_map")
    state_count = (3 + 1) ** 2
    assert len(rep.pairs) == 200
    for _, L in rep.pairs:
        assert 1 <= L <= state_count
    mean_L = rep.to_json()["mean_L"]
    assert mean_L < state_count  # strictly below (K+1)^d
    again = period_census(d=2, K=3, ensemble=200, seed=7, generator="random_map")
    assert again.pairs == rep.pairs and again.to_json() == rep.to_json()
    # the ar ensemble respects the same period range
    rep_ar = period_census(d=2, K=3, ensemble=30, seed=5, generator="random_ar")
    for _, L in rep_ar.pairs:
        assert 1 <= L <= state_count
    report("criterion 9 (census)",
           f"d=2 K=3 n=200: every L in [1, {state_count}], mean_L = "
           f"{mean_L:.2f} < {state_count}; seeded reruns bit-identical")
