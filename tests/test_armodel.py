"""Characteristic roots, closed form, classification, ap/remainder split."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aporbit import (
    Point,
    ar_map,
    characteristic_roots,
    classify,
    coefficients_from_roots,
    delay_map,
    eval_terms,
    expression_map,
    generate_orbit,
    recursion,
    solve_coefficients,
    spec_from_roots,
    split,
    verify_decomposition,
)
from aporbit.armodel import _polynomial_roots
from aporbit.errors import (DimensionMismatch, EvaluationError, OutOfRange, RangeViolation,
                            RefusedUnbounded, RootFindingFailed)
from aporbit.expressions import Var
from aporbit.maps import MapDefinition
from aporbit.orbit import _random_stable_ar
from oracles import ar_recursion, char_coefficients, loop_orbit, tree_step
from test_expressions import ast_nodes


def poly_at(coeffs, z):
    out = 0.0 + 0.0j
    for c in coeffs:
        out = out * z + c
    return out


def basis_oracle(mu, k, kind, t):
    """t^k mu^t in Python complex arithmetic; a transient is 1 at t = k."""
    if kind == "transient":
        return 1.0 if t == k else 0.0
    return t ** k * mu ** t


def term_arrays(terms):
    return ([x.coeff for x in terms], [x.mu for x in terms],
            [x.power for x in terms], [x.kind for x in terms])


def sorted_roots(rs):
    return sorted(((complex(mu), m) for mu, m in rs.roots),
                  key=lambda rm: (rm[0].real, rm[0].imag))


def test_ar_map_and_initial_point_validation():
    # the `ar` input form: the map ar_map(p) started at the point z0
    assert ar_map([0.5]).d == 1 and ar_map([0.1, 0.2]).d == 2
    with pytest.raises(OutOfRange):
        Point([1.5])
    with pytest.raises(OutOfRange):
        Point([math.nan, 0.1])
    with pytest.raises(OutOfRange):
        Point([0.1, math.nan])
    # within CLAMP_BAND of the box z0 is clamped, as every point is
    assert Point([1.0 + 5e-13]).coords == (1.0,)
    for p in ([math.nan, 0.1], [0.5, math.inf], [-math.inf]):
        with pytest.raises(ValueError, match="recurrence coefficient p_"):
            ar_map(p)
    with pytest.raises(DimensionMismatch):
        recursion(ar_map([0.5, 0.1]), Point([0.5]), 3)


def test_recursion_values():
    z = recursion(ar_map([0.5]), Point([1.0]), 5)
    assert z.tolist() == [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]
    z = recursion(ar_map([0.0, -1.0]), Point([1.0, 0.0]), 6)
    assert z.tolist() == [1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0]
    # no box policing: the recursion leaves the box where the orbit may not
    assert recursion(ar_map([1.5]), Point([1.0]), 2).tolist() == [1.0, 1.5, 2.25]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2 ** 32 - 1), st.integers(0, 2000))
def test_map_and_recursion_iterate_one_step(d, seed, horizon):
    # the two views of a recurrence, bit for bit: its d-dim `ar` map's
    # first coordinate and the scalar recursion
    rng = np.random.default_rng(seed)
    p = _random_stable_ar(d, rng)
    z0 = rng.uniform(-1.0, 1.0, d)
    m = ar_map(p)
    peak = float(np.max(np.abs(recursion(m, Point(z0), horizon))))
    z0 = z0 / max(1.0, 2.0 * peak)  # the whole orbit inside the box
    want = recursion(m, Point(z0), horizon)
    got = generate_orbit(m, Point(z0), horizon).values[:, 0]
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def tree_recursion(m, y0, horizon):
    """z(0)..z(horizon): the first coordinate of the interpreter's step
    of the map's trees, iterated from y0; or the error type and message
    of the step that raises."""
    step, state = tree_step(m.trees), tuple(y0)
    out = [state[0]]
    try:
        for _ in range(horizon):
            state = step(state)
            out.append(state[0])
    except EvaluationError as exc:
        return type(exc), str(exc)
    return np.array(out)


def recursion_outcome(m, y0, horizon):
    try:
        return recursion(m, Point(y0), horizon)
    except EvaluationError as exc:
        return type(exc), str(exc)


def assert_same_bits(got, want):
    """Equal bit for bit where not NaN, and NaN at the same places."""
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


# Maps whose recursion leaves the box and comes back, or turns NaN
RECURSION_CASES = [
    # overflows to inf at t = 2, then inf - inf is NaN from t = 3 on
    (ar_map([1e300, -1e300]), [1.0, 0.5]),
    # a rotation of radius sqrt(2): the shift orbit leaves and re-enters the box
    (ar_map([2 * math.cos(0.3), -1.0]), [1.0, 1.0]),
    # a non-shift rotation of radius sqrt(2)
    (expression_map(["0.6*x1 - 0.8*x2", "0.8*x1 + 0.6*x2"]), [1.0, 1.0]),
    # x2 is NaN at every step while x1 stays finite
    (expression_map(["0.5*x1", "x1*1e200*1e200*0"]), [0.3, 0.1]),
    # x1 is NaN while |x2| > 0.18 (x2*1e309 overflows, and inf*0 is NaN),
    # from t = 1 to 5, then max(0.0, NaN) is 0.0 and x1 is finite again
    (expression_map(["max(x2*1e308*10*0, 0.5*x1) + 0.1*x2", "0.8*x2"]), [0.3, 0.5]),
]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_recursion_is_the_first_coordinate_of_the_tree_step(data):
    # the loop on [-inf, inf] stops only at NaN and resumes from there, so
    # recursion is the step iterated from y0, out of the box and NaN included
    kind = data.draw(st.sampled_from(["ar", "delay", "expr", "case"]))
    if kind == "case":
        m, y0 = data.draw(st.sampled_from(RECURSION_CASES))
    else:
        d = data.draw(st.integers(1 if kind == "ar" else 2, 6 if kind == "ar" else 4))
        if kind == "ar":
            big = st.sampled_from([1e300, -1e300, 1.5, -1.5])
            m = ar_map(data.draw(st.lists(st.one_of(st.floats(-1.5, 1.5), big),
                                          min_size=d, max_size=d)))
        elif kind == "delay":
            m = MapDefinition((data.draw(ast_nodes(d)),) + tuple(Var(i) for i in range(1, d)))
        else:
            m = MapDefinition(tuple(data.draw(st.lists(ast_nodes(d), min_size=d, max_size=d))))
        y0 = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d))
    horizon = data.draw(st.integers(0, 300))
    assert_same_bits(recursion_outcome(m, y0, horizon), tree_recursion(m, y0, horizon))


@pytest.mark.parametrize("m, y0", RECURSION_CASES,
                         ids=["inf_then_nan", "ar_rotation", "rotation", "nan_x2", "nan_x1_then_finite"])
def test_recursion_cases_leave_the_box(m, y0):
    # each orbit leaves the box or turns NaN, so the loop's bounds matter
    with pytest.raises(RangeViolation):
        generate_orbit(m, Point(y0), 300)
    assert_same_bits(recursion(m, Point(y0), 300), tree_recursion(m, y0, 300))


def test_recursion_calls_the_loop_once_out_of_the_box():
    # the bounds are arguments: an orbit that leaves the box and stays out
    # runs in one call of the loop, not one call per sample
    m = ar_map([1.01])
    loop, calls = m.loop, []
    object.__setattr__(m, "loop", lambda *args: calls.append(args[-2:]) or loop(*args))
    z = recursion(m, Point([1.0]), 1000)
    assert calls == [(-math.inf, math.inf)]
    assert z[0] == 1.0 and z[-1] > 1e4
    assert_same_bits(z, tree_recursion(m, [1.0], 1000))


def test_recursion_stops_calling_the_loop_at_a_repeated_nan():
    # inf at t = 2 and NaN from t = 3 on: the loop returns at every NaN
    # sample, until the state (NaN, NaN) repeats its bits and the rest of
    # the orbit is copied from it (it once took 998 calls)
    want = loop_orbit(ar_map([1e300, -1e300]), Point([1.0, 0.5]), 1000, False)[:, 0]
    m = ar_map([1e300, -1e300])
    loop, calls = m.loop, []
    object.__setattr__(m, "loop", lambda *args: calls.append(args) or loop(*args))
    z = recursion(m, Point([1.0, 0.5]), 1000)
    assert len(calls) <= 4
    assert np.isinf(z[2]) and np.isnan(z[3:]).all()
    assert np.array_equal(z.view(np.int64), want.view(np.int64))


def test_characteristic_roots_rotation():
    rs = characteristic_roots(ar_map([0.0, -1.0]))
    roots = sorted_roots(rs)
    assert roots == [((0 - 1j), 1), ((0 + 1j), 1)]
    assert rs.residual <= 1e-12
    # back-substitution oracle
    coeffs = char_coefficients([0.0, -1.0])
    for mu, _ in roots:
        assert abs(poly_at(coeffs, mu)) <= 1e-12


def test_characteristic_roots_scalar():
    rs = characteristic_roots(ar_map([0.5]))
    assert sorted_roots(rs) == [((0.5 + 0j), 1)]


def test_characteristic_roots_double():
    rs = characteristic_roots(ar_map([2.0, -1.0]))
    assert sorted_roots(rs) == [((1.0 + 0j), 2)]


def test_characteristic_roots_triple():
    # (mu - 0.5)^3 = mu^3 - 1.5 mu^2 + 0.75 mu - 0.125
    p = coefficients_from_roots([0.5, 0.5, 0.5])
    rs = characteristic_roots(ar_map(p))
    roots = sorted_roots(rs)
    assert len(roots) == 1
    mu, m = roots[0]
    assert m == 3
    assert abs(mu - 0.5) <= 1e-8


def test_characteristic_roots_zero_root():
    # p = (0.5, 0): mu^2 - 0.5 mu = mu (mu - 0.5)
    rs = characteristic_roots(ar_map([0.5, 0.0]))
    roots = sorted_roots(rs)
    assert roots[0] == ((0 + 0j), 1)
    assert abs(roots[1][0] - 0.5) <= 1e-12 and roots[1][1] == 1


def test_conjugate_symmetry_bitwise():
    rng = np.random.default_rng(77)
    for _ in range(30):
        d = int(rng.integers(2, 7))
        p = rng.uniform(-0.4, 0.4, d)
        rs = characteristic_roots(ar_map(p))
        complexes = [mu for mu, _ in rs.roots if mu.imag != 0]
        assert len(complexes) % 2 == 0
        ups = sorted((mu for mu in complexes if mu.imag > 0),
                     key=lambda z: (z.real, z.imag))
        downs = sorted((mu for mu in complexes if mu.imag < 0),
                       key=lambda z: (z.real, -z.imag))
        for u, v in zip(ups, downs):
            assert u == v.conjugate()  # exact, bitwise


def test_root_residual_invariant():
    rng = np.random.default_rng(5)
    for _ in range(40):
        d = int(rng.integers(1, 9))
        p = rng.uniform(-0.9, 0.9, d) / d  # keep roots tame
        rs = characteristic_roots(ar_map(p))
        coeffs = char_coefficients(p)
        assert rs.total_multiplicity == d
        for mu, _ in rs.roots:
            assert abs(poly_at(coeffs, mu)) <= 1e-10 * (1 + abs(mu) ** d)


def test_classify_cases():
    assert classify(characteristic_roots(ar_map([0.0, -1.0]))) == "bounded"
    assert classify(characteristic_roots(ar_map([0.5]))) == "bounded"
    assert classify(characteristic_roots(ar_map([2.0, -1.0]))) == "unbounded"
    assert classify(characteristic_roots(ar_map([1.5]))) == "unbounded"


def test_solve_coefficients_rotation():
    dec = solve_coefficients(ar_map([0.0, -1.0]), Point([1.0, 0.0]))
    # z(t) = cos(pi t / 2): coefficient 1/2 on each of +/- i
    assert dec.classification == "bounded"
    coeffs = sorted(dec.terms, key=lambda t: t.mu.imag)
    assert coeffs[0].coeff == pytest.approx(0.5 + 0j)
    assert coeffs[1].coeff == pytest.approx(0.5 + 0j)
    for t in range(40):
        assert dec.evaluate(t) == pytest.approx(math.cos(math.pi * t / 2), abs=1e-12)


def test_solve_coefficients_scalar():
    dec = solve_coefficients(ar_map([0.5]), Point([1.0]))
    assert dec.terms[0].coeff == pytest.approx(1.0 + 0j)
    for t in range(20):
        assert dec.evaluate(t) == pytest.approx(0.5 ** t, rel=1e-12)


def test_solve_coefficients_zero_root():
    # p=(0.5, 0) with z(0)=1, z(-1)=1: recursion z(1) = 0.5*1 + 0*1 = 0.5,
    # and z(t) = c * 0.5^t for t >= 1; the zero root contributes a
    # transient Kronecker term at t=0 only.
    m, y0 = ar_map([0.5, 0.0]), Point([1.0, 1.0])
    dec = solve_coefficients(m, y0)
    assert len(dec.transient_terms) == 1
    z = recursion(m, y0, 50)
    for t in range(51):
        assert dec.evaluate(t) == pytest.approx(z[t], abs=1e-12)


def test_refuses_unbounded():
    with pytest.raises(RefusedUnbounded):
        solve_coefficients(ar_map([2.0, -1.0]), Point([1.0, 0.0]))


def test_ill_conditioned_solve_refused():
    # fabricate a root set with two distinct roots 1e-13 apart: the
    # confluent system is numerically singular and must be refused with
    # the condition estimate attached
    from aporbit.armodel import RootSet
    from aporbit.errors import IllConditioned

    m = ar_map([1.0, -0.25])  # (mu-0.5)^2 truly
    fake = RootSet(
        roots=((0.5 + 0j, 1), (0.5 + 1e-13 + 0j, 1)), residual=0.0
    )
    with pytest.raises(IllConditioned) as info:
        solve_coefficients(m, Point([0.5, 0.25]), fake)
    assert info.value.condition > 1e12


def test_reported_roots_pairwise_separated():
    rng = np.random.default_rng(15)
    for _ in range(25):
        d = int(rng.integers(2, 7))
        p = rng.uniform(-0.9, 0.9, d) / d
        rs = characteristic_roots(ar_map(p))
        mus = [mu for mu, _ in rs.roots]
        for i, a in enumerate(mus):
            for b in mus[i + 1:]:
                assert abs(a - b) > 1e-8 * max(1.0, abs(a))


def test_reality_of_closed_form():
    rng = np.random.default_rng(42)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        p = rng.uniform(-0.9, 0.9, d) / d
        init = rng.uniform(-1, 1, d)
        dec = solve_coefficients(ar_map(p), Point(init))
        val = eval_terms(*term_arrays(dec.terms), np.arange(0, 201, 7))
        assert np.max(np.abs(val.imag)) <= 1e-10


def test_split_rotation():
    dec = solve_coefficients(ar_map([0.0, -1.0]), Point([1.0, 0.0]))
    ap, rest = split(dec)
    for t in range(24):
        assert ap(t) == pytest.approx(math.cos(math.pi * t / 2), abs=1e-12)
        assert rest(t) == 0.0
    # frequencies are the root arguments +/- pi/2
    assert sorted(ap.frequencies) == pytest.approx([-math.pi / 2, math.pi / 2])


def test_split_pure_decay():
    dec = solve_coefficients(ar_map([0.5]), Point([1.0]))
    ap, rest = split(dec)
    for t in range(10):
        assert ap(t) == 0.0
        assert rest(t) == pytest.approx(0.5 ** t, rel=1e-12)


def test_split_mixed_irrational_frequency():
    # roots 0.9 and e^{+-i}: the unit pair has frequency 1, an irrational
    # multiple of pi, so ap is genuinely non-periodic; the remainder decays
    # like 0.9^t.
    mu = cmath.exp(1j)
    m, y0 = spec_from_roots(
        [(0.9, 1), (mu, 1), (mu.conjugate(), 1)],
        [0.25, 0.2 + 0.1j, 0.2 - 0.1j],
    )
    dec = solve_coefficients(m, y0)
    ap, rest = split(dec)
    assert len(dec.unit_terms) == 2
    assert len(dec.decay_terms) == 1
    z = recursion(m, y0, 300)
    C = abs(rest(0)) + 1e-12
    for t in range(m.d, 301):
        assert abs(z[t] - ap(t)) <= C * 0.9 ** t + 1e-9
    # ap is not periodic with any small period on the sampled window
    vals = [ap(t) for t in range(200)]
    for L in range(1, 50):
        assert max(abs(vals[t + L] - vals[t]) for t in range(150)) > 1e-6, L


def test_split_consistency_exact():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        p = rng.uniform(-0.9, 0.9, d) / d
        init = rng.uniform(-1, 1, d)
        dec = solve_coefficients(ar_map(p), Point(init))
        ap, rest = split(dec)
        for t in range(0, 50, 3):
            assert ap(t) + rest(t) == pytest.approx(dec.evaluate(t), abs=1e-12)


def test_verify_decomposition_rotation():
    m, y0 = ar_map([0.0, -1.0]), Point([1.0, 0.0])
    report = verify_decomposition(m, y0, solve_coefficients(m, y0), horizon=100)
    assert report.closed_form_max_error <= 1e-9
    assert report.decay_radius == 0.0
    assert report.convergence_ok


def test_verify_decomposition_all_decay():
    m, y0 = ar_map([0.25]), Point([0.5])
    report = verify_decomposition(m, y0, solve_coefficients(m, y0), horizon=100)
    assert report.closed_form_max_error <= 1e-12
    assert report.convergence_ok
    ap, _ = split(solve_coefficients(m, y0))
    assert all(ap(t) == 0.0 for t in range(5))


def test_coefficients_from_roots_inverse():
    rng = np.random.default_rng(10)
    for _ in range(20):
        # draw conjugate-symmetric roots, expand, and recover them
        roots = []
        d = int(rng.integers(1, 5))
        remaining = d
        while remaining > 0:
            if remaining >= 2 and rng.random() < 0.5:
                mu = rng.uniform(0.1, 0.9) * cmath.exp(1j * rng.uniform(0.3, 2.8))
                roots.extend([mu, mu.conjugate()])
                remaining -= 2
            else:
                roots.append(complex(rng.uniform(-0.9, 0.9)))
                remaining -= 1
        p = coefficients_from_roots(roots)
        rs = characteristic_roots(ar_map(p))
        found = sorted((complex(mu) for mu, _ in rs.roots),
                       key=lambda z: (z.real, z.imag))
        want = sorted(roots, key=lambda z: (z.real, z.imag))
        for a, b in zip(found, want):
            assert abs(a - b) <= 1e-8


def test_spec_from_roots_round_trip():
    z = recursion(*spec_from_roots([(0.5, 1), (-0.25, 1)], [0.4, 0.3]), 60)
    for t in range(61):
        expected = 0.4 * 0.5 ** t + 0.3 * (-0.25) ** t
        assert z[t] == pytest.approx(expected, abs=1e-12)


# ------------------------------------------------- the map as the recurrence

COEFFICIENTS = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, exponent: sign * 10.0 ** exponent,
              st.sampled_from([-1.0, 1.0]), st.floats(-6.0, 0.0)),
)


def roots_or_failure(find, arg):
    try:
        return find(arg)
    except RootFindingFailed as exc:
        return exc.args


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_read_back_matches_the_coefficient_oracles(data):
    # p read off the `ar` map's trees gives the roots of [1, -p], and the
    # map's step gives the recursion from p and z0, bit for bit
    d = data.draw(st.integers(1, 8))
    p = data.draw(st.lists(COEFFICIENTS, min_size=d, max_size=d))
    z0 = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d))
    m = ar_map(p)
    assert (repr(roots_or_failure(characteristic_roots, m))
            == repr(roots_or_failure(_polynomial_roots, char_coefficients(p))))
    got, want = recursion(m, Point(z0), 60), ar_recursion(p, z0, 60)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_a_negative_zero_coefficient_reads_as_positive_zero():
    # the exact fold of the trees has no signed zero
    for p in ([-0.0, 0.5], [0.3, -0.0, -0.2], [0.5, -0.0]):
        plus = [0.0 if v == 0 else v for v in p]
        assert repr(characteristic_roots(ar_map(p))) == repr(characteristic_roots(ar_map(plus)))


@pytest.mark.parametrize("m, reason", [
    (expression_map(["0.5*sin(x1)"]), "affine map"),
    (delay_map("0.5*x1 - 0.25*x2 + 0.1", 2), "without offset"),
    (expression_map(["0.6*x1 - 0.8*x2", "0.8*x1 + 0.6*x2"]), "companion matrix"),
])
def test_algebraic_route_refuses_a_map_that_runs_no_recurrence(m, reason):
    with pytest.raises(ValueError, match=reason):
        characteristic_roots(m)
    with pytest.raises(ValueError, match=reason):
        solve_coefficients(m, Point([0.5] * m.d))


def test_delay_map_in_companion_form_has_the_ar_roots():
    m = delay_map("0.5*x1 - 0.25*x2 + 0.125*x3", 3)
    assert repr(characteristic_roots(m)) == repr(characteristic_roots(ar_map([0.5, -0.25, 0.125])))


def test_verify_decomposition_keeps_its_curves():
    m, y0 = spec_from_roots([(1j, 1), (-1j, 1), (0.5, 2), (0.0, 1)], [0.2, 0.2, 0.1, 0.5, 0.3])
    dec = solve_coefficients(m, y0)
    report = verify_decomposition(m, y0, dec, horizon=50)
    ap, rest = split(dec)
    ts = np.arange(51)
    assert np.array_equal(report.z, recursion(m, y0, 50))
    assert np.array_equal(report.ap, ap(ts)) and np.array_equal(report.R, rest(ts))
    assert report.remainder_at_zero == abs(rest(0))


def remainder_bound_holds(m, y0, dec, horizon):
    """Oracle: |z - ap| <= sum_j |a_j| t^k |mu_j|^t + 1e-9 for d <= t <= horizon."""
    z = recursion(m, y0, horizon)
    ap, _ = split(dec)
    rest = dec.decay_terms + dec.transient_terms
    for t in range(m.d, horizon + 1):
        allowed = sum(
            abs(term.coeff * basis_oracle(term.mu, term.power, term.kind, t))
            for term in rest
        )
        if abs(z[t] - ap(t)) > allowed + 1e-9:
            return False
    return True


EXACT_REMAINDERS = pytest.mark.parametrize("roots, coeffs", [
    # R(0) = 0.3 - 0.3 cancels, so |R(0)| rho^t bounds nothing
    ([(0.5, 1), (-0.5, 1)], [0.3, -0.3]),
    # t 0.9^t outgrows any C 0.9^t fitted at t = 0
    ([(0.9, 2)], [0.1, 0.5]),
    # the same remainder under a unit-circle pair
    ([(1j, 1), (-1j, 1), (0.5, 1), (-0.5, 1)], [0.2, 0.2, 0.3, -0.3]),
])


@EXACT_REMAINDERS
def test_exact_decomposition_meets_true_remainder_bound(roots, coeffs):
    m, y0 = spec_from_roots(roots, coeffs)
    dec = solve_coefficients(m, y0)
    assert verify_decomposition(m, y0, dec, horizon=200).closed_form_max_error <= 1e-12
    assert remainder_bound_holds(m, y0, dec, 200)


@pytest.mark.xfail(strict=True, reason=(
    "known fault: convergence_ok tests |R(0)| rho^t, which is not a bound"))
@EXACT_REMAINDERS
def test_verify_decomposition_accepts_exact_remainders(roots, coeffs):
    m, y0 = spec_from_roots(roots, coeffs)
    assert verify_decomposition(m, y0, solve_coefficients(m, y0), horizon=200).convergence_ok


def test_verify_decomposition_flags_a_wrong_split():
    # shrink the decaying coefficients: ap + R no longer reproduces z
    m, y0 = spec_from_roots([(1j, 1), (-1j, 1), (0.9, 2)], [0.2, 0.2, 0.1, 0.5])
    dec = solve_coefficients(m, y0)
    damped = type(dec)(
        terms=tuple(
            term if term.kind == "unit" else type(term)(
                mu=term.mu, power=term.power, coeff=term.coeff / 2, kind=term.kind)
            for term in dec.terms
        ),
        classification=dec.classification,
        condition=dec.condition,
        solve_residual=dec.solve_residual,
    )
    assert not remainder_bound_holds(m, y0, damped, 200)
    assert not verify_decomposition(m, y0, damped, horizon=200).convergence_ok


# ------------------------------------------------------------ term evaluator

COEFFS = st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0)
ANGLES = st.floats(-math.pi, math.pi)
TERMS = st.one_of(
    st.tuples(st.just(0j), st.integers(0, 3), st.just("transient")),
    st.tuples(ANGLES.map(lambda a: cmath.exp(1j * a)), st.integers(0, 3), st.just("unit")),
    st.tuples(
        st.builds(lambda r, a: r * cmath.exp(1j * a), st.floats(0.5, 1.5), ANGLES),
        st.integers(0, 3),
        st.just("decay"),
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(TERMS, COEFFS), max_size=6),
       st.lists(st.integers(-12, 500), min_size=1, max_size=8))
def test_eval_terms_matches_per_term_oracle(terms, ts):
    coeff = [a for _, a in terms]
    mu, power, kind = ([term[i] for term, _ in terms] for i in range(3))
    got = eval_terms(coeff, mu, power, kind, np.array(ts))
    basis = eval_terms(np.eye(len(terms)), mu, power, kind, np.array(ts))
    assert got.shape == (len(ts),) and basis.shape == (len(ts), len(terms))
    for i, t in enumerate(ts):
        each = [basis_oracle(m, k, c, t) for m, k, c in zip(mu, power, kind)]
        parts = [a * b for a, b in zip(coeff, each)]
        scale = sum(abs(x) for x in parts)
        assert abs(got[i] - sum(parts)) <= 1e-12 * scale
        assert abs(eval_terms(coeff, mu, power, kind, t) - sum(parts)) <= 1e-12 * scale
        for j, want in enumerate(each):
            assert abs(basis[i, j] - want) <= 1e-12 * abs(want)


def test_array_calls_match_scalar_calls():
    dec = solve_coefficients(*spec_from_roots([(1j, 1), (-1j, 1), (0.5, 2), (0.0, 1)],
                                              [0.2, 0.2, 0.1, 0.5, 0.3]))
    ap, rest = split(dec)
    ts = np.arange(-3, 40)
    for f in (dec.evaluate, ap, rest):
        values = f(ts)
        assert values.shape == ts.shape
        for t, v in zip(ts.tolist(), values):
            assert f(t) == pytest.approx(v, abs=1e-15)


# --------------------------------------------------------------- root finder

def test_close_distinct_roots_stay_simple():
    # 0.5 and 0.502 lie within the merge radius, but their polished
    # midpoint fails the final residual test, so the merge is rejected
    p = coefficients_from_roots([0.5, 0.502, -0.3])
    rs = characteristic_roots(ar_map(p))
    roots = sorted_roots(rs)
    assert [m for _, m in roots] == [1, 1, 1]
    for (mu, _), want in zip(roots, [-0.3, 0.5, 0.502]):
        assert abs(mu - want) <= 1e-12


MULTIPLE_ROOTS = [
    [(0.5, 2), (-0.3, 1)],
    [(0.9, 2)],
    [(0.7, 3)],
    [(0.6, 2), (-0.6, 2)],
    [(0.3, 4)],
    [(0.5, 1), (0.502, 1), (-0.3, 1)],
    [(1.0, 2)],
    [(1j, 1), (-1j, 1), (0.5, 2), (0.0, 1)],
]

SMALL_JOBS_SHAPES = ((2, 1, False), (3, 0, False), (4, 1, False), (5, 2, False),
                     (6, 0, False), (8, 2, True), (10, 3, True), (12, 3, True))


def small_jobs_roots(rng, order, unit_pairs, unit_real):
    """Simple roots shaped like the benchmark's small_jobs recurrences:
    unit-circle pairs, -1 when `unit_real`, and real decaying roots
    spread over [-0.8, 0.85]."""
    phis = np.sort(rng.uniform(0.25, math.pi - 0.25, unit_pairs))
    while unit_pairs > 1 and np.min(np.diff(phis)) < 0.3:
        phis = np.sort(rng.uniform(0.25, math.pi - 0.25, unit_pairs))
    roots = []
    for phi in phis:
        roots += [cmath.exp(1j * phi), cmath.exp(-1j * phi)]
    if unit_real:
        roots.append(-1.0 + 0j)
    n = order - len(roots)
    spread = np.linspace(-0.8, 0.85, n) + rng.uniform(-0.04, 0.04, n)
    return roots + [complex(mu) for mu in spread]


def root_corpus():
    """[(mu, multiplicity), ...] per recurrence: the criterion 6 draws of
    the acceptance suite, seeded small_jobs shapes and multiple roots."""
    from test_acceptance import draw_disk_roots

    corpus = []
    rng = np.random.default_rng(99)
    for d in (1, 2, 3, 4):
        for _ in range(50):
            corpus.append([(mu, 1) for mu in draw_disk_roots(rng, d)])
            rng.uniform(-1, 1, d)  # criterion 6's initial data, kept for its stream
    rng = np.random.default_rng(6)
    for _ in range(5):
        for shape in SMALL_JOBS_SHAPES:
            corpus.append([(mu, 1) for mu in small_jobs_roots(rng, *shape)])
    return corpus + MULTIPLE_ROOTS


def test_roots_match_mpmath_at_50_digits():
    mpmath = pytest.importorskip("mpmath")
    for roots in root_corpus():
        p = coefficients_from_roots([mu for mu, m in roots for _ in range(m)])
        rs = characteristic_roots(ar_map(p))
        with mpmath.workdps(50):
            exact = mpmath.polyroots([float(c) for c in char_coefficients(p)],
                                     maxsteps=500, extraprec=200)
        exact = [complex(r) for r in exact]
        assert len(rs.roots) == len(roots), p
        for mu, m in roots:
            found, found_m = min(rs.roots, key=lambda rm: abs(rm[0] - mu))
            assert found_m == m, (p, mu)
            if m == 1:
                err = min(abs(found - r) for r in exact)
                assert err <= 1e-12 * max(1.0, abs(found)), (p, mu, err)
        bounded = all(abs(mu) < 1 - 1e-9 or (abs(abs(mu) - 1) <= 1e-9 and m == 1)
                      for mu, m in roots)
        assert classify(rs) == ("bounded" if bounded else "unbounded"), p


def test_newton_polish_stops_when_a_step_no_longer_lowers_the_residual(monkeypatch):
    # np.roots seeds are already within about 1e-14 of the roots, so a
    # polish needs a step or two; noise-sized steps up to the step cap
    # cost about 1,000 evaluations per solve of these recurrences
    from aporbit import armodel

    calls = 0
    polyval = armodel._polyval

    def counted(coeffs, z):
        nonlocal calls
        calls += 1
        return polyval(coeffs, z)

    rng = np.random.default_rng(12)
    maps = [ar_map(coefficients_from_roots(small_jobs_roots(rng, 12, 3, True)))
            for _ in range(100)]
    monkeypatch.setattr(armodel, "_polyval", counted)
    for m in maps:
        assert len(characteristic_roots(m).roots) == 12
    assert calls <= 10_000
