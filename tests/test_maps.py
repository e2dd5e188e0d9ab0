"""Map kinds, range validation and Lipschitz estimation."""

import itertools
import math
import pickle
from array import array

import numpy as np
import pytest

from aporbit import (
    BUILTIN_MAPS,
    ARSpec,
    Point,
    ar_map,
    builtin_map,
    companion_matrix,
    delay_map,
    estimate_lipschitz,
    evaluate,
    expression_map,
    generate_orbit,
    map_from_json,
    map_to_json,
    recursion,
    validate_range,
)
from aporbit.errors import AnalyticUnavailable, DimensionMismatch, RangeViolation
from aporbit.maps import MapDefinition
from oracles import BUILTIN_STEPS, ar_step


def test_ar_evaluate():
    m = ar_map([0.0, -1.0])
    out = evaluate(m, Point([1.0, 0.0]))
    assert out.coords == (0.0, 1.0)  # new z = 0*1 + (-1)*0, shift fills coord 2


def test_expression_evaluate():
    m = expression_map(["0.5*x1"])
    assert evaluate(m, Point([0.8])).coords == (0.4,)


def test_range_violation():
    m = ar_map([1.5])
    with pytest.raises(RangeViolation):
        evaluate(m, Point([1.0]))


def test_nan_image_is_a_range_violation():
    m = expression_map(["0.5*x1", "x1*1e200*1e200*0"])
    with pytest.raises(RangeViolation):
        evaluate(m, Point([0.3, 0.1]))
    # NaN only where x1 != 0: the center maps to (0, 0)
    assert evaluate(m, Point([0.0, 0.1])).coords == (0.0, 0.0)


def test_validate_range_fails_on_nan():
    for sources in (["x1*1e200*1e200*0"], ["0.5*x1", "x2*1e200*1e200*0"]):
        report = validate_range(expression_map(sources), samples=64, seed=0)
        assert not report.passed
        assert report.max_overshoot == math.inf


def test_sampled_lipschitz_rejects_nan_images():
    # NaN on half the box; the other half is the contraction 0.5*x1
    m = expression_map(["0.5*x1 + max(x1,0)*1e200*1e200*0"])
    with pytest.raises(RangeViolation):
        estimate_lipschitz(m, mode="sampled", samples=256, seed=0)
    # overshoot is not policed here: 3*x1 leaves the box and gives gamma 3
    est = estimate_lipschitz(expression_map(["3*x1"]), mode="sampled", samples=256, seed=0)
    assert est.gamma == pytest.approx(3.0)


def test_dimension_mismatch():
    m = ar_map([0.5, 0.25])
    with pytest.raises(DimensionMismatch):
        evaluate(m, Point([0.5]))
    with pytest.raises(DimensionMismatch):
        MapDefinition(())


def test_shift_structure_bitwise():
    rng = np.random.default_rng(0)
    m = ar_map([0.2, -0.3, 0.1, 0.05])
    for _ in range(200):
        coords = tuple(rng.uniform(-1, 1, 4))
        out = evaluate(m, Point(coords))
        assert out.coords[1:] == coords[:-1]
    md = delay_map("0.5*x1 - 0.25*x3", 3)
    for _ in range(100):
        coords = tuple(rng.uniform(-1, 1, 3))
        out = evaluate(md, Point(coords))
        assert out.coords[1:] == coords[:-1]


def test_builtins_stay_in_box():
    rng = np.random.default_rng(1)
    for name in ("identity", "negation", "tent", "doubling"):
        m = builtin_map(name, 2)
        assert validate_range(m, samples=128, seed=0).passed, name
        for _ in range(50):
            evaluate(m, Point(rng.uniform(-1, 1, 2)))  # must not raise


def test_validate_range_pass_and_fail():
    ok = validate_range(expression_map(["0.5*x1"]), samples=100, seed=0)
    assert ok.passed and ok.max_overshoot == 0.0
    bad = validate_range(expression_map(["2*x1"]), samples=100, seed=0)
    assert not bad.passed
    assert bad.max_overshoot == pytest.approx(1.0)  # worst at the corner x1=1
    # companion rotation keeps all corners inside
    rot = validate_range(ar_map([0.0, -1.0]), samples=64, seed=0)
    assert rot.passed


def test_validate_range_deterministic():
    m = expression_map(["0.9*cos(3*x1)"])
    a = validate_range(m, samples=200, seed=5)
    b = validate_range(m, samples=200, seed=5)
    assert a == b


def test_lipschitz_analytic():
    est = estimate_lipschitz(ar_map([0.0, -1.0]), mode="analytic")
    assert est.gamma == pytest.approx(1.0)  # rotation: singular values 1, 1
    assert est.method == "analytic" and not est.is_lower_bound
    est = estimate_lipschitz(ar_map([0.5]), mode="analytic")
    assert est.gamma == pytest.approx(0.5)
    with pytest.raises(AnalyticUnavailable):
        estimate_lipschitz(expression_map(["0.5*x1"]), mode="analytic")


def test_lipschitz_sampled_cosine():
    # derivative of 0.9*cos(3x) is -2.7*sin(3x); dense sampling of that
    # bound is the oracle for the true constant 2.7
    xs = np.linspace(-1, 1, 200001)
    true_gamma = np.max(np.abs(2.7 * np.sin(3 * xs)))
    assert true_gamma == pytest.approx(2.7, abs=1e-6)
    m = expression_map(["0.9*cos(3*x1)"])
    est = estimate_lipschitz(m, mode="sampled", samples=4096, seed=0)
    assert est.is_lower_bound
    assert 2.6 <= est.gamma <= true_gamma + 1e-9


def test_sampled_below_analytic_for_ar():
    rng = np.random.default_rng(9)
    for _ in range(10):
        p = rng.uniform(-0.5, 0.5, int(rng.integers(1, 4)))
        m = ar_map(p)
        lo = estimate_lipschitz(m, mode="sampled", samples=800, seed=3)
        hi = estimate_lipschitz(m, mode="analytic")
        assert lo.gamma <= hi.gamma + 1e-9


def test_linear_map_stretch_bounded_by_analytic():
    rng = np.random.default_rng(17)
    p = (0.3, -0.4, 0.2)
    m = ar_map(p)
    C = companion_matrix(p)
    gamma = float(np.linalg.norm(C, 2))
    for _ in range(2000):
        w = rng.uniform(-1, 1, 3)
        wp = rng.uniform(-1, 1, 3)
        lhs = np.linalg.norm(C @ w - C @ wp)
        assert lhs <= gamma * np.linalg.norm(w - wp) * (1 + 1e-12)


def test_map_json_round_trip(tmp_path):
    for m in (
        ar_map([0.25, -0.5]),
        delay_map("0.5*x1 - 0.25*x2", 2),
        expression_map(["0.5*x1", "tanh(x2)"]),
        builtin_map("tent", 3),
    ):
        data = map_to_json(m)
        again = map_from_json(data)
        assert again == m


def test_map_to_json_writes_a_map_without_coefficients_as_its_trees():
    assert map_to_json(ar_map([0.25, -0.5])) == {"d": 2, "kind": "ar", "p": [0.25, -0.5]}
    assert map_to_json(delay_map("0.5*x1 - 0.25*x2", 2)) == {
        "d": 2, "kind": "expr", "exprs": ["0.5 * x1 - 0.25 * x2", "x1"]}
    assert map_to_json(builtin_map("tent", 2)) == {
        "d": 2, "kind": "expr", "exprs": ["1.0 - 2.0 * abs(x1)", "1.0 - 2.0 * abs(x2)"]}


def test_builtin_map_is_the_expression_map_of_its_sources():
    assert builtin_map("tent", 2) == expression_map(["1 - 2*abs(x1)", "1 - 2*abs(x2)"])


@pytest.mark.parametrize("data", [
    {"kind": "ar", "d": 3, "p": [0.5]},
    {"kind": "expr", "d": 5, "exprs": ["0.5*x1", "x1"]},
    {"kind": "delay", "d": 0, "expr": "0.5"},
    {"kind": "builtin", "d": 3.0, "name": "tent"},
    {"kind": "ar", "d": "1", "p": [0.5]},
    {"kind": "ar", "d": True, "p": [0.5]},
])
def test_map_from_json_refuses_a_bad_d(data):
    with pytest.raises((ValueError, DimensionMismatch)):
        map_from_json(data)


def test_map_pickles_and_rebuilds_its_step():
    for m in (
        ar_map([0.25, -0.5]),
        delay_map("0.5*x1 / (1.5 + x2)", 2),
        expression_map(["0.5*x1", "tanh(x2)"]),
        builtin_map("tent", 2),
    ):
        again = pickle.loads(pickle.dumps(m))
        assert again == m
        assert again.step((0.3, -0.7)) == m.step((0.3, -0.7))
        got, want = array("d"), array("d")
        assert again.loop(0.3, -0.7, 0, 50, got.append) == m.loop(0.3, -0.7, 0, 50, want.append)
        assert got == want and len(got) == 2 * 50


SPECIAL = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324]


def bits(values):
    return np.array(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("name", sorted(BUILTIN_MAPS))
def test_builtin_trees_equal_the_old_builtin_steps(name, d):
    step = builtin_map(name, d).step
    rng = np.random.default_rng(d)
    points = [tuple(c) for c in itertools.product(SPECIAL, repeat=d)]
    points += [tuple(row) for row in rng.uniform(-1.0, 1.0, (20_000, d)).tolist()]
    old = BUILTIN_STEPS[name]
    assert np.array_equal(bits([step(c) for c in points]), bits([old(c) for c in points]))


def test_ar_tree_step_equals_the_old_ar_step():
    rng = np.random.default_rng(7)
    for d in range(1, 9):
        for _ in range(50):
            p = np.where(rng.random(d) < 0.3, rng.choice([0.0, -0.0, 1.0], d),
                         rng.uniform(-1.5, 1.5, d)).tolist()
            step, old = ar_map(p).step, ar_step(p)
            points = [tuple(row) for row in rng.uniform(-1.0, 1.0, (40, d)).tolist()]
            points += [tuple(rng.choice(SPECIAL, d).tolist()) for _ in range(40)]
            assert np.array_equal(bits([step(c) for c in points]), bits([old(c) for c in points]))


def test_ar_map_of_high_order_compiles():
    # the update is one long left-nested sum, deeper than Python allows
    # parentheses to nest; past what Python compiles it is refused
    with pytest.raises(ValueError, match="too deeply nested"):
        ar_map([0.1] * 10_000)
    p = [0.5 / 400] * 400
    c = tuple(np.linspace(-1.0, 1.0, 400).tolist())
    m = ar_map(p)
    assert m.step(c) == ar_step(p)(c)
    orb = generate_orbit(m, Point(c), 30)
    assert orb.values[1:, 0].tolist() == recursion(ARSpec(p, c), 30)[1:].tolist()
