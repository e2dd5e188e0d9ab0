"""Map kinds, range validation and Lipschitz estimation."""

import math
import pickle

import numpy as np
import pytest

from aporbit import (
    Point,
    ar_map,
    builtin_map,
    companion_matrix,
    delay_map,
    estimate_lipschitz,
    evaluate,
    expression_map,
    map_from_json,
    map_to_json,
    validate_range,
)
from aporbit.errors import AnalyticUnavailable, DimensionMismatch, RangeViolation
from aporbit.maps import MapDefinition


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
        MapDefinition(d=3, kind="ar", coeffs=(0.5,))


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
