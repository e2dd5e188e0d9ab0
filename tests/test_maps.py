"""Map kinds, range validation and Lipschitz estimation."""

import dataclasses
import itertools
import math
import pickle
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aporbit import (
    BUILTIN_MAPS,
    ARSpec,
    Point,
    ar_map,
    builtin_map,
    delay_map,
    estimate_lipschitz,
    evaluate,
    expression_map,
    generate_orbit,
    map_from_json,
    recursion,
    to_source,
    validate_range,
)
from aporbit.core import CLAMP_BAND, box_overshoot
from aporbit.errors import DimensionMismatch, EvaluationError, RangeViolation
from aporbit.expressions import BinOp, Call, Num, Var, linear_part
from aporbit.maps import LIPSCHITZ_BLOCK, LipschitzEstimate, MapDefinition, _probe_points
from oracles import BUILTIN_STEPS, ar_step, companion_matrix, probe_points, sampled_lipschitz
from test_expressions import ast_nodes


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
        estimate_lipschitz(m, samples=256, seed=0)
    # overshoot is not policed here: |3*x1| leaves the box and gives gamma 3
    est = estimate_lipschitz(expression_map(["abs(3*x1)"]), samples=256, seed=0)
    assert est.method == "sampled" and est.gamma == pytest.approx(3.0)


def test_dimension_mismatch():
    m = ar_map([0.5, 0.25])
    with pytest.raises(DimensionMismatch):
        evaluate(m, Point([0.5]))
    with pytest.raises(DimensionMismatch):
        MapDefinition(())
    with pytest.raises(DimensionMismatch):  # once the constant map z -> 0.0
        ar_map([])


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
    est = estimate_lipschitz(ar_map([0.0, -1.0]))
    assert est.gamma == pytest.approx(1.0)  # rotation: singular values 1, 1
    assert est.method == "analytic" and est.sample_count is None
    est = estimate_lipschitz(ar_map([0.5]))
    assert est.gamma == pytest.approx(0.5)


def test_gamma_method_follows_the_map():
    # the trees decide: the same map with a call in a tree is sampled
    m = ar_map([0.3, -0.9])
    assert estimate_lipschitz(m, samples=64, seed=5) == estimate_lipschitz(m)
    assert estimate_lipschitz(m).method == "analytic"
    curved = with_a_call(m)
    sampled = estimate_lipschitz(curved, samples=64)
    assert (sampled.method, sampled.sample_count) == ("sampled", 64)
    assert sampled.gamma == sampled_lipschitz(curved, 64, 0)
    with pytest.raises(TypeError):  # no caller picks the method
        estimate_lipschitz(m, mode="sampled")


@pytest.mark.parametrize("m", [
    builtin_map("identity", 3),
    builtin_map("negation", 2),
    expression_map(["0.6*x1 - 0.8*x2", "0.8*x1 + 0.6*x2"]),  # a rotation
], ids=["identity", "negation", "rotation"])
def test_affine_maps_get_their_exact_gamma(m):
    # a sampled "lower bound" once read 1.0000000000014655 for the rotation
    assert estimate_lipschitz(m) == LipschitzEstimate(gamma=1.0, method="analytic")


@pytest.mark.parametrize("name", ["tent", "doubling"])
def test_curved_builtins_stay_sampled(name):
    m = builtin_map(name, 2)
    est = estimate_lipschitz(m, samples=256, seed=1)
    assert (est.method, est.gamma) == ("sampled", sampled_lipschitz(m, 256, 1))


def test_gamma_of_every_ar_map_is_its_companion_norm():
    rng = np.random.default_rng(2000)
    for _ in range(2000):
        d = int(rng.integers(1, 8))
        p = rng.uniform(-1.0, 1.0, d) * 10.0 ** rng.uniform(-3.0, 3.0, d)
        p = np.where(rng.random(d) < 0.15, rng.choice([0.0, -0.0, 1.0], d), p).tolist()
        est = estimate_lipschitz(ar_map(p))
        assert est.method == "analytic"
        assert est.gamma.hex() == float(np.linalg.norm(companion_matrix(p), 2)).hex(), p


def test_a_map_is_only_its_trees():
    assert [f.name for f in dataclasses.fields(MapDefinition) if f.init] == ["trees"]
    tent = builtin_map("tent", 1)
    with pytest.raises(TypeError):  # no coefficients can contradict the trees
        MapDefinition(tent.trees, (0.5,))
    assert linear_part(tent.trees) is None


def test_lipschitz_sampled_cosine():
    # derivative of 0.9*cos(3x) is -2.7*sin(3x); dense sampling of that
    # bound is the oracle for the true constant 2.7
    xs = np.linspace(-1, 1, 200001)
    true_gamma = np.max(np.abs(2.7 * np.sin(3 * xs)))
    assert true_gamma == pytest.approx(2.7, abs=1e-6)
    m = expression_map(["0.9*cos(3*x1)"])
    est = estimate_lipschitz(m, samples=4096, seed=0)
    assert est.method == "sampled"
    assert 2.6 <= est.gamma <= true_gamma + 1e-9


def lipschitz_outcome(fn):
    """The bits of a sampled gamma, or the error type and message."""
    try:
        return fn().hex()
    except Exception as exc:
        return type(exc), str(exc)


def assert_sampled_matches_oracle(m, samples, seed):
    got = lipschitz_outcome(
        lambda: estimate_lipschitz(m, samples=samples, seed=seed).gamma)
    assert got == lipschitz_outcome(lambda: sampled_lipschitz(m, samples, seed))
    return got


# odd and even counts, and counts on both sides of one and two block edges
EDGE_COUNTS = (1, 2, 3, 7, 8, LIPSCHITZ_BLOCK - 1, LIPSCHITZ_BLOCK, LIPSCHITZ_BLOCK + 1,
               2 * LIPSCHITZ_BLOCK + 1, 3000)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sampled_lipschitz_matches_per_pair_oracle(data):
    d = data.draw(st.integers(1, 4))
    trees = data.draw(st.lists(ast_nodes(d), min_size=d, max_size=d))
    samples = data.draw(st.one_of(st.sampled_from(EDGE_COUNTS), st.integers(1, 3000)))
    seed = data.draw(st.integers(0, 2 ** 32))
    m = MapDefinition(tuple(trees))
    if linear_part(m.trees) is None:
        assert_sampled_matches_oracle(m, samples, seed)
    else:  # an affine map is never sampled
        assert estimate_lipschitz(m, samples=samples, seed=seed).method == "analytic"


@pytest.mark.parametrize("sources, outcome", [
    # NaN images on half the box
    (["0.5*x1 + max(x1,0)*1e200*1e200*0"], RangeViolation),
    # a division by a near-zero value where x2 < 0.3
    (["0.5*x1", "1e-9 / min(max(x2 - 0.3, 1e-310), 1.0)"], EvaluationError),
    # NaN images near one edge and a division error near another: the
    # first in sample order is RangeViolation at seeds 0 and 1, and
    # EvaluationError at seed 7
    (["0.1*x1 + max(x1-0.95,0)*1e200*1e200*0", "1e-9/max(0.97 - x2, 1e-310)"],
     (RangeViolation, EvaluationError)),
    # a constant map, written with a call so that its gamma is sampled
    (["0.3 + 0*abs(x1)", "-0.7"], "0x0.0p+0"),
])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_sampled_lipschitz_matches_oracle_on_failures(sources, outcome, seed):
    m = expression_map(sources)
    # from one block on, every failing map here has met its failure
    seen = {assert_sampled_matches_oracle(m, samples, seed) for samples in EDGE_COUNTS[5:]}
    if isinstance(outcome, str):
        assert seen == {outcome}  # gamma = 0 exactly
    else:
        assert all(isinstance(s, tuple) and issubclass(s[0], outcome) for s in seen)


def test_sampled_lipschitz_memory_is_blocked():
    m = expression_map(["0.4*x1 - 0.5*sin(x2)", "x1"])
    tracemalloc.start()
    try:
        estimate_lipschitz(m, samples=200_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


@pytest.mark.parametrize("d", [1, 2, 3, 5, 13])
def test_probe_points_match_scalar_halton(d):
    for samples, seed in ((0, 0), (1, 2), (3000, 0), (257, 9)):
        assert _probe_points(d, samples, seed).tobytes() == probe_points(d, samples, seed).tobytes()


def test_validate_range_reports_the_oracle_probes():
    m = expression_map(["1.02*cos(3*x1)*x2", "0.5*sin(x1+x2)"])
    report = validate_range(m, samples=300, seed=4)
    probes = probe_points(2, 300, 4)
    over = box_overshoot(np.array([m.step(tuple(p)) for p in probes.tolist()]))
    worst = int(np.argmax(over))
    assert report.points_checked == len(probes)
    assert report.worst_point == tuple(probes[worst].tolist())
    assert report.max_overshoot == max(float(over[worst]), 0.0) > CLAMP_BAND
    assert not report.passed


def with_a_call(m: MapDefinition) -> MapDefinition:
    """The same map, its first tree plus 0.0*abs(x1): not affine, so its
    gamma is sampled."""
    zero = BinOp("*", Num(0.0), Call("abs", (Var(1),)))
    return MapDefinition((BinOp("+", m.trees[0], zero),) + m.trees[1:])


def test_sampled_below_analytic_for_ar():
    rng = np.random.default_rng(9)
    for _ in range(10):
        p = rng.uniform(-0.5, 0.5, int(rng.integers(1, 4)))
        lo = estimate_lipschitz(with_a_call(ar_map(p)), samples=800, seed=3)
        hi = estimate_lipschitz(ar_map(p))
        assert (lo.method, hi.method) == ("sampled", "analytic")
        assert lo.gamma <= hi.gamma + 1e-9


def test_linear_map_stretch_bounded_by_analytic():
    rng = np.random.default_rng(17)
    p = (0.3, -0.4, 0.2)
    C = companion_matrix(p)
    gamma = estimate_lipschitz(ar_map(p)).gamma
    for _ in range(2000):
        w = rng.uniform(-1, 1, 3)
        wp = rng.uniform(-1, 1, 3)
        lhs = np.linalg.norm(C @ w - C @ wp)
        assert lhs <= gamma * np.linalg.norm(w - wp) * (1 + 1e-12)


def test_map_json_round_trip():
    # any map is the `expr` form of its printed trees: the same step and gamma
    points = [tuple(row) for row in np.random.default_rng(4).uniform(-1, 1, (50, 3)).tolist()]
    for m in (
        ar_map([0.25, -0.5]),
        delay_map("0.5*x1 - 0.25*x2", 2),
        expression_map(["0.5*x1", "tanh(x2)"]),
        builtin_map("tent", 3),
    ):
        sources = [to_source(tree) for tree in m.trees]
        again = map_from_json({"d": m.d, "kind": "expr", "exprs": sources})
        assert [to_source(tree) for tree in again.trees] == sources
        assert [again.step(c[:m.d]) for c in points] == [m.step(c[:m.d]) for c in points]
        assert estimate_lipschitz(again, samples=64) == estimate_lipschitz(m, samples=64)


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
