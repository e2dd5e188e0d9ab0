"""Map kinds, range validation and Lipschitz estimation."""

import ast
import dataclasses
import itertools
import json
import math
import pickle
import tracemalloc
from array import array
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aporbit
from aporbit import (
    BUILTIN_MAPS,
    Point,
    ar_map,
    builtin_map,
    delay_map,
    estimate_lipschitz,
    expression_map,
    expressions,
    generate_orbit,
    map_from_json,
    recursion,
    validate_range,
)
from aporbit.core import CLAMP_BAND, box_overshoot
from aporbit.errors import DimensionMismatch, EvaluationError, RangeViolation
from aporbit.expressions import BinOp, Call, Num, Var, linear_part
from aporbit import maps
from aporbit.maps import (
    LIPSCHITZ_BLOCK,
    ORBIT_BLOCK,
    LipschitzEstimate,
    MapDefinition,
    RangeReport,
    _probe_points,
)
from oracles import (BUILTIN_STEPS, ar_step, companion_matrix, loop_orbit, loop_step,
                     probe_points, sampled_lipschitz, tree_step)
from test_expressions import ast_nodes


def test_ar_evaluate():
    m = ar_map([0.0, -1.0])
    # new z = 0*1 + (-1)*0, shift fills coord 2
    assert tree_step(m.trees)((1.0, 0.0)) == loop_step(m)((1.0, 0.0)) == (0.0, 1.0)
    assert generate_orbit(m, Point([1.0, 0.0]), 1).values[1].tolist() == [0.0, 1.0]


def test_expression_evaluate():
    m = expression_map(["0.5*x1"])
    assert tree_step(m.trees)((0.8,)) == loop_step(m)((0.8,)) == (0.4,)
    assert generate_orbit(m, Point([0.8]), 1).values[1].tolist() == [0.4]


def test_range_violation():
    m = ar_map([1.5])
    assert loop_step(m)((1.0,)) == (1.5,)  # a step on [-inf, inf] polices nothing
    with pytest.raises(RangeViolation):
        generate_orbit(m, Point([1.0]), 1)


def test_nan_image_is_a_range_violation():
    m = expression_map(["0.5*x1", "x1*1e200*1e200*0"])
    with pytest.raises(RangeViolation):
        generate_orbit(m, Point([0.3, 0.1]), 1)
    # NaN only where x1 != 0: the center maps to (0, 0)
    assert generate_orbit(m, Point([0.0, 0.1]), 1).values[1].tolist() == [0.0, 0.0]


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
        generate_orbit(m, Point([0.5]), 1)
    with pytest.raises(DimensionMismatch):
        MapDefinition(())
    with pytest.raises(DimensionMismatch):  # once the constant map z -> 0.0
        ar_map([])


def test_shift_structure_bitwise():
    rng = np.random.default_rng(0)
    m = ar_map([0.2, -0.3, 0.1, 0.05])
    for _ in range(200):
        coords = tuple(rng.uniform(-1, 1, 4).tolist())
        assert tree_step(m.trees)(coords)[1:] == coords[:-1]
    md = delay_map("0.5*x1 - 0.25*x3", 3)
    for _ in range(100):
        coords = tuple(rng.uniform(-1, 1, 3).tolist())
        assert tree_step(md.trees)(coords)[1:] == coords[:-1]


def test_builtins_stay_in_box():
    rng = np.random.default_rng(1)
    for name in ("identity", "negation", "tent", "doubling"):
        m = builtin_map(name, 2)
        assert validate_range(m, samples=128, seed=0).passed, name
        for _ in range(50):
            generate_orbit(m, Point(rng.uniform(-1, 1, 2)), 1)  # must not raise


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
    # image distances past the largest float: gamma is inf, not a RuntimeWarning
    (["x1*max(0.0, 1e300)"], "inf"),
    # images at +inf: inf - inf is no finite distance, not a RuntimeWarning
    (["abs(x1)*1e300*1e300"], RangeViolation),
])
def test_sampled_lipschitz_matches_oracle_on_fixed_cases(sources, outcome):
    got = assert_sampled_matches_oracle(expression_map(sources), samples=1, seed=0)
    assert got == outcome if isinstance(outcome, str) else got[0] is outcome


class CountingGenerator:
    """A Generator that counts the calls of its methods in `calls`."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls.append(name)
            return method(*args, **kwargs)
        return counted


@pytest.mark.parametrize("samples", [1, LIPSCHITZ_BLOCK, 2 * LIPSCHITZ_BLOCK + 1, 4096])
def test_sampled_lipschitz_draws_scale_with_blocks(monkeypatch, samples):
    m = expression_map(["0.4*x1 - 0.35*sin(x2)", "x1"])
    expected = estimate_lipschitz(m, samples=samples, seed=3)
    calls = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: CountingGenerator(default_rng(seed), calls))
    assert estimate_lipschitz(m, samples=samples, seed=3) == expected
    assert 0 < len(calls) <= 3 * -(-samples // LIPSCHITZ_BLOCK)


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
    step = tree_step(m.trees)
    over = box_overshoot(np.array([step(tuple(p)) for p in probes.tolist()]))
    worst = int(np.argmax(over))
    assert report.points_checked == len(probes)
    assert report.worst_point == tuple(probes[worst].tolist())
    assert report.max_overshoot == max(float(over[worst]), 0.0) > CLAMP_BAND
    assert not report.passed


def first_raise(m: MapDefinition, points) -> int:
    """The index of the first point at which a step of the map raises, or
    len(points)."""
    step = tree_step(m.trees)
    for i, p in enumerate(points.tolist()):
        try:
            step(tuple(p))
        except EvaluationError:
            return i
    return len(points)


@pytest.mark.parametrize("sources, failing_probe", [
    (["0.5*x1", "1e-9/max(abs(x2 - 0.123) - 0.01, 1e-310)"], 40),  # a Halton probe
    (["0.5*sin(x1*1e308*10)"], 0),  # the corner -1
])
def test_validate_range_reports_the_first_failing_probe(sources, failing_probe):
    m = expression_map(sources)
    probes = probe_points(m.d, 300, 4)
    assert first_raise(m, probes) == failing_probe
    assert validate_range(m, samples=300, seed=4) == RangeReport(
        passed=False, max_overshoot=math.inf,
        worst_point=tuple(probes[failing_probe].tolist()), points_checked=len(probes))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_batch_equals_a_loop_of_step(data):
    d = data.draw(st.integers(1, 4))
    m = MapDefinition(tuple(data.draw(st.lists(ast_nodes(d), min_size=d, max_size=d))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
    points = rng.uniform(-1.0, 1.0, (data.draw(st.integers(0, 64)), d))
    special = rng.random(points.shape) < 0.2
    points[special] = rng.choice(SPECIAL, int(special.sum()))
    images, first = m.batch(points)
    assert images.shape == points.shape
    assert first == first_raise(m, points)
    step = tree_step(m.trees)
    want = [step(tuple(p)) for p in points[:first].tolist()]
    assert np.array_equal(bits(images[:first]), bits(want).reshape(-1, d))


def test_batch_tanh_is_maths_not_numpys():
    # numpy picks its tanh kernel by CPU, and on some CPUs it differs from
    # math.tanh on about a third of all inputs; those inputs are the test
    x = np.random.default_rng(0).uniform(-3.0, 3.0, 20_000)
    want = np.array([math.tanh(v) for v in x.tolist()])
    differ = np.tanh(x) != want
    if differ.any():
        x, want = x[differ], want[differ]
    images, first = expression_map(["tanh(x1)"]).batch(x[:, None])
    assert first == len(x)
    assert np.array_equal(bits(images[:, 0]), bits(want))


def test_batch_min_max_keep_the_first_argument():
    # Python's min and max return the first argument unless the second is
    # strictly smaller (larger): min(0.0, -0.0) is 0.0, min(1.0, nan) is 1.0
    points = np.array(list(itertools.product([0.0, -0.0, 1.0, math.nan], repeat=2)))
    m = expression_map(["min(x1, x2)", "max(x1, x2)"])
    images, first = m.batch(points)
    assert first == len(points)
    step = tree_step(m.trees)
    assert np.array_equal(bits(images), bits([step(tuple(p)) for p in points.tolist()]))


@pytest.mark.parametrize("first_use", [
    lambda m: estimate_lipschitz(m, samples=64),
    lambda m: validate_range(m, samples=16),
], ids=["estimate_lipschitz", "validate_range"])
def test_batch_compiles_on_first_use(monkeypatch, first_use):
    # a census builds one map per sample: building one compiles its loop alone
    compiled = []
    factory = expressions._factory
    monkeypatch.setattr(expressions, "_factory",
                        lambda source, name, n: compiled.append(name) or factory(source, name, n))
    m = expression_map(["0.9*cos(3*x1)*x2", "0.5*tanh(x1 + x2)"])
    assert compiled == ["run"]
    first_use(m)
    assert compiled == ["run", "batch"]
    estimate_lipschitz(m, samples=64)
    validate_range(m, samples=16)
    assert compiled == ["run", "batch"]


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
    # each input form read back from its JSON text is the map its builder
    # makes: the same trees, loop and gamma
    points = [tuple(row) for row in np.random.default_rng(4).uniform(-1, 1, (50, 3)).tolist()]
    for definition, m in (
        ({"kind": "ar", "p": [0.25, -0.5]}, ar_map([0.25, -0.5])),
        ({"kind": "delay", "d": 2, "expr": "0.5*x1 - 0.25*x2"}, delay_map("0.5*x1 - 0.25*x2", 2)),
        ({"kind": "expr", "exprs": ["0.5*x1", "tanh(x2)"]},
         expression_map(["0.5*x1", "tanh(x2)"])),
        ({"kind": "builtin", "d": 3, "name": "tent"}, builtin_map("tent", 3)),
    ):
        again = map_from_json(json.loads(json.dumps(definition)))
        assert again == m
        assert ([loop_step(again)(c[:m.d]) for c in points]
                == [loop_step(m)(c[:m.d]) for c in points])
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
    # a shift map's loop appends x1 alone, one value a step; any other
    # map's appends all d coordinates
    for m, shift in (
        (ar_map([0.25, -0.5]), True),
        (delay_map("0.5*x1 / (1.5 + x2)", 2), True),
        (expression_map(["0.5*x1", "tanh(x2)"]), False),
        (builtin_map("tent", 2), False),
    ):
        again = pickle.loads(pickle.dumps(m))
        assert again == m
        assert again.shift == m.shift == shift
        assert loop_step(again)((0.3, -0.7)) == tree_step(m.trees)((0.3, -0.7))
        got, want = array("d"), array("d")
        assert (again.loop(0.3, -0.7, 0, 50, got.append, -1.0, 1.0)
                == m.loop(0.3, -0.7, 0, 50, want.append, -1.0, 1.0))
        assert got == want and len(got) == (1 if shift else 2) * 50


SPECIAL = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324]


def bits(values):
    return np.array(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("name", sorted(BUILTIN_MAPS))
def test_builtin_trees_equal_the_old_builtin_steps(name, d):
    step = loop_step(builtin_map(name, d))
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
            step, old = loop_step(ar_map(p)), ar_step(p)
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
    assert loop_step(m)(c) == ar_step(p)(c)
    orb = generate_orbit(m, Point(c), 30)
    assert orb.values[1:, 0].tolist() == recursion(m, Point(c), 30)[1:].tolist()


def test_only_iterate_runs_a_maps_loop():
    # The loop's calling convention and buffer layout are known only to
    # `expressions.compile_orbit_loop`, which writes it, and to
    # `MapDefinition.iterate`, which runs it; no other library code reads
    # a map's `.loop`.
    readers = []

    def walk(node, scope, module):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Attribute) and child.attr == "loop":
                readers.append(f"{module}:{scope}")
            walk(child, inner, module)

    for path in sorted(Path(aporbit.__file__).parent.glob("*.py")):
        walk(ast.parse(path.read_text()), "", path.stem)
    assert readers == ["maps:MapDefinition.iterate"]


def first_repeat_row(values, lag):
    """By brute force: the first row t that equals row t - lag bit for bit,
    where every later row does too; None if the last row does not."""
    rows = [row.tobytes() for row in values]
    t = len(rows) - 1
    if t < lag or rows[t] != rows[t - lag]:
        return None
    while t - 1 >= lag and rows[t - 1] == rows[t - 1 - lag]:
        t -= 1
    return t


def iterate_outcome(iterate, m, y0, horizon, box):
    """What iterate(m, Point(y0), horizon, box) returns, or the error
    type, message and t."""
    try:
        return iterate(m, Point(y0), horizon, box)
    except (RangeViolation, EvaluationError) as exc:
        return type(exc), str(exc), getattr(exc, "t", None)


# Trees whose orbits reach an exact cycle soon: a fixed point (0.0, -1.0,
# 0.25), a flip of sign (of 0.0 too, so a cycle of 0.0 and -0.0), NaN, or
# a clamp onto the box at every step.
CYCLING = ["-x{i}", "x{i}*x{i}", "1 - 2*abs(x{i})", "min(x{i}, 0.25)", "0.5*x{i}",
           "x{i}*0.1", "x1*1e200*1e200*0", "x{i} * 1.0000000000005", "-x{i} - 1e-13"]


def cycling_nodes(d):
    return st.builds(lambda src, i: expressions.parse_expression(src.format(i=i), d),
                     st.sampled_from(CYCLING), st.integers(1, d))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_iterate_equals_the_loop_run_to_the_horizon(data):
    # Blocks of a few steps and a short window, so that the horizon spans
    # many blocks and a cycle is found after one of them, or missed when
    # it is longer than the window.  Copying the cycle gives the bytes the
    # loop writes, NaN payloads and signed zeros included, or the same error.
    kind = data.draw(st.sampled_from(["ar", "delay", "expr"]))
    d = data.draw(st.integers(1, 5 if kind == "ar" else 3))
    nodes = st.one_of(ast_nodes(d), cycling_nodes(d))
    if kind == "ar":
        coefficient = st.one_of(st.floats(-1.2, 1.2),
                                st.sampled_from([0.0, -1.0, 0.5, 0.1, 1e300, -1e300]))
        m = ar_map(data.draw(st.lists(coefficient, min_size=d, max_size=d)))
    elif kind == "delay":
        m = MapDefinition((data.draw(nodes),) + tuple(Var(i) for i in range(1, d)))
    else:
        m = MapDefinition(tuple(data.draw(st.lists(nodes, min_size=d, max_size=d))))
    y0 = data.draw(st.lists(st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, 1.0])),
                            min_size=d, max_size=d))
    horizon, box = data.draw(st.integers(0, 400)), data.draw(st.booleans())
    block, window = data.draw(st.sampled_from([1, 2, 7, 64])), data.draw(st.integers(1, 8))
    with mock.patch.object(maps, "ORBIT_BLOCK", block), \
            mock.patch.object(maps, "REPEAT_WINDOW", window):
        got = iterate_outcome(lambda m, y0, H, box: m.iterate(y0, H, box=box), m, y0, horizon, box)
    want = iterate_outcome(loop_orbit, m, y0, horizon, box)
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.values.shape == want.shape == (horizon + 1, d)
    assert np.array_equal(got.values.view(np.int64), want.view(np.int64))
    if got.lag is not None:  # the rows repeat with that lag from t_p to the end
        assert 1 <= got.lag <= window
        assert got.repeats_from() == first_repeat_row(want, got.lag)


@pytest.mark.parametrize("m, y0, lag, t_p", [
    (builtin_map("tent", 2), [0.3, -0.71], 1, 57),  # onto (-1, -1)
    (expression_map(["-x1"]), [0.0], 2, 2),  # 0.0, -0.0, 0.0, ...
    (ar_map([0.0, -1.0]), [1.0, 0.0], 4, 4),  # a quarter turn
    (ar_map([0.5]), [0.3], 1, 1074),  # 0.3 * 2^-t, onto 0.0 at t = 1073
    (ar_map([1.823054, -0.980595]), [-0.8, -0.52], None, None),  # a spiral: no repeat
])
def test_iterate_copies_the_cycle_over_many_blocks(m, y0, lag, t_p):
    H = 3 * ORBIT_BLOCK + 5
    for box in (True, False):
        series = m.iterate(Point(y0), H, box=box)
        want = loop_orbit(m, Point(y0), H, box)
        assert np.array_equal(series.values.view(np.int64), want.view(np.int64))
        assert (series.lag, series.repeats_from()) == (lag, t_p)


def test_iterate_finds_a_repeat_by_its_bits():
    # 0.0 == -0.0, but the orbit of -x1 from 0.0 repeats its bits at lag 2
    series = generate_orbit(expression_map(["-x1"]), Point([0.0]), 9)
    assert series.values[:, 0].tolist() == [0.0, -0.0] * 5
    assert [math.copysign(1.0, v) for v in series.values[:, 0]] == [1.0, -1.0] * 5
    assert (series.lag, series.repeats_from()) == (2, 2)


def test_iterate_copies_the_cycle_in_blocks():
    # 0.3 * 2^-t lands on 0.0 at t = 1073 and stays; the copies are appended
    # a block at a time, so the orbit peaks no higher than one that never
    # repeats.  Resizing the whole tail at once peaked at 39 B a sample.
    H = 200_000

    def peak(m):
        m.iterate(Point([0.3]), 1000, box=True)
        tracemalloc.start()
        try:
            series = m.iterate(Point([0.3]), H, box=True)
            return series, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    series, repeating = peak(ar_map([0.5]))
    plain, never = peak(ar_map([0.99999]))
    assert (series.lag, series.repeats_from(), plain.lag) == (1, 1074, None)
    assert series.values[1073:].tolist() == [[0.0]] * (H - 1072)
    assert repeating <= never
    assert never / (H + 1) <= 8.6
