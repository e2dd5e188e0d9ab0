"""Grid, point and quantization behavior."""

import math
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aporbit import (
    GridSpec,
    GridState,
    GridStates,
    OrbitSeries,
    Point,
    quantize,
)
from aporbit import core
from aporbit.core import QUANTIZE_BLOCK, _quantize_rows
from aporbit.errors import DimensionMismatch, OutOfRange
from oracles import quantization_error


def oracle_quantize_axis(c, g):
    """Enumerate every node; nearest wins, exact rational ties go up."""
    best, best_dist = None, None
    for k in range(g.K + 1):
        dist = abs(Fraction(c) - (Fraction(2 * k, g.K) - 1))
        if best_dist is None or dist <= best_dist:
            best, best_dist = k, dist
    return best


def scalar_quantize_axis(c, g):
    """The per-entry rule: the float u = (c+1)K/2 decides away from ties;
    within 1e-9 of a half-integer, rational arithmetic decides, so ties
    resolve by the true values of c and the nodes 2k/K - 1."""
    K = g.K
    u = (c + 1.0) * K / 2.0
    k = math.floor(u)
    frac = u - k
    if abs(frac - 0.5) > 1e-9:
        idx = k + 1 if frac > 0.5 else k
    else:
        uq = (Fraction(c) + 1) * K / 2
        kq = math.floor(uq)
        idx = kq + 1 if uq - kq >= Fraction(1, 2) else kq
    return min(max(idx, 0), K)


def test_point_validation():
    p = Point([0.5, -0.25])
    assert p.coords == (0.5, -0.25)
    assert p.d == 2
    # harmless float overshoot is clamped
    assert Point([1.0 + 5e-13]).coords == (1.0,)
    assert Point([-1.0 - 5e-13]).coords == (-1.0,)
    with pytest.raises(OutOfRange):
        Point([1.5])
    with pytest.raises(OutOfRange):
        Point([-1.0 - 1e-9])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(OutOfRange):
            Point([0.5, bad])


def test_gridspec_nodes():
    g = GridSpec(K=4, d=1)
    assert g.spacing == 0.5
    assert g.state_count == 5
    assert GridSpec(K=3, d=2).state_count == 16
    with pytest.raises(ValueError):
        GridSpec(K=0, d=1)


def test_gridstate_equality_and_decode():
    g = GridSpec(K=2, d=2)
    s1 = GridState([0, 2], g)
    s2 = GridState([0, 2], g)
    s3 = GridState([1, 2], g)
    assert s1 == s2 and hash(s1) == hash(s2)
    assert s1 != s3
    assert s1.decode().coords == (-1.0, 1.0)
    with pytest.raises(DimensionMismatch):
        GridState([0], g)
    with pytest.raises(OutOfRange):
        GridState([0, 3], g)


def test_quantize_examples():
    g2 = GridSpec(K=2, d=1)
    # unambiguous nearest node
    assert quantize(Point([0.4]), g2).indices == (1,)
    # exact midpoint resolves to the larger node
    assert quantize(Point([0.5]), g2).indices == (2,)
    # midpoint of the K=1 grid, both axes
    g1 = GridSpec(K=1, d=2)
    q = quantize(Point([0.0, 0.0]), g1)
    assert q.indices == (1, 1)
    assert q.decode().coords == (1.0, 1.0)
    # a grid point maps to itself
    assert quantize(Point([-1.0]), GridSpec(K=4, d=1)).indices == (0,)
    with pytest.raises(DimensionMismatch):
        quantize(Point([0.0]), g1)


def test_quantization_error_examples():
    assert quantization_error(Point([0.0]), GridSpec(K=2, d=1)) == 0.0
    err = quantization_error(Point([0.0, 0.0]), GridSpec(K=1, d=2))
    assert err == math.sqrt(2.0)  # the bound sqrt(d)/K attained exactly
    # enumeration oracle: nearest node to 0.07 on the K=10 grid is 0.0
    err = quantization_error(Point([0.07]), GridSpec(K=10, d=1))
    assert err == pytest.approx(0.07, abs=1e-15)


def test_quantize_matches_enumeration_oracle():
    rng = np.random.default_rng(42)
    for _ in range(300):
        K = int(rng.integers(1, 30))
        g = GridSpec(K=K, d=1)
        c = float(rng.uniform(-1, 1))
        assert quantize(Point([c]), g).indices[0] == oracle_quantize_axis(c, g)


def test_quantization_error_bound_random():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        d = int(rng.integers(1, 6))
        K = int(rng.integers(1, 65))
        p = Point(rng.uniform(-1, 1, d))
        assert quantization_error(p, GridSpec(K=K, d=d)) <= math.sqrt(d) / K


def test_quantize_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(500):
        d = int(rng.integers(1, 4))
        K = int(rng.integers(1, 33))
        g = GridSpec(K=K, d=d)
        s = quantize(Point(rng.uniform(-1, 1, d)), g)
        assert quantize(s.decode(), g) == s


def test_tie_rule_exhaustive():
    # Exact midpoints that are representable as doubles must round up.
    for K in range(1, 65):
        g = GridSpec(K=K, d=1)
        for k in range(K):
            mid = Fraction(2 * k + 1, K) - 1
            as_float = float(mid)
            if Fraction(as_float) == mid:
                assert quantize(Point([as_float]), g).indices[0] == k + 1, (K, k)


def test_per_axis_error_half_spacing():
    rng = np.random.default_rng(11)
    for _ in range(500):
        K = int(rng.integers(1, 65))
        g = GridSpec(K=K, d=1)
        c = float(rng.uniform(-1, 1))
        node = quantize(Point([c]), g).decode().coords[0]
        assert abs(c - node) <= 1.0 / K + 1e-15


@st.composite
def axis_values(draw, K):
    """Coordinates near a tie of the K grid (a few ulps either side), at or
    just inside the box edge (the clamp band), zero and the smallest
    doubles around it (a midpoint of every odd-K grid), or anywhere in
    [-1, 1]."""
    kind = draw(st.sampled_from(["tie", "edge", "tiny", "any"]))
    if kind == "tiny":
        c = draw(st.sampled_from([0.0, 1e-300, -1e-300, 5e-324, -5e-324]))
    elif kind == "tie":
        c = (2 * draw(st.integers(0, K - 1)) + 1) / K - 1.0
        toward = draw(st.sampled_from([-math.inf, math.inf]))
        for _ in range(draw(st.integers(0, 4))):
            c = math.nextafter(c, toward)
    elif kind == "edge":
        c = draw(st.sampled_from([-1.0, 1.0]))
        c -= math.copysign(draw(st.floats(0.0, 1e-12)), c)
    else:
        c = draw(st.floats(-1.0, 1.0))
    return min(max(c, -1.0), 1.0)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_vectorized_quantizer_matches_scalar(data):
    # any K up to 1000, or an odd K up to 2^44 (0 is then a midpoint)
    K = data.draw(st.one_of(st.integers(1, 1000),
                            st.integers(0, 2 ** 43 - 1).map(lambda j: 2 * j + 1)))
    d = data.draw(st.integers(1, 3))
    rows = data.draw(st.lists(st.lists(axis_values(K), min_size=d, max_size=d),
                              min_size=1, max_size=8))
    g = GridSpec(K=K, d=d)
    want = [[scalar_quantize_axis(c, g) for c in row] for row in rows]
    assert _quantize_rows(np.array(rows), g).tolist() == want
    assert [list(quantize(Point(row), g).indices) for row in rows] == want


def test_vectorized_quantizer_nan_raises_like_scalar():
    g = GridSpec(K=4, d=2)
    with pytest.raises(ValueError):
        scalar_quantize_axis(math.nan, g)
    with pytest.raises(ValueError):
        _quantize_rows(np.array([[0.5, math.nan]]), g)
    with pytest.raises(ValueError):
        _quantize_rows(np.array([[0.5, 0.1], [0.2, math.nan]]), g)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_quantizer_blocks_match_scalar(data):
    # 3 to 6 blocks of 1..5 rows, each block with an exact midpoint in it
    K = data.draw(st.one_of(st.integers(1, 1000),
                            st.integers(0, 2 ** 43 - 1).map(lambda j: 2 * j + 1)))
    d = data.draw(st.integers(1, 3))
    block = data.draw(st.integers(1, 5))
    blocks = data.draw(st.integers(3, 6))
    n = data.draw(st.integers((blocks - 1) * block + 1, blocks * block))
    rows = data.draw(st.lists(st.lists(axis_values(K), min_size=d, max_size=d),
                              min_size=n, max_size=n))
    for a in range(0, n, block):
        k = data.draw(st.integers(0, K - 1))
        rows[a + data.draw(st.integers(0, min(block, n - a) - 1))][data.draw(
            st.integers(0, d - 1))] = (2 * k + 1) / K - 1.0
    g = GridSpec(K=K, d=d)
    want = [[scalar_quantize_axis(c, g) for c in row] for row in rows]
    with mock.patch.object(core, "QUANTIZE_BLOCK", block):
        assert _quantize_rows(np.array(rows), g).tolist() == want


def test_quantizer_blocks_match_scalar_at_the_block_size():
    # three and a half blocks of the library's own size, ties in every block
    rng = np.random.default_rng(5)
    for K in (7, 64, 2 ** 43 + 1):
        n = 3 * QUANTIZE_BLOCK + QUANTIZE_BLOCK // 2
        Y = rng.uniform(-1.0, 1.0, (n, 2))
        at = rng.integers(0, n, 400)
        Y[at, at % 2] = (2 * rng.integers(0, K, 400) + 1) / K - 1.0
        Y[at[::3], 0] = np.nextafter(Y[at[::3], 0], 2.0)
        g = GridSpec(K=K, d=2)
        want = [[scalar_quantize_axis(c, g) for c in row] for row in Y.tolist()]
        assert _quantize_rows(Y, g).tolist() == want


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nan_in_a_later_block_raises_like_the_first(bad):
    # the message names the first bad entry in row order, as for one block,
    # and numpy warns of nothing on the way
    g = GridSpec(K=5, d=2)
    Y = np.zeros((3 * QUANTIZE_BLOCK + 5, 2))
    Y[2 * QUANTIZE_BLOCK + 7, 1] = bad
    with pytest.raises(ValueError) as later:
        _quantize_rows(Y, g)
    with pytest.raises(ValueError) as single:
        _quantize_rows(np.array([[0.0, bad]]), g)
    assert str(later.value) == str(single.value) == f"cannot quantize {np.float64(bad)!r}"
    Y[QUANTIZE_BLOCK + 1, 0] = -bad
    with pytest.raises(ValueError, match=re.escape(f"cannot quantize {np.float64(-bad)!r}")):
        _quantize_rows(Y, g)


def test_exact_ties_cost_one_fraction_pass_per_midpoint(monkeypatch):
    # 10^5 entries on one midpoint (0 of an odd-K grid, and the doubles
    # +-1e-300 around it) must not build a Fraction per entry.
    built = [0]

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            built[0] += 1
            return Fraction(*args, **kwargs)

    monkeypatch.setattr(core, "Fraction", CountingFraction)
    # K = 7: 0 lies midway between nodes 3 and 4; 0.5 is inside node 5's cell
    Y = np.resize(np.array([0.0, 1e-300, -1e-300, 0.5]), (50_000, 2))
    idx = _quantize_rows(Y, GridSpec(K=7, d=2))
    assert np.array_equal(idx, np.resize(np.array([4, 4, 3, 5]), (50_000, 2)))
    assert built[0] <= 4  # one distinct midpoint
    built[0] = 0
    for K in (3, 5, 1001):
        assert (_quantize_rows(np.zeros((100_000, 1)), GridSpec(K=K, d=1)) == (K + 1) // 2).all()
    assert built[0] <= 4 * 3


def test_grid_states_codes_and_boundary():
    g = GridSpec(K=3, d=2)
    states = GridStates.of([GridState(iv, g) for iv in ([0, 1], [3, 3], [0, 1])])
    assert states.codes().tolist() == [1, 15, 1]
    assert states.nodes().tolist() == [[-1.0, -1.0 + 2.0 / 3], [1.0, 1.0], [-1.0, -1.0 + 2.0 / 3]]
    assert states[1] == GridState([3, 3], g)
    assert states[1:] == GridStates.of([GridState([3, 3], g), GridState([0, 1], g)])
    assert states != list(states)  # no comparison with lists of GridState
    assert states == GridStates(states.indices.copy(), g)
    assert states != GridStates(states.indices, GridSpec(K=4, d=2))
    # beyond int64 mixed-radix codes: ranks among the distinct rows
    big = GridSpec(K=2 ** 40, d=2)
    rows = np.array([[5, 2 ** 40], [0, 0], [5, 2 ** 40]], dtype=np.int64)
    codes = GridStates(rows, big).codes()
    assert codes[0] == codes[2] != codes[1]


def test_orbit_series_validation():
    s = OrbitSeries(np.array([[0.0], [0.5]]))
    assert s.d == 1 and s.horizon == 1
    assert s.values.shape == (2, 1)
    assert [p.coords for p in s.samples] == [(0.0,), (0.5,)]
    with pytest.raises(ValueError):
        s.values[0, 0] = 1.0  # the samples are read-only
    with pytest.raises(ValueError):
        OrbitSeries(np.empty((0, 1)))
    with pytest.raises(DimensionMismatch):
        OrbitSeries(np.array([0.0, 0.5]))


def test_json_round_trip_shapes():
    g = GridSpec(K=3, d=2)
    assert g.to_json() == {"K": 3, "d": 2}
    assert GridState([1, 2], g).to_json() == [1, 2]
    assert Point([0.25, -1.0]).to_json() == [0.25, -1.0]
