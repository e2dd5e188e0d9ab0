"""Computations kept for the tests only.

`detect_cycle`, `parseval_gap` and `quantization_error` check library
results and have no caller in the library, and `companion_matrix` is the
matrix of an `ar` map that the library reads off its trees.  The old builtin and `ar`
step functions and the per-step orbit loop are the forms that the
compiled expression trees replaced, the per-pair Lipschitz sampler and
scalar Halton probes are the forms that the blocked array passes of
`maps` replaced, `whole_transition_table` counts the states and
conflicts of the earliest-occurrence table over the whole array, as the
blocked `orbit.build_transition_table` does over sorted codes, and
`scan_shadow_periodicity` is the pair-by-pair scan over a list of codes
that `orbit.shadow_periodicity` replaced; the tests hold the library
equal to them.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from aporbit.core import CLAMP_BAND, Point, box_overshoot, quantize
from aporbit.errors import AporbitError, RangeViolation
from aporbit.maps import _PRIMES
from aporbit.orbit import (CONFLICT_EXAMPLES, SHADOW_WINDOW, Conflicts, TransitionTable,
                           _first_repeat)


class NoCycleWithinHorizon(AporbitError):
    """The observed window is too short to certify an eventual cycle."""


def detect_cycle(seq) -> tuple[int, int]:
    """Minimal (pre-period, period) of an eventually periodic sequence.

    The library's first-repeat walker finds the candidate, which is then
    checked against the periodicity definition on the whole window.
    """
    seq = list(seq)
    found = _first_repeat(seq)
    if found is None:
        raise NoCycleWithinHorizon(f"no state repeats within the {len(seq)}-step window")
    pre_period, period = found
    for u in range(pre_period, len(seq) - period):
        if seq[u + period] != seq[u]:
            raise NoCycleWithinHorizon(
                "window is inconsistent with the first-repeat cycle; "
                "sequence is not an iterated-function trace"
            )
    return pre_period, period


def parseval_gap(form, values) -> float:
    """Worst per-coordinate gap between mean squared samples and the
    coefficient energy b_0^2 + sum (a_m^2+b_m^2)/2 (Nyquist term weight 1)."""
    values = np.asarray(values, dtype=float)
    L = form.period
    mean_sq = (values ** 2).mean(axis=0)
    energy = form.b[0] ** 2
    for m in range(1, form.harmonics + 1):
        weight = 1.0 if 2 * m == L else 0.5
        energy = energy + weight * (form.a[m] ** 2 + form.b[m] ** 2)
    return float(np.max(np.abs(mean_sq - energy)))


def quantization_error(p: Point, g) -> float:
    """l2 distance from p to its quantized state; always <= sqrt(d)/K."""
    q = np.array(quantize(p, g).decode().coords)
    return float(np.linalg.norm(np.array(p.coords) - q))


# The step functions that the builtin maps and the `ar` map had before
# every map kind became compiled expression trees.

def _identity(coords):
    return coords


def _negation(coords):
    return tuple(-c for c in coords)


def _tent(coords):
    return tuple(1.0 - 2.0 * abs(c) for c in coords)


def _doubling(coords):
    return tuple(2.0 * c * c - 1.0 for c in coords)


BUILTIN_STEPS = {"identity": _identity, "negation": _negation, "tent": _tent,
                 "doubling": _doubling}


def ar_step(p):
    """The recurrence step, summing p_l z(t+1-l) in order of l from 0.0."""
    p = tuple(float(v) for v in p)
    shift = len(p) - 1

    def step(coords):
        new0 = 0.0
        for p_l, c in zip(p, coords):
            new0 += p_l * c
        return (new0,) + tuple(coords[:shift])

    return step


def companion_matrix(p) -> np.ndarray:
    """Matrix C with (z(t),...,z(t-d+1)) -> (z(t+1),...,z(t-d+2))."""
    d = len(p)
    C = np.zeros((d, d))
    C[0, :] = p
    for i in range(1, d):
        C[i, i - 1] = 1.0
    return C


def per_step_orbit(step, y0: Point, horizon: int):
    """The per-step orbit loop that the compiled loop replaced.

    Returns (samples, error): the (n, d) samples computed, and the
    exception generate_orbit raised with them (None when it returned
    them).  A NaN after the first coordinate passes the per-step
    `max(map(abs, ...))` test, so the loop goes on from it and only the
    final scan of the whole array reports it.
    """
    d = y0.d
    current = y0.coords
    buf = array("d", current)
    try:
        for t in range(1, horizon + 1):
            out = step(current)
            if not max(map(abs, out)) <= 1.0:  # outside the box, or NaN up front
                if box_overshoot(out) > CLAMP_BAND:
                    buf.extend(out)
                    break
                out = Point(out).coords  # clamped onto the box
            buf.extend(out)
            current = out
    except AporbitError as exc:
        return np.frombuffer(buf).reshape(-1, d), exc
    values = np.frombuffer(buf).reshape(-1, d)
    bad = np.flatnonzero(box_overshoot(values) > CLAMP_BAND)
    if len(bad):
        t = int(bad[0])
        return values, RangeViolation(f"orbit left the box at t={t}: {values[t].tolist()}", t=t)
    return values, None


def sampled_lipschitz(m, samples: int, seed: int) -> float:
    """The per-pair sampled Lipschitz loop that `maps.estimate_lipschitz`
    replaced: one uniform pair, or one point and a small normal offset,
    per iteration, with the ratio taken by `np.linalg.norm`."""
    rng = np.random.default_rng(seed)
    gamma = 0.0
    for i in range(samples):
        w = rng.uniform(-1.0, 1.0, m.d)
        if i % 2 == 0:
            wp = rng.uniform(-1.0, 1.0, m.d)
        else:
            wp = np.clip(w + rng.normal(scale=1e-3, size=m.d), -1.0, 1.0)
        dist = float(np.linalg.norm(w - wp))
        if dist < 1e-6:
            continue
        fw = np.array(m.step(tuple(w.tolist())))
        fwp = np.array(m.step(tuple(wp.tolist())))
        ratio = float(np.linalg.norm(fw - fwp)) / dist
        if math.isnan(ratio):
            raise RangeViolation(f"images {fw.tolist()}, {fwp.tolist()} have no finite distance")
        gamma = max(gamma, ratio)
    return gamma


def halton(index: int, base: int) -> float:
    """The radical inverse of `index` in `base`, one digit at a time."""
    f = 1.0
    r = 0.0
    while index > 0:
        f /= base
        r += f * (index % base)
        index //= base
    return r


def probe_points(d: int, samples: int, seed: int) -> np.ndarray:
    """The probe points of `maps.validate_range`, one scalar Halton value
    per entry: 2^d corners, the center, then the shifted sequence."""
    corners = np.array(
        [[1.0 if (i >> axis) & 1 else -1.0 for axis in range(d)]
         for i in range(2 ** d)]
    )
    center = np.zeros((1, d))
    shift = np.random.default_rng(seed).random(d)
    quasi = np.empty((samples, d))
    for i in range(samples):
        for axis in range(d):
            quasi[i, axis] = (halton(i + 1, _PRIMES[axis % len(_PRIMES)]) + shift[axis]) % 1.0
    return np.vstack([corners, center, 2.0 * quasi - 1.0])


def whole_transition_table(shadow) -> TransitionTable:
    """N and the conflicts of the earliest-occurrence transition table from
    one np.unique over the whole shadow's codes."""
    if len(shadow) < 2:
        raise ValueError("need at least two shadow states to observe a transition")
    codes = shadow.codes()
    uniq, first, inverse = np.unique(codes[:-1], return_index=True, return_inverse=True)
    times = np.flatnonzero(codes[first + 1][inverse] != codes[1:])
    examples = tuple((shadow[t], t, shadow[t + 1]) for t in times[:CONFLICT_EXAMPLES].tolist())
    return TransitionTable(shadow.grid, len(uniq), Conflicts(len(times), examples))


def scan_shadow_periodicity(shadow, window: int = SHADOW_WINDOW):
    """Minimal (T, L) of the trailing `window` codes, every pair compared
    one at a time."""
    offset = max(0, len(shadow) - window)
    seq = shadow[offset:].codes().tolist()
    n = len(seq)
    for L in range(1, n // 2 + 1):
        t = n - 1 - L
        while t >= 0 and seq[t + L] == seq[t]:
            t -= 1
        T = t + 1
        if T + 2 * L <= n:
            return T + offset, L
    return None
