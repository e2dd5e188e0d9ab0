"""Seeded inputs and the job list of each workload.

A job is one `aporbit` CLI command.  Each workload builds a fixed pool of
jobs from its seed; a round runs the whole pool once with the job kinds
interleaved, so a slow phase of the host hits every kind alike.  Inputs
are screened with the independent pipeline in `checks` (never with the
code under test), so every generated job is one the program can finish.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import checks
from checks import MapSpec


def _vec(values) -> str:
    return ",".join(repr(float(v)) for v in values)


@dataclass
class RunJob:
    spec: MapSpec
    y0: tuple
    K: int
    horizon: int
    emit_curve: bool = False
    kind = "run"

    def argv(self):
        out = ["run", "--map", json.dumps(self.spec.to_json()), f"--y0={_vec(self.y0)}",
               "--K", str(self.K), "--horizon", str(self.horizon)]
        return out + (["--emit-curve"] if self.emit_curve else [])

    def check(self, out):
        return checks.check_run(self, out)

    @property
    def longest_orbit(self):
        return self.horizon + 1


@dataclass
class VerifyJob:
    spec: MapSpec
    y0: tuple
    K: int
    horizon: int
    kind = "verify"

    def argv(self):
        return ["verify", "--map", json.dumps(self.spec.to_json()), f"--y0={_vec(self.y0)}",
                "--K", str(self.K), "--horizon", str(self.horizon)]

    def check(self, out):
        return checks.check_verify(self, out)

    @property
    def longest_orbit(self):
        return self.horizon + 1


@dataclass
class LadderJob:
    spec: MapSpec
    y0: tuple
    Ks: tuple
    horizon: int
    window: int  # largest T'_j + lcm_j: length of the long orbit
    kind = "ladder"

    def argv(self):
        return ["ladder", "--map", json.dumps(self.spec.to_json()), f"--y0={_vec(self.y0)}",
                "--Ks", ",".join(map(str, self.Ks)), "--horizon", str(self.horizon)]

    def check(self, out):
        return checks.check_ladder(self, out)

    @property
    def longest_orbit(self):
        return max(self.window, self.horizon) + 1


@dataclass
class ARJob:
    p: tuple
    z0: tuple
    path: str
    horizon: int = 200
    kind = "ar"

    def argv(self):
        return ["ar", "--spec", self.path, "--horizon", str(self.horizon)]

    def check(self, out):
        return checks.check_ar(self, out)

    longest_orbit = 0


@dataclass
class CensusJob:
    d: int
    K: int
    n: int
    seed: int
    generator: str
    kind = "census"

    def argv(self):
        return ["census", "--d", str(self.d), "--K", str(self.K), "--n", str(self.n),
                "--seed", str(self.seed), "--generator", self.generator]

    def check(self, out):
        return checks.check_census(self, out)

    @property
    def longest_orbit(self):
        return 10 * (self.K + 1) ** self.d + 1 if self.generator == "random_ar" else 0


@dataclass
class ValidateJob:
    spec: MapSpec
    inside: bool
    samples: int = 256
    kind = "validate"

    def argv(self):
        return ["validate-map", "--map", json.dumps(self.spec.to_json()),
                "--samples", str(self.samples)]

    def check(self, out):
        return checks.check_validate(self, out)

    longest_orbit = 0


# ------------------------------------------------------------ map draws


def _r(x: float) -> float:
    return round(float(x), 4)


def damped_ar(rng, gamma_max=math.inf) -> MapSpec:
    """A slowly decaying 2-d spiral z(t) = 2r cos(phi) z(t-1) - r^2 z(t-2)."""
    while True:
        r, phi = rng.uniform(0.97, 0.998), rng.uniform(0.2, 2.9)
        spec = MapSpec("ar", (round(2 * r * math.cos(phi), 6), round(-r * r, 6)))
        if spec.gamma() <= gamma_max:
            return spec


def rotation(theta: float) -> MapSpec:
    """z(t) = 2cos(theta) z(t-1) - z(t-2); z(t) = r cos(theta t) from y0 below."""
    return MapSpec("ar", (2.0 * math.cos(theta), -1.0))


def contracting_expr(rng) -> MapSpec:
    a = _r(rng.uniform(0.2, 0.6))
    return MapSpec("expr", (a, _r(rng.uniform(0.3, (1.0 - a) / math.sin(1.0) - 1e-3))))


def contracting_delay(rng) -> MapSpec:
    a, b = _r(rng.uniform(0.2, 0.5)), _r(rng.uniform(0.1, 0.3))
    return MapSpec("delay", (a, b, _r(rng.uniform(0.1, (1.0 - a - b) / math.sin(1.0) - 1e-3))))


def start_point(rng, spec: MapSpec, horizon: int) -> tuple:
    """A y0 whose orbit stays inside the box; ar orbits are rescaled to peak at 0.95."""
    y0 = rng.uniform(-0.9, 0.9, spec.d)
    if spec.kind == "ar":
        y0 = y0 * (0.95 / float(np.max(np.abs(checks.orbit(spec, tuple(y0), horizon)))))
    return tuple(float(v) for v in y0)


def screened_chain(spec, y0, K, horizon):
    """(T, L) walk of the first-occurrence chain, or None if it dangles."""
    try:
        return checks.shadow_walk(checks.orbit(spec, y0, horizon), K)[1]
    except checks.Dangling:
        return None


def interleave(*lists):
    """Round-robin merge: one job of each kind in turn."""
    out = []
    for i in range(max(len(x) for x in lists)):
        out += [x[i] for x in lists if i < len(x)]
    return out


# ------------------------------------------------------------ workloads

LADDER_KS = (96, 128, 160, 192, 256, 320, 384, 512, 640, 768)


def long_orbit(rng, files: str):
    """Long horizons, short chain periods: orbit, quantizer, table, chain, CSV."""
    families = (damped_ar, contracting_expr, contracting_delay)
    runs, verifies = [], []
    for i in range(16):
        K = (64, 256, 1024, 4096)[i % 4]
        horizon = (8_000, 10_000, 12_000, 14_000)[i // 4]
        while True:
            spec = families[i % 3](rng)
            y0 = start_point(rng, spec, horizon)
            walk = screened_chain(spec, y0, K, horizon)
            if walk is not None and walk.L <= 64:
                break
        runs.append(RunJob(spec, y0, K, horizon))
    for i in range(4):
        # gamma^t and gamma^-t must stay inside the float range over the
        # horizon (verify_error_bound raises OverflowError otherwise).
        K = (128, 512, 2048, 256)[i]
        family = families[i % 3]
        while True:
            spec = damped_ar(rng, gamma_max=1.3) if family is damped_ar else family(rng)
            y0 = start_point(rng, spec, 2000)
            if screened_chain(spec, y0, K, 2000) is not None:
                break
        verifies.append(VerifyJob(spec, y0, K, 2000))
    return interleave(*(runs[k::4] for k in range(4)), verifies)


def ladder_fits(spec, y0, horizon):
    """{lcm-window total: (Ks, window)} over the 3-level ladders of one orbit."""
    Y = checks.orbit(spec, y0, horizon)
    walks = {}
    for K in LADDER_KS:
        try:
            walks[K] = checks.shadow_walk(Y, K)[1]
        except checks.Dangling:
            pass
    log_gamma = math.log(spec.gamma())
    fits = {}
    for Ks in itertools.combinations(sorted(walks), 3):
        Ts, Ls = [walks[K].T for K in Ks], [walks[K].L for K in Ks]
        Tp = checks.lcm_plan(Ts, Ls)
        lcms = [math.lcm(Ls[j], Ls[j + 1]) for j in range(2)]
        if max(Tp[j + 1] + lcms[j] for j in range(2)) * log_gamma <= 600:
            fits.setdefault(sum(lcms), (Ks, max(Tp[j] + lcms[j] for j in range(2))))
    return fits


def _near(value, target):
    return abs(value - target) <= 0.05 * target


def ladder_period(rng, files: str):
    """Rotations whose chains have long periods: lcm windows and trig fits.

    Every slot has its own band (+-5%) of lcm-window total or of chain
    period, so the pool costs about the same on every seed.
    """
    horizon = 3000
    ladder_slots = [8000, 10_000, 12_000, 14_000, 16_000] * 2
    ladders = [None] * len(ladder_slots)
    while None in ladders:
        # Rotations near a quarter turn: the companion norm gamma is close
        # to 1, so gamma^(T' + lcm) in the ladder's summability terms stays
        # inside the float range (the CLI raises OverflowError otherwise).
        theta = math.pi / 2 + rng.choice([-1.0, 1.0]) * rng.uniform(0.003, 0.06)
        r = rng.uniform(0.5, 0.95)
        y0 = (r, r * math.cos(theta))
        fits = ladder_fits(rotation(theta), y0, horizon)
        for slot, target in enumerate(ladder_slots):
            match = [total for total in fits if _near(total, target)]
            if ladders[slot] is None and match:
                Ks, window = fits[match[int(rng.integers(len(match)))]]
                ladders[slot] = LadderJob(rotation(theta), y0, Ks, horizon, window)
                break
    curve_slots = [(1024, 900), (2048, 1200), (4096, 1500)] * 3 + [(2048, 900)]
    curves = [None] * len(curve_slots)
    while None in curves:
        theta = rng.uniform(0.3, 2.8)
        r = rng.uniform(0.5, 0.95)
        y0 = (r, r * math.cos(theta))
        Y = checks.orbit(rotation(theta), y0, horizon)
        for slot, (K, target) in enumerate(curve_slots):
            if curves[slot] is not None:
                continue
            try:
                walk = checks.shadow_walk(Y, K)[1]
            except checks.Dangling:
                continue
            if _near(walk.L, target):
                curves[slot] = RunJob(rotation(theta), y0, K, horizon, emit_curve=True)
                break
    return interleave(ladders, curves)


def bounded_recurrence(rng, order: int, unit_pairs: int, unit_real: bool):
    """(p, z0) of a bounded recurrence with simple, well separated roots.

    Unit-circle roots are conjugate pairs, plus -1 when `unit_real`; the
    decaying roots are real and carry positive coefficients, so that
    |z - ap| <= |R(0)| rho^t holds and the program's test is right here.
    """
    phis = np.sort(rng.uniform(0.25, math.pi - 0.25, unit_pairs))
    while unit_pairs > 1 and np.min(np.diff(phis)) < 0.3:
        phis = np.sort(rng.uniform(0.25, math.pi - 0.25, unit_pairs))
    roots, coeffs = [], []
    for phi in phis:
        c = complex(*rng.uniform(-0.5, 0.5, 2))
        roots += [complex(math.cos(phi), math.sin(phi)), complex(math.cos(phi), -math.sin(phi))]
        coeffs += [c, c.conjugate()]
    if unit_real:
        roots.append(-1.0 + 0j)
        coeffs.append(complex(rng.uniform(0.1, 0.5)))
    n_decay = order - len(roots)
    roots += [complex(mu) for mu in np.linspace(-0.8, 0.85, n_decay) + rng.uniform(-0.04, 0.04, n_decay)]
    coeffs += [complex(c) for c in rng.uniform(0.1, 1.0, n_decay)]
    mu, a = np.array(roots), np.array(coeffs)
    init = np.array([(a * mu ** float(-t)).sum().real for t in range(order)])
    p = tuple(float(-c) for c in np.real(np.poly(mu))[1:])
    return p, tuple(float(v) for v in init / (1.05 * np.max(np.abs(init))))


def small_jobs(rng, files: str):
    """Many small commands: fixed per-call cost, roots, solves, census."""
    ars = []
    shapes = ((2, 1, False), (3, 0, False), (4, 1, False), (5, 2, False),
              (6, 0, False), (8, 2, True), (10, 3, True), (12, 3, True))
    for i, (order, pairs, unit_real) in enumerate(shapes):
        p, z0 = bounded_recurrence(rng, order, pairs, unit_real)
        ars.append(ARJob(p, z0, _spec_file(files, f"ar{i}", p, z0)))
    # Fixed inputs that show two faults of the program on every round:
    # roots +-0.5 with coefficients +-0.2 make R(0) = 0, so the
    # |R(0)| rho^t test fails an exact decomposition; roots 0.5 and 0.502
    # lie inside the root finder's merge radius.
    fault_a = ((0.0, 0.25), (0.0, 0.8))
    fault_b = (tuple(float(-c) for c in np.poly([0.5, 0.502, -0.3])[1:]), (0.5, 0.2, -0.1))
    for name, (p, z0) in (("fault_a", fault_a), ("fault_b", fault_b)):
        ars.append(ARJob(p, z0, _spec_file(files, name, p, z0)))
    census = [CensusJob(2, 5, 200, int(rng.integers(1 << 30)), "random_map"),
              CensusJob(3, 3, 100, int(rng.integers(1 << 30)), "random_map"),
              CensusJob(2, 3, 20, int(rng.integers(1 << 30)), "random_ar"),
              CensusJob(2, 3, 20, int(rng.integers(1 << 30)), "random_ar")]
    validates = [ValidateJob(contracting_expr(rng), True),
                 ValidateJob(MapSpec("ar", tuple(_r(v) for v in rng.uniform(0.1, 0.3, 3))), True),
                 ValidateJob(MapSpec("ar", (_r(rng.uniform(1.1, 1.5)),)), False),
                 ValidateJob(MapSpec("ar", tuple(_r(v) for v in rng.uniform(0.55, 0.75, 2))), False)]
    pipelines = []
    for i, family in enumerate((damped_ar, contracting_expr, contracting_delay) * 2):
        horizon = (200, 350, 500)[i % 3]
        K = (16, 64, 256)[i % 3]
        while True:
            spec = family(rng)
            y0 = start_point(rng, spec, horizon)
            if screened_chain(spec, y0, K, horizon) is not None:
                break
        job = RunJob if i < 3 else VerifyJob
        pipelines.append(job(spec, y0, K, horizon))
    return interleave(ars[:5], ars[5:], census, validates, pipelines)


def _spec_file(files: str, name: str, p, z0) -> str:
    path = os.path.join(files, f"{name}.json")
    with open(path, "w") as fh:
        json.dump({"p": list(p), "z0": list(z0)}, fh)
    return path


WORKLOADS = {"long_orbit": long_orbit, "ladder_period": ladder_period, "small_jobs": small_jobs}
