"""Independent checks of the artifacts that the aporbit CLI writes.

Every check recomputes what an artifact claims from the inputs the
benchmark generated, with code written here (vectorised numpy, exact
rationals at quantization ties) or from properties the method must have.
The code under test is called in one place only: the ladder check takes
its chains from `run_pipeline`, as the sup it checks is defined over
those chains, and cross-checks their (T, L) against the walk below.

A check raises `CheckFailed` when an artifact is wrong, and `KnownFault`
when it shows one of the program's named faults (counted as a failed
operation, not as a wrong answer).  On success it returns the number of
orbit samples the job produced.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Tolerances: values written as shortest round-trip decimals, maps kept
# inside the box, so only last-digit rounding separates two computations.
STEP_TOL = 1e-12     # one map step, recomputed
TRIG_TOL = 1e-9      # trig form against the chain it represents
AR_TOL = 1e-9        # closed form against the recursion, relative
ROOT_TOL = 1e-7      # characteristic roots against np.roots, relative
SLACK = 1e-9         # additive slack the program's convergence test uses


class CheckFailed(Exception):
    """An artifact disagrees with the independent computation."""


class KnownFault(Exception):
    """An artifact shows a named fault of the program."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


# ----------------------------------------------------------------- maps


@dataclass(frozen=True)
class MapSpec:
    """A map as the benchmark generates it.

    kind "ar":    p = params, first coordinate sum p_l x_l, rest shifted.
    kind "expr":  (a, b): x1' = a*x1 - b*sin(x2), x2' = x1.
    kind "delay": (a, b, c): x1' = a*x1 - b*x3 + c*sin(x2), rest shifted.
    `step` follows the program's operation order, so orbits agree to the
    bit; `apply` is the vectorised form used for one-step checks.
    """

    kind: str
    params: tuple

    @property
    def d(self) -> int:
        return {"ar": len(self.params), "expr": 2, "delay": 3}[self.kind]

    def to_json(self) -> dict:
        if self.kind == "ar":
            return {"kind": "ar", "d": self.d, "p": list(self.params)}
        if self.kind == "expr":
            a, b = self.params
            return {"kind": "expr", "d": 2, "exprs": [f"{a!r}*x1 - {b!r}*sin(x2)", "x1"]}
        a, b, c = self.params
        return {"kind": "delay", "d": 3, "expr": f"{a!r}*x1 - {b!r}*x3 + {c!r}*sin(x2)"}

    def step(self, y: tuple) -> tuple:
        if self.kind == "ar":
            z = 0.0
            for p, c in zip(self.params, y):
                z += p * c
            return (z,) + y[:-1]
        if self.kind == "expr":
            a, b = self.params
            return (a * y[0] - b * math.sin(y[1]), y[0])
        a, b, c = self.params
        return (a * y[0] - b * y[2] + c * math.sin(y[1]), y[0], y[1])

    def apply(self, Y: np.ndarray) -> np.ndarray:
        out = np.empty_like(Y)
        out[:, 1:] = Y[:, :-1]
        if self.kind == "ar":
            out[:, 0] = Y @ np.asarray(self.params)
        elif self.kind == "expr":
            a, b = self.params
            out[:, 0] = a * Y[:, 0] - b * np.sin(Y[:, 1])
        else:
            a, b, c = self.params
            out[:, 0] = a * Y[:, 0] - b * Y[:, 2] + c * np.sin(Y[:, 1])
        return out

    def gamma(self) -> float:
        """Spectral norm of the companion matrix (ar maps only)."""
        d = self.d
        C = np.zeros((d, d))
        C[0] = self.params
        C[np.arange(1, d), np.arange(d - 1)] = 1.0
        return float(np.linalg.svd(C, compute_uv=False)[0])


def orbit(spec: MapSpec, y0, horizon: int) -> np.ndarray:
    """y(0)..y(horizon), shape (horizon+1, d)."""
    if spec.kind == "ar":
        # z(t) in the program's summation order; row t is (z(t), ..., z(t-d+1)).
        d, p = spec.d, spec.params
        z = [float(v) for v in reversed(y0)]
        for _ in range(horizon):
            acc = 0.0
            for l in range(d):
                acc += p[l] * z[-1 - l]
            z.append(acc)
        z = np.array(z)
        return np.stack([z[d - 1 - j:d - 1 - j + horizon + 1] for j in range(d)], axis=1)
    y = tuple(float(v) for v in y0)
    out = [y]
    step = spec.step
    for _ in range(horizon):
        y = step(y)
        out.append(y)
    return np.array(out)


# ------------------------------------------------ grid, shadow and chain


def _nearest_exact(y: float, K: int) -> int:
    # Exact nearest node a_k = 2k/K - 1 in rationals; a tie goes up.
    yq = Fraction(y)
    k0 = math.floor((yq + 1) * K / 2)
    best = None
    for k in (k0, k0 + 1):
        if 0 <= k <= K:
            dist = abs(yq - (Fraction(2 * k, K) - 1))
            if best is None or dist <= best[0]:
                best = (dist, k)
    return best[1]


def nearest_nodes(Y: np.ndarray, K: int) -> np.ndarray:
    """Index of the nearest grid node per coordinate, exact midpoints up."""
    u = (Y + 1.0) * (K / 2.0)
    k = np.floor(u)
    idx = np.where(u - k >= 0.5, k + 1, k)
    for i, j in zip(*np.nonzero(np.abs(u - k - 0.5) < 1e-6)):
        idx[i, j] = _nearest_exact(float(Y[i, j]), K)
    return np.clip(idx, 0, K).astype(np.int64)


def node_values(idx: np.ndarray, K: int) -> np.ndarray:
    return 2.0 * idx / K - 1.0


def encode(idx: np.ndarray, K: int) -> np.ndarray:
    codes = np.zeros(idx.shape[0], dtype=np.int64)
    for j in range(idx.shape[1]):
        codes = codes * (K + 1) + idx[:, j]
    return codes


def decode(codes: np.ndarray, K: int, d: int) -> np.ndarray:
    out = np.empty((len(codes), d), dtype=np.int64)
    rest = np.asarray(codes, dtype=np.int64)
    for j in range(d - 1, -1, -1):
        out[:, j] = rest % (K + 1)
        rest = rest // (K + 1)
    return out


@dataclass
class Walk:
    seq: np.ndarray   # distinct chain codes y*(0..T+L-1)
    T: int
    L: int
    states: int       # distinct shadow states with an outgoing observation
    conflicts: int    # later occurrences whose successor disagrees

    def at(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=np.int64)
        pos = np.where(ts < len(self.seq), ts, self.T + (ts - self.T) % self.L)
        return self.seq[pos]


class Dangling(Exception):
    """The first-occurrence chain reaches a state with no successor."""


def walk_chain(codes: np.ndarray) -> Walk:
    """First-occurrence transition table of a shadow, run from codes[0]."""
    uniq, first, inverse = np.unique(codes[:-1], return_index=True, return_inverse=True)
    succ = codes[first + 1]
    conflicts = int(np.count_nonzero(succ[inverse] != codes[1:]))
    table = dict(zip(uniq.tolist(), succ.tolist()))
    s = int(codes[0])
    pos = {s: 0}
    seq = [s]
    while True:
        if s not in table:
            raise Dangling(f"no successor for state {s} at t={len(seq) - 1}")
        s = table[s]
        if s in pos:
            T = pos[s]
            return Walk(np.array(seq, dtype=np.int64), T, len(seq) - T, len(uniq), conflicts)
        pos[s] = len(seq)
        seq.append(s)


def shadow_walk(Y: np.ndarray, K: int) -> tuple[np.ndarray, Walk]:
    codes = encode(nearest_nodes(Y, K), K)
    return codes, walk_chain(codes)


def lcm_plan(Ts, Ls) -> list[int]:
    """Smallest T' >= T, nondecreasing, with T'_{j+1} - T'_j a multiple of L_j."""
    out = [Ts[0]]
    for j in range(1, len(Ts)):
        low = max(Ts[j], out[-1])
        out.append(out[-1] + Ls[j - 1] * (-(-(low - out[-1]) // Ls[j - 1])))
    return out


# ------------------------------------------------------------ artifacts


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def read_csv(path: str, header) -> np.ndarray:
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        body = fh.read()
    require(first.split(",") == list(header), f"{os.path.basename(path)}: header {first!r}")
    rows = body.count("\n")
    values = np.array(body.replace("\n", ",").split(",")[:-1], dtype=float)
    require(values.size == rows * len(header), f"{os.path.basename(path)}: ragged rows")
    return values.reshape(rows, len(header))


def _close(a, b, tol, what):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    require(a.shape == b.shape, f"{what}: shape {a.shape} != {b.shape}")
    gap = float(np.max(np.abs(a - b))) if a.size else 0.0
    require(gap <= tol, f"{what}: off by {gap:.3e} (tolerance {tol:g})")


def trig_values(a: np.ndarray, b: np.ndarray, L: int) -> np.ndarray:
    """sum_m b_m cos(2 pi m t/L) + a_m sin(2 pi m t/L) at t = 0..L-1, by FFT."""
    spectrum = np.zeros((L, a.shape[1]), dtype=complex)
    spectrum[: a.shape[0]] = b - 1j * a
    return L * np.fft.ifft(spectrum, axis=0).real


def check_trig(trig: dict, walk: Walk, K: int, d: int):
    T, L = walk.T, walk.L
    require((trig["T"], trig["L"], trig["M"]) == (T, L, L // 2),
            f"trig.json: (T, L, M) = {(trig['T'], trig['L'], trig['M'])}")
    a = np.array(trig["a"], dtype=float).reshape(L // 2 + 1, d)
    b = np.array(trig["b"], dtype=float).reshape(L // 2 + 1, d)
    period = node_values(decode(walk.at(np.arange(T, T + L)), K, d), K)
    fitted = trig_values(a, b, L)[(T + np.arange(L)) % L]
    _close(fitted, period, TRIG_TOL, "trig.json: one period of ystar")
    weight = np.full(L // 2 + 1, 0.5)
    weight[0] = 1.0
    if L % 2 == 0:
        weight[L // 2] = 1.0
    energy = b[0] ** 2 + (weight[1:, None] * (a[1:] ** 2 + b[1:] ** 2)).sum(axis=0)
    _close(energy, (period ** 2).mean(axis=0), TRIG_TOL, "trig.json: Parseval")


def check_run(job, out: str) -> int:
    spec, y0, K, H = job.spec, job.y0, job.K, job.horizon
    d = spec.d
    cols = ([f"y_{i+1}" for i in range(d)] + [f"ybar_{i+1}" for i in range(d)]
            + [f"ystar_{i+1}" for i in range(d)])
    A = read_csv(os.path.join(out, "orbit.csv"), ["t"] + cols)
    require(A.shape[0] == H + 1, f"orbit.csv: {A.shape[0]} rows for horizon {H}")
    require(np.array_equal(A[:, 0], np.arange(H + 1)), "orbit.csv: t column")
    Y, YB, YS = A[:, 1:1 + d], A[:, 1 + d:1 + 2 * d], A[:, 1 + 2 * d:]
    require(tuple(Y[0]) == tuple(y0), "orbit.csv: y(0) is not y0")
    _close(spec.apply(Y[:-1]), Y[1:], STEP_TOL, "orbit.csv: y(t+1) = f(y(t))")
    idx = nearest_nodes(Y, K)
    require(np.array_equal(YB, node_values(idx, K)), "orbit.csv: ybar is not the nearest node")
    require(float(np.max(np.linalg.norm(Y - YB, axis=1))) <= math.sqrt(d) / K * (1 + 1e-12),
            "orbit.csv: ybar farther than sqrt(d)/K")
    codes = encode(idx, K)
    walk = walk_chain(codes)
    star = node_values(decode(walk.at(np.arange(H + 1)), K, d), K)
    require(np.array_equal(YS, star), "orbit.csv: ystar breaks the first-occurrence rule")
    chain = read_json(os.path.join(out, "chain.json"))
    got = (chain["K"], chain["d"], chain["T"], chain["L"], chain["N"], chain["conflicts"])
    want = (K, d, walk.T, walk.L, walk.states, walk.conflicts)
    require(got == want, f"chain.json: (K, d, T, L, N, conflicts) = {got}, expected {want}")
    sp = chain["shadow_periodic"]
    if sp is not None:
        Ts, Ls = sp
        tail = codes[max(0, len(codes) - 8192):]
        off = len(codes) - len(tail)
        require(Ls >= 1 and Ts >= off and Ts - off + 2 * Ls <= len(tail)
                and np.array_equal(codes[Ts + Ls:], codes[Ts:-Ls]),
                f"chain.json: shadow_periodic {sp} does not hold")
    check_trig(read_json(os.path.join(out, "trig.json")), walk, K, d)
    if job.emit_curve:
        T, L = walk.T, walk.L
        C = read_csv(os.path.join(out, "trig_curve.csv"), ["t"] + [f"v_{i+1}" for i in range(d)])
        ts = np.arange(T, T + 3 * L + 1)
        require(np.array_equal(C[:, 0], ts), "trig_curve.csv: t column")
        _close(C[:, 1:], node_values(decode(walk.at(ts), K, d), K), TRIG_TOL,
               "trig_curve.csv: against ystar")
    return H + 1


def geometric_bound(gamma: float, d: int, K: int, horizon: int) -> np.ndarray:
    """(2 * sum_{s=1..t} gamma^s + 1) * sqrt(d)/K for t = 0..horizon."""
    with np.errstate(over="ignore"):
        powers = gamma ** np.arange(1, horizon + 1, dtype=float)
    sums = np.concatenate([[0.0], np.cumsum(powers)])
    return (2.0 * sums + 1.0) * math.sqrt(d) / K


def check_verify(job, out: str) -> int:
    spec, K, H = job.spec, job.K, job.horizon
    d = spec.d
    rep = read_json(os.path.join(out, "verify.json"))
    Y = orbit(spec, job.y0, H)
    walk = shadow_walk(Y, K)[1]
    star = node_values(decode(walk.at(np.arange(H + 1)), K, d), K)
    actual = np.linalg.norm(star - Y, axis=1)
    V = read_csv(os.path.join(out, "verify.csv"), ["t", "actual", "bound"])
    require(np.array_equal(V[:, 0], np.arange(H + 1)), "verify.csv: t column")
    _close(V[:, 1], actual, STEP_TOL, "verify.csv: actual")
    gamma = rep["gamma"]
    if spec.kind == "ar":
        require(rep["gamma_method"] == "analytic", "verify.json: ar map without analytic gamma")
        _close(gamma, spec.gamma(), 1e-12 * spec.gamma(), "verify.json: companion norm")
    else:
        require(rep["gamma_method"] == "sampled" and gamma > 0, "verify.json: gamma")
    bound = geometric_bound(gamma, d, K, H)
    require(np.allclose(V[:, 2], bound, rtol=1e-9, atol=0), "verify.csv: bound")
    worst = float(np.max(V[:, 1] / V[:, 2]))
    _close(rep["worst_ratio"], worst, 1e-12 * max(worst, 1.0), "verify.json: worst_ratio")
    require(rep["passed"] == (worst <= 1.0 + 1e-12), "verify.json: passed flag")
    if spec.kind == "ar":
        require(rep["passed"], "verify.json: the geometric-sum bound failed for an ar map")
    got = (rep["K"], rep["d"], rep["horizon"], rep["T"], rep["L"], rep["conflicts"])
    want = (K, d, H, walk.T, walk.L, walk.conflicts)
    require(got == want, f"verify.json: (K, d, horizon, T, L, conflicts) = {got}, expected {want}")
    return H + 1


def _chain_values(chain, ts: np.ndarray) -> np.ndarray:
    # Decoded states of a ChainResult at times ts, vectorised over its seq.
    K = chain.grid.K
    seq = node_values(np.array([s.indices for s in chain.seq], dtype=np.int64), K)
    T, L = chain.pre_period, chain.period
    return seq[np.where(ts < len(seq), ts, T + (ts - T) % L)]


def check_ladder(job, out: str) -> int:
    import aporbit

    spec, H, Ks = job.spec, job.horizon, list(job.Ks)
    d = spec.d
    rep = read_json(os.path.join(out, "ladder.json"))
    plan = rep["plan"]
    Y = orbit(spec, job.y0, H)
    walks = [shadow_walk(Y, K)[1] for K in Ks]
    Ts, Ls = [w.T for w in walks], [w.L for w in walks]
    require(plan["Ks"] == Ks and plan["T"] == Ts and plan["L"] == Ls,
            f"ladder.json: plan (T, L) = {plan['T']}, {plan['L']}, expected {Ts}, {Ls}")
    require(rep["conflicts"] == [w.conflicts for w in walks], "ladder.json: conflicts")
    Tp = plan["T_prime"]
    require(len(Tp) == len(Ks) and Tp[0] == Ts[0], "ladder.json: T'_1 must equal T_1")
    for j in range(len(Ks) - 1):
        low = max(Ts[j + 1], Tp[j])
        require(Tp[j + 1] >= low, f"ladder.json: T'_{j+2} below max(T, T'_{j+1})")
        require((Tp[j + 1] - Tp[j]) % Ls[j] == 0, f"ladder.json: T'_{j+2} - T'_{j+1} not divisible by L")
        require(Tp[j + 1] - Ls[j] < low, f"ladder.json: T'_{j+2} not minimal")
    lcms = [math.lcm(Ls[j], Ls[j + 1]) for j in range(len(Ks) - 1)]
    require(plan["lcms"] == lcms, f"ladder.json: lcms {plan['lcms']}, expected {lcms}")

    y0 = aporbit.Point(job.y0)
    m = aporbit.map_from_json(spec.to_json())
    chains = [aporbit.run_pipeline(m, y0, aporbit.GridSpec(K=K, d=d), H)[3] for K in Ks]
    require([(c.pre_period, c.period) for c in chains] == list(zip(Ts, Ls)),
            "run_pipeline chains disagree with the first-occurrence walk")
    t_long = max(max(Tp[j] + lcms[j] for j in range(len(lcms))), H)
    Y_long = orbit(spec, job.y0, t_long)
    chain_sups, orbit_sups = [], []
    for j, w in enumerate(lcms):
        ts = Tp[j + 1] + np.arange(w + 1)
        diff = _chain_values(chains[j + 1], ts) - _chain_values(chains[j], ts)
        chain_sups.append(float(np.max(np.linalg.norm(diff, axis=1))))
        ts = Tp[j] + np.arange(w + 1)
        diff = _chain_values(chains[j], ts) - Y_long[ts]
        orbit_sups.append(float(np.max(np.linalg.norm(diff, axis=1))))
    _close(rep["chain_sups"], chain_sups, STEP_TOL, "ladder.json: chain_sups")
    _close(rep["orbit_sups"], orbit_sups, STEP_TOL, "ladder.json: orbit_sups")

    def nonincreasing(xs):
        return all(b <= a + 1e-15 for a, b in zip(xs, xs[1:]))

    tol = rep["tolerance"]
    consistent = bool(nonincreasing(rep["chain_sups"]) and nonincreasing(rep["orbit_sups"])
                      and rep["chain_sups"][-1] <= tol and rep["orbit_sups"][-1] <= tol)
    require(rep["consistent"] == consistent, "ladder.json: consistent flag")
    gamma = spec.gamma()
    _close(rep["gamma"]["gamma"], gamma, 1e-12 * gamma, "ladder.json: gamma")
    terms = [(2.0 * Tp[j + 1] + 2.0 * lcms[j] + 1.0) * gamma ** (Tp[j + 1] + lcms[j]) / Ks[j]
             for j in range(len(lcms))]
    cond = rep["condition"]
    require(np.allclose(cond["terms"], terms, rtol=1e-9, atol=0), "ladder.json: condition terms")
    require(np.allclose(cond["partial_sums"], np.cumsum(terms), rtol=1e-9, atol=0),
            "ladder.json: partial sums")
    require(cond["below_budget"] == all(s < cond["budget"] for s in cond["partial_sums"]),
            "ladder.json: below_budget flag")
    return len(Ks) * (H + 1) + t_long + 1


def recurrence(p, z0, horizon: int) -> np.ndarray:
    """z(0)..z(horizon) of z(t) = sum_l p_l z(t-l); z0 = (z(0), z(-1), ...)."""
    p = np.asarray(p, dtype=float)
    hist = np.array(z0, dtype=float)
    out = np.empty(horizon + 1)
    out[0] = hist[0]
    for t in range(1, horizon + 1):
        hist = np.concatenate([[p @ hist], hist[:-1]])
        out[t] = hist[0]
    return out


def _term_matrix(terms, ts: np.ndarray):
    """Columns t^k mu^t (transients: 1 at t = k), and the coefficient vector."""
    mu = np.array([complex(t["mu_re"], t["mu_im"]) for t in terms])
    k = np.array([t["power"] for t in terms])
    coeff = np.array([complex(t["coeff_re"], t["coeff_im"]) for t in terms])
    transient = np.array([t["kind"] == "transient" for t in terms])
    tt = ts[:, None].astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        basis = tt ** k * mu ** tt
    basis = np.where(transient, (ts[:, None] == k).astype(float), basis)
    return basis, coeff


def check_ar(job, out: str) -> int:
    p, z0, H = job.p, job.z0, job.horizon
    d = len(p)
    rep = read_json(os.path.join(out, "ar.json"))
    reported = []
    for r in rep["roots"]["roots"]:
        reported += [complex(r["re"], r["im"])] * r["multiplicity"]
    expected = list(np.roots(np.concatenate([[1.0], -np.asarray(p)])))
    require(len(reported) == d, f"ar.json: {len(reported)} roots for order {d}")
    for mu in reported:
        gaps = [abs(mu - e) for e in expected]
        i = int(np.argmin(gaps))
        require(gaps[i] <= ROOT_TOL * max(1.0, abs(mu)), f"ar.json: root {mu} not among np.roots")
        expected.pop(i)
    bounded = all(abs(mu) < 1 - 1e-9 or (abs(abs(mu) - 1) <= 1e-9 and reported.count(mu) == 1)
                  for mu in reported)
    require(rep["classification"] == ("bounded" if bounded else "unbounded"),
            "ar.json: classification")
    if not bounded:
        return 0
    terms = rep["decomposition"]["terms"]
    ts = np.arange(H + 1)
    basis, coeff = _term_matrix(terms, ts)
    z = recurrence(p, z0, H)
    scale = max(1.0, float(np.max(np.abs(z))))
    _close((basis @ coeff).real, z, AR_TOL * scale, "ar.json: closed form against the recursion")
    unit = np.array([t["kind"] == "unit" for t in terms])
    report = rep["report"]
    decay = [abs(complex(t["mu_re"], t["mu_im"])) for t in terms if t["kind"] == "decay"]
    _close(report["decay_radius"], max(decay, default=0.0), 1e-15, "ar.json: decay_radius")
    _close(report["closed_form_max_error"], 0.0, AR_TOL * scale, "ar.json: closed_form_max_error")
    if os.path.exists(os.path.join(out, "ar_curve.csv")):
        C = read_csv(os.path.join(out, "ar_curve.csv"), ["t", "z", "ap", "R"])
        _close(C[:, 1], z, AR_TOL * scale, "ar_curve.csv: z")
        _close(C[:, 2] + C[:, 3], z, AR_TOL * scale, "ar_curve.csv: ap + R")
        _close(C[:, 2], (basis[:, unit] @ coeff[unit]).real, AR_TOL * scale, "ar_curve.csv: ap")
    # The true bound on |z - ap| is sum_j |a_j| t^k |mu_j|^t over the
    # remaining terms; convergence_ok must say whether it holds.
    gap = np.abs(z - (basis[:, unit] @ coeff[unit]).real)
    true_bound = (np.abs(basis[:, ~unit]) @ np.abs(coeff[~unit])) + SLACK
    true_ok = bool(np.all(gap[d:] <= true_bound[d:]))
    if report["convergence_ok"] != true_ok:
        raise KnownFault(f"convergence_ok={report['convergence_ok']} but the bound "
                         f"sum |a_j| t^k |mu_j|^t {'holds' if true_ok else 'fails'}")
    return 0


def census_random_map(d: int, K: int, n: int, seed: int):
    """(T, L) pairs of the documented random_map census, drawn afresh."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        memo = {}
        state = tuple(int(i) for i in rng.integers(0, K + 1, d))
        seen = {state: 0}
        t = 0
        while True:
            if state not in memo:
                memo[state] = (int(rng.integers(0, K + 1)),) + state[:-1]
            state = memo[state]
            t += 1
            if state in seen:
                pairs.append((seen[state], t - seen[state]))
                break
            seen[state] = t
    return pairs


def check_census(job, out: str) -> int:
    d, K, n = job.d, job.K, job.n
    rep = read_json(os.path.join(out, "census.json"))
    C = read_csv(os.path.join(out, "census.csv"), ["sample_id", "T", "L"]).astype(np.int64)
    require(C.shape[0] == n and np.array_equal(C[:, 0], np.arange(n)), "census.csv: rows")
    Ts, Ls = C[:, 1], C[:, 2]
    require(np.all(Ts >= 0) and np.all(Ls >= 1) and np.all(Ts + Ls <= (K + 1) ** d),
            "census.csv: (T, L) outside 1 <= L, T + L <= (K+1)^d")
    hist = {int(k): v for k, v in rep["histogram_L"].items()}
    require(sum(hist.values()) == n and hist == dict(Counter(Ls.tolist())),
            "census.json: histogram_L")
    got = (rep["d"], rep["K"], rep["ensemble"], rep["seed"], rep["generator"], rep["state_count"],
           rep["max_L"])
    want = (d, K, n, job.seed, job.generator, (K + 1) ** d, int(Ls.max()))
    require(got == want, f"census.json: header fields {got}, expected {want}")
    _close([rep["mean_L"], rep["mean_T"], rep["median_L"]],
           [Ls.mean(), Ts.mean(), float(np.median(Ls))], 1e-12 * max(1.0, float(Ls.max())),
           "census.json: statistics")
    if job.generator == "random_map":
        require([tuple(r) for r in C[:, 1:].tolist()] == census_random_map(d, K, n, job.seed),
                "census.csv: pairs differ from a fresh draw of the random_map ensemble")
        return 0
    horizon = 10 * (K + 1) ** d
    return (n + rep["redraws"]) * (horizon + 1)


def check_validate(job, out: str) -> int:
    rep = read_json(os.path.join(out, "validate.json"))
    d = job.spec.d
    corners = np.array([[1.0 if (i >> a) & 1 else -1.0 for a in range(d)] for i in range(2 ** d)])
    corner_overshoot = float(np.max(np.abs(job.spec.apply(corners)))) - 1.0
    require(rep["points_checked"] == 2 ** d + 1 + job.samples, "validate.json: points_checked")
    require(rep["passed"] == job.inside, f"validate.json: passed={rep['passed']} for "
            f"{'a box' if job.inside else 'an overshooting'} map")
    if job.inside:
        require(rep["max_overshoot"] == 0.0, "validate.json: overshoot for a box map")
    else:
        require(rep["max_overshoot"] >= corner_overshoot - 1e-12,
                "validate.json: max_overshoot below the corner overshoot")
    return 0


def artifact_digest(out: str) -> tuple:
    """(name, bytes) of every artifact; identical inputs give identical files."""
    names = sorted(os.listdir(out))
    digest = []
    for name in names:
        with open(os.path.join(out, name), "rb") as fh:
            digest.append((name, hashlib.sha1(fh.read()).hexdigest()))
    return tuple(digest)
