"""Certified error bound for the chain approximation, and the machinery
for comparing chains across an increasing ladder of grid resolutions:
pre-period re-selection with divisibility, lcm windows, the summability
condition on ladder terms, and sup-difference diagnostics.

Every comparison of a chain with the true orbit or with another chain
takes its distances from one walker, `_distances`, which works in blocks
of SUP_BLOCK steps: no chain-value, position or difference array is
longer than one block (about 40 B a step at d = 2), however long the lcm
window, and each distance is the plain sum of squares
(`np.linalg.norm(axis=1)`), with no BLAS call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import GridSpec, Point
from .errors import DimensionMismatch, Overflow
from .maps import LipschitzEstimate, MapDefinition, estimate_lipschitz
from .orbit import ChainResult, generate_orbit, run_pipeline, shadow_periodicity

_LCM_LIMIT = 2 ** 63 - 1

# Steps per block of every chain distance walk: small enough that a
# ladder's peak is its orbits, not its lcm window, and no slower than
# larger blocks.
SUP_BLOCK = 2 ** 11


def _distances(chain: ChainResult, other, lo: int, hi: int):
    """|chain(t) - other(t)| for t = lo..hi, one block of at most SUP_BLOCK
    steps at a time; `other` is a second chain or an orbit's values array."""
    for a in range(lo, hi + 1, SUP_BLOCK):
        b = min(a + SUP_BLOCK, hi + 1) - 1
        theirs = other[a : b + 1] if isinstance(other, np.ndarray) else other.values(a, b)
        diff = chain.values(a, b)  # a new array, taken over in place
        diff -= theirs
        diff *= diff
        dist = diff.sum(axis=1)
        del theirs, diff  # not held while the caller reads the block
        yield np.sqrt(dist, out=dist)  # the bits of np.linalg.norm(chain - theirs, axis=1)


def _sup(chain: ChainResult, other, lo: int, hi: int) -> float:
    return float(max(np.max(block) for block in _distances(chain, other, lo, hi)))


def bounds_for_horizon(gamma: float, d: int, K: int, horizon: int) -> np.ndarray:
    """Certified bounds on |y*(t) - y(t)| for t = 0..horizon:

        (2 * sum_{s=1..t} gamma^s + 1) * sqrt(d)/K,

    by the incremental raw geometric sum, which stays valid at gamma = 1
    where the closed form is singular, and gives inf once it passes the
    float range.  gamma = 0 is a constant map's Lipschitz constant.
    """
    if horizon < 0 or K < 1 or d < 1 or not gamma >= 0:
        raise ValueError("need horizon >= 0, gamma >= 0, d >= 1, K >= 1")
    out = np.empty(horizon + 1)
    powsum = 0.0
    scale = math.sqrt(d) / K
    out[0] = scale
    for t in range(1, horizon + 1):
        powsum = gamma * (powsum + 1.0)
        out[t] = (2.0 * powsum + 1.0) * scale
    return out


@dataclass(frozen=True, eq=False)
class BoundReport:
    K: int
    d: int
    gamma: float
    gamma_method: str
    horizon: int
    actual: np.ndarray = field(repr=False)
    bound: np.ndarray = field(repr=False)
    worst_ratio: float
    passed: bool
    conflicts: int
    pre_period: int
    period: int
    # the last t at which the bound is finite, when it overflows to inf
    # within the horizon: `passed` says nothing of the steps after it
    last_finite_t: int | None = None

    @property
    def gamma_is_lower_bound(self) -> bool:
        return self.gamma_method == "sampled"

    def to_json(self):
        out = {
            "K": self.K,
            "d": self.d,
            "gamma": self.gamma,
            "gamma_method": self.gamma_method,
            "horizon": self.horizon,
            "worst_ratio": self.worst_ratio,
            "passed": self.passed,
            "conflicts": self.conflicts,
            "T": self.pre_period,
            "L": self.period,
        }
        if self.last_finite_t is not None:
            out["last_finite_t"] = self.last_finite_t
        if self.gamma_is_lower_bound:
            out["caveat"] = (
                "gamma is a sampled lower bound; a true-bound violation "
                "cannot be certified from it"
            )
        return out


def verify_error_bound(
    m: MapDefinition,
    y0: Point,
    K: int,
    horizon: int,
    lipschitz: LipschitzEstimate | None = None,
) -> BoundReport:
    """Run the full pipeline and compare |y*(t) - y(t)| with the bound.

    Uses the analytic Lipschitz constant when available, else a sampled
    lower bound (flagged, since it can produce false violations).  A bound
    that overflows to inf within the horizon certifies nothing from then
    on: the report names the last t at which it is finite, and `passed`
    covers only the steps up to that t.
    """
    if lipschitz is None:
        lipschitz = estimate_lipschitz(m)
    g = GridSpec(K=K, d=m.d)
    orbit, _, table, chain = run_pipeline(m, y0, g, horizon)
    # The distances fill one array, and the ratio to the bound is taken a
    # block at a time: the largest of the blocks' largest ratios (NaN if
    # any is) is the largest ratio.
    actual = np.empty(horizon + 1)
    blocks = range(0, horizon + 1, SUP_BLOCK)
    for a, dist in zip(blocks, _distances(chain, orbit.values, 0, horizon)):
        actual[a : a + SUP_BLOCK] = dist
    bound = bounds_for_horizon(lipschitz.gamma, m.d, K, horizon)
    worst = float(np.max([np.max(actual[a : a + SUP_BLOCK] / bound[a : a + SUP_BLOCK])
                          for a in blocks]))
    # the bound does not decrease, so its finite entries come first
    finite = int(np.count_nonzero(np.isfinite(bound)))
    return BoundReport(
        K=K,
        d=m.d,
        gamma=lipschitz.gamma,
        gamma_method=lipschitz.method,
        horizon=horizon,
        actual=actual,
        bound=bound,
        worst_ratio=worst,
        passed=bool(worst <= 1.0 + 1e-12),
        conflicts=len(table.conflicts),
        pre_period=chain.pre_period,
        period=chain.period,
        last_finite_t=finite - 1 if finite <= horizon else None,
    )


def lcm_periods(L: int, Lp: int) -> int:
    """Exact least common multiple of two periods."""
    if L < 1 or Lp < 1:
        raise ValueError("periods must be >= 1")
    out = math.lcm(L, Lp)
    if out > _LCM_LIMIT:
        raise Overflow(f"lcm({L}, {Lp}) exceeds {_LCM_LIMIT}")
    return out


def reselect_T(T_list, L_list) -> list[int]:
    """Smallest nondecreasing T' >= T with T'_{j+1} - T'_j divisible by L_j.

    Greedy forward pass; the result dominates the input componentwise and
    is minimal among admissible re-selections.
    """
    T_list = [int(t) for t in T_list]
    L_list = [int(l) for l in L_list]
    if len(T_list) != len(L_list):
        raise ValueError("T and L lists must have the same length")
    if any(t < 0 for t in T_list) or any(l < 1 for l in L_list):
        raise ValueError("need T >= 0 and L >= 1")
    if not T_list:
        return []
    out = [T_list[0]]
    for j in range(1, len(T_list)):
        L = L_list[j - 1]
        need = max(0, T_list[j] - out[-1])
        out.append(out[-1] + L * ((need + L - 1) // L))
    return out


def check_resolutions(Ks) -> None:
    """A ladder's resolutions must all be >= 1 and strictly increasing."""
    if any(k < 1 for k in Ks) or any(b <= a for a, b in zip(Ks, Ks[1:])):
        raise ValueError(f"resolutions must be >= 1 and strictly increasing, got {list(Ks)}")


@dataclass(frozen=True)
class LadderPlan:
    """Per-level data for an increasing resolution ladder K_1 < K_2 < ..."""

    Ks: tuple[int, ...]
    T_raw: tuple[int, ...]
    L: tuple[int, ...]
    T_prime: tuple[int, ...]
    lcms: tuple[int, ...]  # lcm(L_j, L_{j+1}) for consecutive levels

    def __post_init__(self):
        check_resolutions(self.Ks)

    def to_json(self):
        return {
            "Ks": list(self.Ks),
            "T": list(self.T_raw),
            "L": list(self.L),
            "T_prime": list(self.T_prime),
            "lcms": list(self.lcms),
        }


def build_ladder_plan(Ks, Ts, Ls) -> LadderPlan:
    Ks = tuple(int(k) for k in Ks)
    Ts = tuple(int(t) for t in Ts)
    Ls = tuple(int(l) for l in Ls)
    T_prime = tuple(reselect_T(Ts, Ls))
    lcms = tuple(lcm_periods(Ls[j], Ls[j + 1]) for j in range(len(Ls) - 1))
    return LadderPlan(Ks=Ks, T_raw=Ts, L=Ls, T_prime=T_prime, lcms=lcms)


@dataclass(frozen=True)
class ConditionReport:
    """Finite evidence about the ladder summability condition.

    The condition is inherently asymptotic, so the verdict is always
    diagnostic: terms, partial sums and growth ratios are reported, never
    a claim that the condition holds.
    """

    terms: tuple[float, ...]
    partial_sums: tuple[float, ...]
    growth_ratios: tuple[float | None, ...]
    budget: float
    below_budget: bool
    note: str = "condition not decidable from finitely many terms"

    def to_json(self):
        return {
            "terms": list(self.terms),
            "partial_sums": list(self.partial_sums),
            "growth_ratios": list(self.growth_ratios),
            "budget": self.budget,
            "below_budget": self.below_budget,
            "note": self.note,
        }


def condition_term(T_next: int, lcm_value: int, K: int, gamma: float) -> float:
    """One ladder term: (2*T' + 2*lcm + 1) * gamma^(T' + lcm) / K; inf when
    the power overflows the float range."""
    try:
        power = gamma ** (T_next + lcm_value)
    except OverflowError:
        return math.inf
    return (2.0 * T_next + 2.0 * lcm_value + 1.0) * power / K


def check_convergence_condition(
    plan: LadderPlan, gamma: float, budget: float
) -> ConditionReport:
    terms = []
    for j in range(len(plan.Ks) - 1):
        terms.append(
            condition_term(plan.T_prime[j + 1], plan.lcms[j], plan.Ks[j], gamma)
        )
    partial = list(np.cumsum(terms)) if terms else []
    # A ratio with an infinite term, or with a zero earlier term, is
    # undefined: None (JSON null), not NaN or Infinity.
    ratios = [
        None if math.isinf(a) or math.isinf(b) or a == 0 else b / a
        for a, b in zip(terms, terms[1:])
    ]
    below = all(s < budget for s in partial)
    return ConditionReport(
        terms=tuple(terms),
        partial_sums=tuple(float(s) for s in partial),
        growth_ratios=tuple(ratios),
        budget=budget,
        below_budget=below,
    )


def sup_difference(
    chain_j: ChainResult,
    chain_jp1: ChainResult,
    T_prime_j: int,
    T_prime_jp1: int,
) -> float:
    """sup over 0 <= t <= lcm(L_j, L_{j+1}) of the decoded chain difference,
    both chains evaluated at t + T'_{j+1}.

    Valid because the re-selected pre-periods differ by a multiple of L_j
    and both chains repeat over the lcm window; the hypothesis is checked.
    """
    chain_j.check_certificate()
    chain_jp1.check_certificate()
    if chain_j.d != chain_jp1.d:
        raise DimensionMismatch("chains of different dimension")
    if (T_prime_jp1 - T_prime_j) % chain_j.period != 0 or T_prime_jp1 < T_prime_j:
        raise ValueError(
            "re-selected pre-periods must be nondecreasing and differ by "
            "a multiple of the coarser period"
        )
    if T_prime_j < chain_j.pre_period or T_prime_jp1 < chain_jp1.pre_period:
        raise ValueError("re-selected pre-periods must dominate the raw ones")
    window = lcm_periods(chain_j.period, chain_jp1.period)
    return _sup(chain_jp1, chain_j, T_prime_jp1, T_prime_jp1 + window)


@dataclass(frozen=True)
class TailReport:
    """Cauchy-style diagnostics for chain convergence along a ladder."""

    plan: LadderPlan
    chain_sups: tuple[float, ...]   # consecutive chain-vs-chain sups
    orbit_sups: tuple[float, ...]   # chain-vs-true-orbit sups per pair
    shadow_periodic: tuple         # (T, L) per level if the shadow closed, else None
    conflicts: tuple[int, ...]
    tolerance: float
    consistent: bool

    def to_json(self):
        return {
            "plan": self.plan.to_json(),
            "chain_sups": list(self.chain_sups),
            "orbit_sups": list(self.orbit_sups),
            "shadow_periodic": [
                list(p) if p is not None else None for p in self.shadow_periodic
            ],
            "conflicts": list(self.conflicts),
            "tolerance": self.tolerance,
            "consistent": self.consistent,
        }


def tail_convergence(
    m: MapDefinition,
    y0: Point,
    K_ladder,
    horizon: int,
    tolerance: float = 1e-6,
) -> TailReport:
    """Run the pipeline at each resolution and report the sup diagnostics.

    The verdict `consistent` means: both sup sequences are nonincreasing
    and end below the tolerance.  It is evidence, not a proof.
    """
    Ks = [int(k) for k in K_ladder]
    check_resolutions(Ks)
    chains = []
    shadow_status = []
    conflicts = []
    for K in Ks:
        g = GridSpec(K=K, d=m.d)
        _, shadow, table, chain = run_pipeline(m, y0, g, horizon)
        chains.append(chain)
        shadow_status.append(shadow_periodicity(shadow))
        conflicts.append(len(table.conflicts))
    plan = build_ladder_plan(
        Ks, [c.pre_period for c in chains], [c.period for c in chains]
    )
    chain_sups = []
    for j in range(len(Ks) - 1):
        chain_sups.append(
            sup_difference(
                chains[j], chains[j + 1], plan.T_prime[j], plan.T_prime[j + 1]
            )
        )
    # Chain vs true orbit over [T'_j, T'_j + lcm], which needs the orbit
    # extended to the largest such time.
    orbit_sups = []
    if len(Ks) >= 2:
        t_max = max(plan.T_prime[j] + plan.lcms[j] for j in range(len(Ks) - 1))
        long_orbit = generate_orbit(m, y0, max(t_max, horizon)).values
        for j in range(len(Ks) - 1):
            lo = plan.T_prime[j]
            orbit_sups.append(_sup(chains[j], long_orbit, lo, lo + plan.lcms[j]))

    def _nonincreasing(xs):
        return all(b <= a + 1e-15 for a, b in zip(xs, xs[1:]))

    consistent = bool(
        chain_sups
        and _nonincreasing(chain_sups)
        and _nonincreasing(orbit_sups)
        and chain_sups[-1] <= tolerance
        and orbit_sups[-1] <= tolerance
    )
    return TailReport(
        plan=plan,
        chain_sups=tuple(chain_sups),
        orbit_sups=tuple(orbit_sups),
        shadow_periodic=tuple(shadow_status),
        conflicts=tuple(conflicts),
        tolerance=tolerance,
        consistent=consistent,
    )
