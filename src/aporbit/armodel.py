"""Exact decomposition of linear-recurrence orbits.

The algebraic route runs on a map and an initial point y0.  The map must
be x -> A x with A a companion matrix, as an `ar` map (`maps.ar_map`) is:
its first coordinate z then runs the recurrence whose coefficients p are
row 1 of A, read off the map's trees by `expressions.linear_part`, and
y0 = (z(0), z(-1), ..., z(-d+1)).  `recursion` iterates the map off the
box (`MapDefinition.iterate`).

For z(t) = sum_l p_l z(t-l) the characteristic polynomial
mu^d - sum_l p_l mu^(d-l) factors over C; with roots mu_j of multiplicity
m_j the orbit has the closed form

    z(t) = sum_j a_j t^(k_j) mu_j^t        (k_j = 0..m_j-1 per root)

whose coefficients are fixed by the first d samples.  Bounded orbits have
every root either strictly inside the unit circle or simple on it, which
splits z into an almost periodic part (unit-circle terms, a finite sum of
complex exponentials with real frequencies) plus a decaying remainder.

Roots are seeded by the companion-matrix eigenvalues (`np.roots`),
polished by Newton's method (a step is taken only while it lowers
|p(z)|), and grouped into multiple roots by clustering; a merge is
accepted only when the polished representative passes the final
residual test and its lower derivatives vanish.  One array evaluator,
`eval_terms`, computes every sum of closed-form terms:
the closed form itself, its almost periodic part and its remainder, the
interpolation matrix of the coefficient solve, and the initial data of
`spec_from_roots`.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .core import Point
from .errors import (
    DimensionMismatch,
    IllConditioned,
    RefusedUnbounded,
    RootFindingFailed,
)
from .expressions import linear_part
from .maps import MapDefinition, ar_map

UNIT_CIRCLE_TOL = 1e-9
_RESIDUAL_TOL = 1e-12
_MERGE_RADIUS = 5e-3   # widest separation a multiple root's copies can show
_FINAL_RADIUS = 1e-8   # reporting merge radius
_DERIV_TOL = 1e-6      # relative derivative size accepted as "vanishes"
_COND_LIMIT = 1e12
_NEWTON_STEPS = 50


def recursion(m: MapDefinition, y0: Point, horizon: int) -> np.ndarray:
    """The first coordinate of y(0)..y(horizon), iterating the map from y0
    off the box (`MapDefinition.iterate`): nothing polices it, as a
    bounded recurrence may leave the box."""
    return m.iterate(y0, horizon, box=False).values[:, 0]


def _char_coefficients(m: MapDefinition) -> np.ndarray:
    """Monic characteristic coefficients [1, -p_1, ..., -p_d], highest
    first, of the recurrence that the map runs.

    p is row 1 of the map's matrix (`expressions.linear_part`).  The map
    must be x -> A x with A a companion matrix, whose rows 2..d are the
    shift x1..x(d-1); any other map raises ValueError.
    """
    affine = linear_part(m.trees)
    if affine is None:
        raise ValueError("the algebraic route needs an affine map")
    A, b = affine
    if b.any():
        raise ValueError(f"the algebraic route needs a map without offset, got b = {b.tolist()}")
    if not np.array_equal(A[1:], np.eye(m.d - 1, m.d)):
        raise ValueError("the algebraic route needs a companion matrix, "
                         "whose rows 2..d are the shift x1..x(d-1)")
    return np.concatenate([[1.0], -A[0]])


def _polyval(coeffs: np.ndarray, z):
    out = np.zeros_like(np.asarray(z, dtype=complex))
    for c in coeffs:
        out = out * z + c
    return out


def _polyder(coeffs: np.ndarray) -> np.ndarray:
    n = len(coeffs) - 1
    return coeffs[:-1] * np.arange(n, 0, -1)


def _residual_scale(coeffs: np.ndarray, z: complex) -> float:
    """sum |c_i| max(1,|z|)^(deg-i): magnitude budget for |p(z)|."""
    az = max(1.0, abs(z))
    scale = 0.0
    for c in coeffs:
        scale = scale * az + abs(c)
    return max(scale, 1.0)


def _newton_polish(coeffs: np.ndarray, z: complex) -> complex:
    """Newton steps from z, each taken only if it lowers |p(z)|."""
    deriv = _polyder(coeffs)
    pv = complex(_polyval(coeffs, z))
    for _ in range(_NEWTON_STEPS):
        if pv == 0:
            break
        dv = complex(_polyval(deriv, z))
        if dv == 0:
            break
        z_next = z - pv / dv
        pv_next = complex(_polyval(coeffs, z_next))
        if not abs(pv_next) < abs(pv):  # no lower, or NaN
            break
        z, pv = z_next, pv_next
    return z


def _derivative_chain(coeffs: np.ndarray, count: int) -> list[np.ndarray]:
    """[p, p', p'', ...] up to `count` derivatives."""
    chain = [coeffs]
    for _ in range(count):
        chain.append(_polyder(chain[-1]))
    return chain


def _try_multiple_root(coeffs: np.ndarray, center: complex, m: int):
    """Polish a hypothesized m-fold root and verify the hypothesis.

    The (m-1)th derivative has a simple root at a true m-fold root, so
    Newton there reaches machine precision; all lower derivatives must
    then vanish to rounding.  The polynomial itself must meet the final
    residual budget, so a merge of two distinct close roots, whose
    midpoint only nearly vanishes, is rejected.  Returns the polished root
    or None.
    """
    chain = _derivative_chain(coeffs, m - 1)
    rep = _newton_polish(chain[m - 1], center)
    ok = all(
        abs(complex(_polyval(chain[k], rep)))
        <= (_RESIDUAL_TOL if k == 0 else _DERIV_TOL) * _residual_scale(chain[k], rep)
        for k in range(m)
    )
    return rep if ok else None


def _cluster_and_polish(coeffs: np.ndarray, raw: np.ndarray) -> list[tuple[complex, int]]:
    """Group raw root estimates into verified (root, multiplicity) clusters.

    An m-fold root leaves the eigenvalue solver with m copies spread over a
    radius like eps^(1/m), so no fixed radius separates true clusters
    from neighbors.  Instead, agglomerate: repeatedly take the closest
    pair of clusters within the merge radius and accept the merge only if
    the derivative test confirms a genuine multiple root; rejected pairs
    stay apart.  A final pass merges at the reporting radius.
    """
    entries: list[tuple[complex, int]] = [
        (_newton_polish(coeffs, z), 1) for z in raw
    ]
    rejected: set[tuple[int, int]] = set()
    ids = list(range(len(entries)))  # stable identity per cluster for memoing
    next_id = len(entries)
    while len(entries) > 1:
        best = None
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                if (ids[i], ids[j]) in rejected:
                    continue
                zi, zj = entries[i][0], entries[j][0]
                dist = abs(zi - zj)
                if dist <= _MERGE_RADIUS * max(1.0, abs(zi)):
                    if best is None or dist < best[0]:
                        best = (dist, i, j)
        if best is None:
            break
        _, i, j = best
        (zi, mi), (zj, mj) = entries[i], entries[j]
        center = (mi * zi + mj * zj) / (mi + mj)
        rep = _try_multiple_root(coeffs, center, mi + mj)
        if rep is None:
            rejected.add((ids[i], ids[j]))
            continue
        entries = [e for k, e in enumerate(entries) if k not in (i, j)]
        ids = [v for k, v in enumerate(ids) if k not in (i, j)]
        entries.append((rep, mi + mj))
        ids.append(next_id)
        next_id += 1

    # Reporting-radius merge: polished copies of one multiple root coincide.
    merged: list[tuple[complex, int]] = []
    for rep, m in sorted(entries, key=lambda rm: (rm[0].real, rm[0].imag)):
        for i, (other, mo) in enumerate(merged):
            if abs(rep - other) <= _FINAL_RADIUS * max(1.0, abs(other)):
                merged[i] = (other, mo + m)
                break
        else:
            merged.append((rep, m))
    return merged


def _symmetrize_conjugates(
    roots: list[tuple[complex, int]]
) -> list[tuple[complex, int]]:
    """Snap near-real roots to the axis and pair the rest bitwise."""
    real_roots = []
    upper = []
    lower = []
    for mu, m in roots:
        if abs(mu.imag) <= _FINAL_RADIUS * max(1.0, abs(mu)):
            real_roots.append((complex(mu.real, 0.0), m))
        elif mu.imag > 0:
            upper.append((mu, m))
        else:
            lower.append((mu, m))
    if len(upper) != len(lower):
        raise RootFindingFailed(
            "conjugate pairing failed: unbalanced complex roots for a real "
            "polynomial"
        )
    upper.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    lower.sort(key=lambda rm: (rm[0].real, -rm[0].imag))
    paired = []
    for (u, mu_m), (l, ml_m) in zip(upper, lower):
        if mu_m != ml_m or abs(u - l.conjugate()) > 1e-6 * max(1.0, abs(u)):
            raise RootFindingFailed("conjugate pairing failed: mismatched pair")
        mean = (u + l.conjugate()) / 2.0
        paired.append((mean, mu_m))
        paired.append((mean.conjugate(), mu_m))
    out = real_roots + paired
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


@dataclass(frozen=True)
class RootSet:
    """Characteristic roots with multiplicities; sum of multiplicities = d."""

    roots: tuple  # ((mu, multiplicity), ...)
    residual: float

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.roots)

    def to_json(self):
        # unit_gap = ||mu| - 1| lets borderline circle calls be audited
        return {
            "roots": [
                {
                    "re": mu.real,
                    "im": mu.imag,
                    "multiplicity": m,
                    "unit_gap": abs(abs(mu) - 1.0),
                }
                for mu, m in self.roots
            ],
            "residual": self.residual,
        }


def characteristic_roots(m: MapDefinition) -> RootSet:
    """All complex roots of the characteristic polynomial of the map's
    recurrence, with multiplicities; a map that runs no recurrence
    raises ValueError (see `_char_coefficients`)."""
    return _polynomial_roots(_char_coefficients(m))


def _polynomial_roots(full: np.ndarray) -> RootSet:
    """All complex roots of the real monic polynomial whose coefficients,
    highest first, are `full`, with multiplicities.

    Trailing zero coefficients are factored out exactly as roots at zero;
    conjugate symmetry is enforced bitwise on the rest.
    """
    coeffs = full
    zero_mult = 0
    while len(coeffs) > 1 and coeffs[-1] == 0.0:
        coeffs = coeffs[:-1]
        zero_mult += 1
    raw = np.roots(coeffs).astype(complex)
    clustered = _cluster_and_polish(coeffs.astype(complex), raw)
    clustered = _symmetrize_conjugates(clustered)
    clustered = [(complex(mu), m) for mu, m in clustered]
    if zero_mult:
        clustered = [(0.0 + 0.0j, zero_mult)] + clustered
    full = full.astype(complex)
    residual = 0.0
    for mu, _ in clustered:
        residual = max(residual, abs(complex(_polyval(full, mu))))
    if residual > _RESIDUAL_TOL * max(_residual_scale(full, mu) for mu, _ in clustered):
        raise RootFindingFailed(f"worst residual {residual:g} above tolerance")
    return RootSet(roots=tuple(clustered), residual=residual)


def classify(roots: RootSet) -> str:
    """"bounded" iff every root is strictly inside the circle or simple on it."""
    for mu, m in roots.roots:
        r = abs(mu)
        if r < 1.0 - UNIT_CIRCLE_TOL:
            continue
        if abs(r - 1.0) <= UNIT_CIRCLE_TOL and m == 1:
            continue
        return "unbounded"
    return "bounded"


def eval_terms(coeff, mu, power, kind, t):
    """sum_j coeff_j * t^power_j * mu_j^t at integer t, as complex.

    `coeff`, `mu`, `power` and `kind` run over the terms (a scalar applies
    to every term).  `t` is an int or an int array, negative values
    allowed, and the result has its shape.  A term of kind "transient" (a
    zero root) is 1 at t = power and 0 elsewhere; every other kind is the
    power term.  A 2-d `coeff` sums each of its columns, so the identity
    matrix gives the basis functions themselves.
    """
    t = np.asarray(t)[..., None]
    power = np.asarray(power)
    transient = np.asarray(kind) == "transient"
    mu = np.where(transient, 1.0, np.asarray(mu, dtype=complex))
    basis = np.where(transient, t == power, t.astype(float) ** power * mu ** t)
    return basis @ np.asarray(coeff, dtype=complex)


@dataclass(frozen=True)
class Term:
    """One closed-form basis term a * t^power * mu^t.

    kind "unit":      |mu| = 1 (almost periodic contribution)
    kind "decay":     0 < |mu| < 1
    kind "transient": mu = 0; the basis function is 1 at t = power, else 0
    """

    mu: complex
    power: int
    coeff: complex
    kind: str

    def to_json(self):
        return {
            "mu_re": self.mu.real,
            "mu_im": self.mu.imag,
            "power": self.power,
            "coeff_re": self.coeff.real,
            "coeff_im": self.coeff.imag,
            "kind": self.kind,
        }


def _term_arrays(terms):
    """(coeff, mu, power, kind) arrays of a sequence of Terms."""
    return tuple(
        np.array([getattr(term, name) for term in terms])
        for name in ("coeff", "mu", "power", "kind")
    )


@dataclass(frozen=True)
class ARDecomposition:
    terms: tuple[Term, ...]
    classification: str
    condition: float
    solve_residual: float

    @property
    def unit_terms(self) -> tuple[Term, ...]:
        return tuple(t for t in self.terms if t.kind == "unit")

    @property
    def decay_terms(self) -> tuple[Term, ...]:
        return tuple(t for t in self.terms if t.kind == "decay")

    @property
    def transient_terms(self) -> tuple[Term, ...]:
        return tuple(t for t in self.terms if t.kind == "transient")

    @property
    def decay_radius(self) -> float:
        """Largest modulus among decaying roots (0 if none)."""
        return max((abs(t.mu) for t in self.decay_terms), default=0.0)

    def evaluate(self, t):
        """The closed form z(t) at an int or an int array t."""
        return eval_terms(*_term_arrays(self.terms), t).real

    def to_json(self):
        return {
            "terms": [t.to_json() for t in self.terms],
            "classification": self.classification,
            "condition": self.condition,
            "solve_residual": self.solve_residual,
            "decay_radius": self.decay_radius,
        }


def _build_terms(roots: RootSet) -> list[Term]:
    terms = []
    for mu, m in roots.roots:
        for k in range(m):
            if mu == 0:
                kind = "transient"
            elif abs(abs(mu) - 1.0) <= UNIT_CIRCLE_TOL:
                kind = "unit"
            else:
                kind = "decay"
            terms.append(Term(mu=mu, power=k, coeff=0.0 + 0.0j, kind=kind))
    return terms


def solve_coefficients(m: MapDefinition, y0: Point,
                       roots: RootSet | None = None) -> ARDecomposition:
    """Fix the closed-form coefficients from the first d recurrence values,
    z(0..d-1) of `recursion(m, y0, d - 1)`.

    Builds the confluent interpolation system over the basis functions
    t^k mu^t (Kronecker deltas for zero roots) at t = 0..d-1 and solves it
    with LU (partial pivoting) plus one refinement step.  Refuses unbounded
    recurrences and systems with condition estimate above 1e12.
    """
    if roots is None:
        roots = characteristic_roots(m)
    if classify(roots) != "bounded":
        raise RefusedUnbounded(
            "decomposition refused: a root grows (|mu|>1, or repeated on "
            "the unit circle)"
        )
    d = m.d
    terms = _build_terms(roots)
    z_head = recursion(m, y0, d - 1)
    _, mu, power, kind = _term_arrays(terms)
    A = eval_terms(np.eye(len(terms)), mu, power, kind, np.arange(d))
    condition = float(np.linalg.cond(A))
    if condition > _COND_LIMIT:
        raise IllConditioned("confluent interpolation system", condition)
    coeffs = np.linalg.solve(A, z_head)
    coeffs = coeffs + np.linalg.solve(A, z_head - A @ coeffs)
    solve_residual = float(np.max(np.abs(A @ coeffs - z_head)))

    # Conjugate symmetry of the coefficients: a(mu_conj) = conj(a(mu)).
    by_key = {}
    for j, term in enumerate(terms):
        by_key[(term.mu, term.power)] = j
    fixed = coeffs.copy()
    for j, term in enumerate(terms):
        if term.mu.imag == 0:
            fixed[j] = complex(coeffs[j].real, 0.0)
        elif term.mu.imag > 0:
            partner = by_key.get((term.mu.conjugate(), term.power))
            if partner is not None:
                mean = (coeffs[j] + coeffs[partner].conjugate()) / 2.0
                fixed[j] = mean
                fixed[partner] = mean.conjugate()
    terms = [
        Term(mu=t.mu, power=t.power, coeff=complex(c), kind=t.kind)
        for t, c in zip(terms, fixed)
    ]
    return ARDecomposition(
        terms=tuple(terms),
        classification="bounded",
        condition=condition,
        solve_residual=solve_residual,
    )


class AlmostPeriodicSum:
    """Finite sum of complex exponentials sum_k c_k e^(i lambda_k t).

    Frequencies come in +/- pairs with conjugate coefficients, so the
    value is real at every integer t.
    """

    def __init__(self, frequencies, coefficients):
        self.frequencies = tuple(float(f) for f in frequencies)
        self.coefficients = tuple(complex(c) for c in coefficients)

    def __call__(self, t):
        mu = np.exp(1j * np.array(self.frequencies))
        return eval_terms(self.coefficients, mu, 0, "unit", t).real


class DecayingRemainder:
    """R(t): the decaying terms plus the finitely supported transients."""

    def __init__(self, terms):
        self.terms = tuple(terms)

    def __call__(self, t):
        return eval_terms(*_term_arrays(self.terms), t).real


def split(dec: ARDecomposition) -> tuple[AlmostPeriodicSum, DecayingRemainder]:
    """Partition the closed form into (almost periodic part, remainder).

    The almost periodic part collects the unit-circle terms as a real
    trigonometric sum with frequencies arg(mu); the remainder collects
    everything that vanishes as t grows.  Both evaluate at an int or an
    int array t.
    """
    freqs = []
    coeffs = []
    for term in dec.unit_terms:
        freqs.append(cmath.phase(term.mu))
        coeffs.append(term.coeff)
    ap = AlmostPeriodicSum(freqs, coeffs)
    rest = DecayingRemainder(dec.decay_terms + dec.transient_terms)
    return ap, rest


@dataclass(frozen=True, eq=False)
class DecompositionReport:
    """The fidelity of a decomposition, with the three curves it was
    read from: the recursion z, the almost periodic part ap and the
    remainder R, each at t = 0..horizon."""

    closed_form_max_error: float
    decay_radius: float
    remainder_at_zero: float
    convergence_ok: bool
    horizon: int
    z: np.ndarray = field(repr=False)
    ap: np.ndarray = field(repr=False)
    R: np.ndarray = field(repr=False)

    def to_json(self):
        return {
            "closed_form_max_error": self.closed_form_max_error,
            "decay_radius": self.decay_radius,
            "remainder_at_zero": self.remainder_at_zero,
            "convergence_ok": self.convergence_ok,
            "horizon": self.horizon,
        }


def verify_decomposition(
    m: MapDefinition, y0: Point, dec: ARDecomposition, horizon: int = 200
) -> DecompositionReport:
    """Compare the recursion from y0 with the closed form and with ap + remainder.

    Closed-form fidelity: max |z_rec(t) - z_closed(t)| for t <= horizon.
    Convergence fidelity: |z(t) - ap(t)| <= C rho^t for t >= d, with
    rho the largest decay modulus and C = |R(0)|.
    """
    ts = np.arange(horizon + 1)
    z = recursion(m, y0, horizon)
    closed_err = float(np.max(np.abs(z - dec.evaluate(ts))))
    ap, rest = split(dec)
    ap_t, rest_t = ap(ts), rest(ts)
    rho = dec.decay_radius
    C = float(abs(rest(0)))
    late = ts[m.d:]
    ok = bool(np.all(np.abs(z[m.d:] - ap_t[m.d:]) <= C * rho ** late + 1e-9))
    return DecompositionReport(
        closed_form_max_error=closed_err,
        decay_radius=rho,
        remainder_at_zero=C,
        convergence_ok=ok,
        horizon=horizon,
        z=z,
        ap=ap_t,
        R=rest_t,
    )


def coefficients_from_roots(roots) -> tuple[float, ...]:
    """Expand prod (mu - mu_j) and return recurrence coefficients p_1..p_d.

    `roots` is a flat list of complex roots (repeat a root for
    multiplicity); conjugates must appear in pairs for a real recurrence.
    """
    poly = np.array([1.0 + 0.0j])
    for mu in roots:
        poly = np.convolve(poly, np.array([1.0, -complex(mu)]))
    worst_imag = float(np.max(np.abs(poly.imag)))
    if worst_imag > 1e-9 * max(1.0, float(np.max(np.abs(poly)))):
        raise ValueError("roots are not conjugate-symmetric; recurrence not real")
    return tuple(float(-c) for c in poly.real[1:])


def spec_from_roots(roots, coefficients) -> tuple[MapDefinition, Point]:
    """The `ar` map and the initial point whose recursion is
    z(t) = sum a_j t^k mu_j^t exactly.

    `roots` pairs (mu, multiplicity); `coefficients` lists a_j in the same
    (root, power) order as the expansion.  The initial point is the
    closed form at t = 0, -1, ..., -d+1 and, if it leaves [-1,1], the
    coefficients are rescaled so that it fits.
    """
    mu = np.array([complex(mu) for mu, m in roots for _ in range(m)])
    power = [k for _, m in roots for k in range(m)]
    p = coefficients_from_roots(mu)
    d = len(p)
    if len(coefficients) != len(power):
        raise DimensionMismatch("one coefficient per (root, power) pair required")
    kind = np.where(mu == 0, "transient", "power")
    init = eval_terms(coefficients, mu, power, kind, -np.arange(d)).real.tolist()
    peak = max(abs(v) for v in init)
    if peak > 1.0:
        factor = 1.0 / (peak * (1.0 + 1e-9))
        init = [v * factor for v in init]
    return ar_map(p), Point(init)
