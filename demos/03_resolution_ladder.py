"""Comparing chains across an increasing ladder of grid resolutions.

For resolutions K_1 < K_2 < ... the chain pre-periods are re-selected so
consecutive ones differ by a multiple of the coarser period; sups of
chain differences over one lcm window then control the difference
everywhere.  If the weighted ladder terms stay summable, the chains
converge uniformly to an almost periodic limit; the report collects the
finite evidence without claiming the limit.
"""

import aporbit as ap

m = ap.ar_map([0.0, -1.0])       # exactly periodic orbit
y0 = ap.Point([1.0, 0.0])
Ks = [2, 4, 8, 16]

report = ap.tail_convergence(m, y0, Ks, horizon=64, tolerance=1e-9)
plan = report.plan
print("ladder plan:")
print(f"  K        : {list(plan.Ks)}")
print(f"  raw (T,L): {list(zip(plan.T_raw, plan.L))}")
print(f"  T'       : {list(plan.T_prime)}  (re-selected, divisibility-aligned)")
print(f"  lcm L    : {list(plan.lcms)}")
print(f"chain-vs-chain sups : {list(report.chain_sups)}")
print(f"chain-vs-orbit sups : {list(report.orbit_sups)}")
print(f"verdict consistent with uniform convergence: {report.consistent}")

gamma = ap.estimate_lipschitz(m).gamma
cond = ap.check_convergence_condition(plan, gamma, budget=1e6)
print(f"\nsummability terms (gamma={gamma:.2f}): {list(cond.terms)}")
print(f"partial sums: {list(cond.partial_sums)}")
print(f"note: {cond.note}")

# a contracting map: sups shrink like the grid spacing
m2 = ap.ar_map([0.5])
report2 = ap.tail_convergence(m2, ap.Point([1.0]), [4, 8, 16, 32], horizon=80)
print("\ncontracting map z -> z/2:")
print(f"  chain sups: {[f'{s:.4f}' for s in report2.chain_sups]}")
print(f"  orbit sups: {[f'{s:.4f}' for s in report2.orbit_sups]}")
print(f"  shadow periodic per level: {list(report2.shadow_periodic)}")
