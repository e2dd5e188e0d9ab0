"""Two independent routes to an almost periodic description.

A bounded linear recurrence can be described two ways:

- the quantization route: chains at increasing grid resolutions, compared
  over lcm windows after pre-period re-selection (finite-state evidence
  of uniform convergence);
- the algebraic route: the exact closed form from the characteristic
  roots, split into almost periodic part plus decaying remainder.

Whether the two limits coincide is left open on purpose: this script
only puts the numbers side by side.
"""

import numpy as np

import aporbit as ap

# one map and one start for both routes
m = ap.ar_map([1.2, -0.85])           # complex pair 0.6 +- 0.7i, |mu| < 1
y0 = ap.Point([0.6, 0.3])

# algebraic route
dec = ap.solve_coefficients(m, y0)
ap_part, rest = ap.split(dec)
print(f"roots: {[(complex(np.round(mu, 6)), k) for mu, k in ap.characteristic_roots(m).roots]}")
print(f"decay radius rho = {dec.decay_radius:.6f}")
print(f"almost periodic part: frequencies {[round(f, 6) for f in ap_part.frequencies]}"
      if ap_part.frequencies else
      "almost periodic part: empty (all roots decay, orbit vanishes)")

# quantization route on the same orbit
ladder = ap.tail_convergence(m, y0, [4, 8, 16, 32], horizon=300)
print(f"\nladder (T', L) per level: "
      f"{list(zip(ladder.plan.T_prime, ladder.plan.L))}")
print(f"chain-vs-chain sups:  {[f'{s:.3e}' for s in ladder.chain_sups]}")
print(f"chain-vs-orbit sups:  {[f'{s:.3e}' for s in ladder.orbit_sups]}")

# side-by-side tail values: the recursion, its algebraic ap part, and the
# finest chain, all at late times
chain = ap.run_pipeline(m, y0, ap.GridSpec(K=32, d=2), 300)[3]
z = ap.recursion(m, y0, 320)
print("\n  t    z(t)        ap(t)       chain@K=32")
for t in (280, 290, 300, 310, 320):
    print(f"  {t}  {z[t]: .7f}  {ap_part(t): .7f}  {chain.value_at(t)[0]: .7f}")
print("\nthe chain can freeze on whichever node the first observed "
      "transition looped at, one grid cell away from the true limit: "
      "finite-state dynamics is lossy at any fixed K")
print("no equality claim is made between the two limits; the table is "
      "the evidence as computed")
