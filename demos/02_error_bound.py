"""Certified error of the chain approximation.

The chain y* built from the transition table satisfies

    |y*(t) - y(t)| <= (2 * (gamma + ... + gamma^t) + 1) * sqrt(d) / K

with gamma the Lipschitz constant of the map.  The bound is loose but
certified; this demo shows the measured error sitting far below it, and
how the bound scales with the grid resolution K.
"""

import numpy as np

import aporbit as ap

m = ap.ar_map([0.55, -0.3])
gamma = ap.estimate_lipschitz(m)
print(f"map: linear recurrence p={m.coeffs}, analytic gamma={gamma.gamma:.4f}")

y0 = ap.Point([0.7, -0.2])
for K in (4, 8, 16, 32):
    rep = ap.verify_error_bound(m, y0, K=K, horizon=60, lipschitz=gamma)
    print(f"K={K:3d}: pass={rep.passed}  worst actual/bound ="
          f" {rep.worst_ratio:.4f}  conflicts={rep.conflicts}"
          f"  T={rep.pre_period} L={rep.period}")

rep = ap.verify_error_bound(m, y0, K=16, horizon=60, lipschitz=gamma)
print("\nper-step view at K=16 (t, measured error, certified bound):")
for t in (0, 1, 2, 5, 10, 20, 40, 60):
    print(f"  t={t:3d}: {rep.actual[t]:.6f} <= {rep.bound[t]:.6f}")

# The tent map has no recurrence coefficients, so its gamma is sampled: a
# lower bound of the true constant, so a bound computed from it is
# advisory; the report carries that caveat.
tent = ap.expression_map(["1 - 2*abs(x1)"])
sampled = ap.estimate_lipschitz(tent, samples=4000, seed=1)
rep = ap.verify_error_bound(tent, ap.Point([0.3]), K=16, horizon=60,
                            lipschitz=sampled)
print(f"\ntent map with sampled gamma={sampled.gamma:.4f} "
      f"(lower bound: {rep.gamma_is_lower_bound}): pass={rep.passed}")
