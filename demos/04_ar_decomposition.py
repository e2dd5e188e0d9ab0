"""Exact almost-periodic / decaying split of linear-recurrence orbits.

A recurrence is its `ar` map, whose first coordinate runs it, started at
the point (z(0), z(-1), ..., z(-d+1)).  The characteristic roots decide
everything: bounded orbits have every
root inside the unit circle or simple on it, and the orbit equals a
finite sum of complex exponentials (the almost periodic part) plus a
decaying remainder.  With a frequency that is an irrational multiple of
pi, the almost periodic part never repeats exactly.
"""

import cmath

import numpy as np

import aporbit as ap

# --- the cosine recurrence: roots +-i, pure almost periodic --------------
m, y0 = ap.ar_map([0.0, -1.0]), ap.Point([1.0, 0.0])
roots = ap.characteristic_roots(m)
print("z(t) = -z(t-2):")
print(f"  roots: {[(complex(mu), m) for mu, m in roots.roots]}")
print(f"  classification: {ap.classify(roots)}")
dec = ap.solve_coefficients(m, y0, roots)
ap_part, rest = ap.split(dec)
print(f"  z(t) = cos(pi t / 2): check t=0..5 ->",
      [round(dec.evaluate(t), 12) for t in range(6)])
print(f"  frequencies: {[round(f, 6) for f in ap_part.frequencies]}")

# --- mixed spectrum: decay at 0.9, oscillation at frequency 1 ------------
mu = cmath.exp(1j)  # argument 1: irrational multiple of pi
m, y0 = ap.spec_from_roots(
    [(0.9, 1), (mu, 1), (mu.conjugate(), 1)],
    [0.25, 0.2 + 0.1j, 0.2 - 0.1j],
)
print(f"\nmixed spectrum, z0={np.round(y0.coords, 6)}:")
dec = ap.solve_coefficients(m, y0)
ap_part, rest = ap.split(dec)
z = ap.recursion(m, y0, 200)
print("  t    z(t)       ap(t)      R(t)")
for t in (0, 1, 5, 20, 60, 200):
    print(f"  {t:3d}  {z[t]: .6f}  {ap_part(t): .6f}  {rest(t): .2e}")
print(f"  |z - ap| at t=200: {abs(z[200] - ap_part(200)):.2e} "
      f"(remainder decays like 0.9^t)")
report = ap.verify_decomposition(m, y0, dec, horizon=200)
print(f"  closed-form max error over t<=200: "
      f"{report.closed_form_max_error:.2e}")

# --- unbounded cases are refused, with the reason visible in the roots ---
rs = ap.characteristic_roots(ap.ar_map([2.0, -1.0]))
print(f"\nz(t) = 2z(t-1) - z(t-2): roots {[(complex(m0), m) for m0, m in rs.roots]}"
      f" -> {ap.classify(rs)} (repeated unit root grows like t)")
