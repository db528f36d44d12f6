"""Exterior Green's function on one interval and on a union.

Walks through the solved equilibrium data: logarithmic capacity, values
off the set checked against the closed form where one exists, the
equilibrium density, and the neighborhood max G(delta) whose sqrt(delta)
growth drives every certified bound downstream.
"""
import math

import numpy as np

from lejabounds import (build_green_model, green_interval_analytic,
                        make_union)

# ---- single interval: everything has a closed form -------------------
K1 = make_union([(-1.0, 1.0)])
m1 = build_green_model(K1)
print("set", K1.intervals)
print("  capacity  = %.16f   (exact 0.5)" % m1.capacity)
for z in [2.0, 1.0 + 1.0j, 0.5 + 0.01j]:
    got = m1.value(z)
    ref = green_interval_analytic(-1.0, 1.0, z)
    print("  g(%s) = %.15f   closed form %.15f" % (z, got, ref))

# ---- two intervals: no closed form, but structure to check -----------
K2 = make_union([(-1.0, -0.3), (0.3, 1.0)])
m2 = build_green_model(K2)
print()
print("set", K2.intervals)
print("  capacity  =", m2.capacity)
print("  g on the set itself stays at zero:",
      float(np.max(m2.value(K2.grid(400.0)))))

# symmetric set, so the density must be even; sample a few nodes
ts = np.array([0.35, 0.5, 0.7, 0.95])
left = m2.density(-ts)
right = m2.density(ts)
print("  density mirror error:", float(np.max(np.abs(left - right))))

# far away g(z) ~ log|z| - log(capacity)
z = 1.0e6
print("  far field: g(1e6) - (log|z| - log cap) =",
      m2.value(z) - (math.log(z) - math.log(m2.capacity)))

# ---- the neighborhood max and its square root law --------------------
# G(delta) = max of g within distance 2*delta of the set. Near a regular
# set this decays like sqrt(delta), which is what lets the certified
# bound grow only polynomially in the degree.
print()
print("   delta        G(delta)     G/sqrt(delta)")
for d in [1e-2, 1e-3, 1e-4, 1e-5]:
    G = m2.neighborhood_max(d)
    print("  %8.0e   %12.6e   %10.6f" % (d, G, G / math.sqrt(d)))
ds = np.geomspace(1e-5, 1e-2, 13)
Gs = m2.neighborhood_max(*ds)          # the whole table in one call
slope = np.polyfit(np.log(ds), np.log(Gs), 1)[0]
print("  fitted log-log slope = %.4f" % slope)
