"""Certified growth bounds next to measured Lebesgue constants.

For the exact greedy sequence the bound is
    2 n (diam / delta * exp(n G(delta)))^(9/8)
valid for every delta > 0, so we also minimize over delta. The relaxed
sequence with parameter tau pays an extra 1/tau^2 and a larger exponent.
The point of the demo: the certificate is loose in absolute terms but
polynomial in n, while the measured constants crawl.
"""
import numpy as np

from lejabounds import (InterpolationOperator, build_green_model,
                        lebesgue_bound, leja_sequence, make_union,
                        optimize_bound, quasi_leja_sequence)

K = make_union([(0.0, 1.0), (2.0, 3.0)])
model = build_green_model(K)
seq = leja_sequence(K, 64)

print("exact greedy sequence on", K.intervals)
print("   n    Lambda_n     bound(best delta)   best delta    ratio")
for rep in optimize_bound(model, [4, 8, 16, 32, 64]):
    lam = InterpolationOperator.from_sequence(seq, rep.n).lebesgue_constant(K).lambda_n
    print("%4d   %9.4f   %16.6g   %10.4g   %8.3g"
          % (rep.n, lam, rep.best_bound, rep.best_delta, rep.best_bound / lam))

# a fixed delta certifies too, just worse; sweep it for one degree
n = 16
print()
print("delta sweep at n = %d (any row is a valid bound):" % n)
for d in np.geomspace(1e-4, 1.0, 6):
    print("  delta = %8.2e   bound = %12.6g" % (d, lebesgue_bound(model, n, float(d))))

# relaxed sequences: same picture with tau-dependent constants
print()
print("relaxed sequences, n = 32:")
lam_exact = InterpolationOperator.from_sequence(seq, 32).lebesgue_constant(K).lambda_n
print("  tau = 1.00 (exact)  Lambda = %9.4f" % lam_exact)
for tau in [0.95, 0.8, 0.6]:
    q = quasi_leja_sequence(K, 32, tau, rng_seed=3)
    lam = InterpolationOperator.from_sequence(q, 32).lebesgue_constant(K).lambda_n
    rep = optimize_bound(model, 32, tau=tau)
    print("  tau = %.2f          Lambda = %9.4f   bound = %12.6g" % (tau, lam, rep.best_bound))

# growth of the minimized bound itself: polynomial, roughly n^(13/4),
# read off as the slope between successive doublings
print()
ns = np.array([8, 16, 32, 64, 128])
best = np.array([rep.best_bound for rep in optimize_bound(model, ns.tolist())])
print("minimized bound at n =", [int(n) for n in ns])
with np.printoptions(precision=3):
    print("  values:", best)
    print("  local log2 slopes:", np.log2(best[1:] / best[:-1]))
