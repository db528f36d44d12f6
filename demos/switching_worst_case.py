"""
The switched distance product on its worst-case configuration.

Points 0, 1, -L, L^2, -L^3, ... with L = 1 + 1/tau force any strategy
to either pay the switch penalty 1/tau at every step or fall behind on
distances. The exact dynamic program, the closed form for the
switch-every-step chain, and the two online strategies are compared.
"""
import math

from lejabounds import (naive_strategy, optimal_switching,
                        two_track_strategy, worst_case_instance)

tau = 0.5
for q in [3, 6, 10, 14]:
    inst = worst_case_instance(tau, q)
    res = optimal_switching(inst)
    # switch at every step: value tau^-q ((2 tau + 1)/(tau + 1))^(q-1)
    closed = -q * math.log(tau) + (q - 1) * math.log((2 * tau + 1) / (tau + 1))
    print("q = %2d   dp log value = %.12f   every-step closed form = %.12f"
          % (q, res.log_value, closed))
    print("         dp breakpoints:", res.breakpoints)

# on generic instances the strategies bracket the optimum:
#   dp optimum <= two-track <= naive cap
print()
inst = worst_case_instance(0.7, 12)
res = optimal_switching(inst)
nv = naive_strategy(inst)
tt = two_track_strategy(inst)
print("tau = 0.7, q = 12")
print("  exact dp        :", res.log_value, " m =", res.m)
print("  two-track       :", tt.log_value, " m =", tt.m)
print("  naive           :", nv.log_value, " m =", nv.m)
print("  naive cap  q log(1/tau) + (q-1) log 2 =",
      12 * math.log(1 / 0.7) + 11 * math.log(2.0))

# the two-track trace records which reference the strategy tracked at
# each step and the reference pairs (-a, b) of its stages
print()
print("two-track stages (a = left spread, b = right spread):")
for st in tt.stages:
    print("    a = %10.4g  b = %10.4g  alpha = %.4f  beta = %.4f"
          % (st.a, st.b, st.alpha, st.beta))
