"""End-to-end acceptance checks.

Each test prints one [acceptance] line with the measured quantity before
asserting, so a -s run gives a self-contained scorecard. Tolerances and
budgets live next to the checks they gate.
"""

import math
import time

import numpy as np
import pytest

from lejabounds import (InterpolationOperator, SwitchingInstance,
                        brute_force_log_min, build_green_model,
                        chain_log_value, check_separation, check_spread_bound,
                        green_interval_analytic, leja_sequence, make_union,
                        naive_strategy, optimal_switching, optimize_bound,
                        quasi_leja_sequence, switching_constant,
                        basis_vs_switching, ineq4, ineq2_tightness_scan)
from lejabounds.inequalities import (ineq1_log_margin, ineq2_log_margin,
                                     ineq3_log_margin)

from conftest import QUASI_SEEDS, QUASI_TAUS


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print("[acceptance] %02d %s: %s  %s" % (num, name, "PASS" if ok else "FAIL", detail))
    assert ok, "%s: %s" % (name, detail)


def test_01_switching_constant():
    t0 = time.perf_counter()
    lam = switching_constant()
    dt = time.perf_counter() - t0
    err = abs(lam - 0.24565978)
    ok = err <= 1e-8 and lam > 0.2 and dt < 1e-3
    report(1, "switching constant", ok,
           "lam = %.10f, |err| = %.2e, solved in %.3f ms" % (lam, err, dt * 1e3))


def test_02_green_matches_analytic(model_unit):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    count = 0
    while count < 100:
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if abs(z) > 10 or make_union([(-1.0, 1.0)]).dist_to(z) < 0.01:
            continue
        count += 1
        worst = max(worst, abs(model_unit.value(z)
                               - green_interval_analytic(-1.0, 1.0, z)))
    cap_err_half = abs(model_unit.capacity - 0.5)
    m_unit01 = build_green_model(make_union([(0.0, 1.0)]))
    cap_err_quarter = abs(m_unit01.capacity - 0.25)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-6 and cap_err_half <= 1e-6 and cap_err_quarter <= 1e-6 \
        and dt < 1.0
    report(2, "green function vs closed form", ok,
           "max |g - exact| = %.2e over 100 points, capacity errors %.2e / %.2e, %.2f s"
           % (worst, cap_err_half, cap_err_quarter, dt))


def test_03_equilibrium_density_closed_form(model_sym):
    t0 = time.perf_counter()
    alpha = 0.3
    ts = np.linspace(0.31, 0.999, 25)
    ts = np.concatenate([-ts, ts])
    expect = np.abs(ts) / (np.pi * np.sqrt((ts ** 2 - alpha ** 2) * (1.0 - ts ** 2)))
    got = model_sym.density(ts)
    rel = float(np.max(np.abs(got - expect) / expect))
    dt = time.perf_counter() - t0
    ok = rel <= 1e-6 and dt < 1.0
    report(3, "symmetric two-interval density", ok,
           "max rel err = %.2e at 50 nodes, %.2f s" % (rel, dt))


def test_04_neighborhood_growth_exponent(model_unit, model_two):
    t0 = time.perf_counter()
    slopes = []
    for model in (model_unit, model_two):
        deltas = np.geomspace(1e-4, 1e-2, 9)
        gs = np.array([model.neighborhood_max(float(d)) for d in deltas])
        slope = float(np.polyfit(np.log(deltas), np.log(gs), 1)[0])
        slopes.append(slope)
    dt = time.perf_counter() - t0
    ok = all(abs(s - 0.5) <= 0.1 for s in slopes) and dt < 10.0
    report(4, "sqrt growth of the neighborhood max", ok,
           "log-log slopes = %.4f, %.4f (target 0.5 +- 0.1), %.1f s"
           % (slopes[0], slopes[1], dt))


def test_05_bound_dominates_exact_leja(model_unit, model_two, K_unit, K_two,
                                       leja_unit_100, leja_two_100):
    t0 = time.perf_counter()
    violations = 0
    worst_gap = math.inf
    for model, K, seq in ((model_unit, K_unit, leja_unit_100),
                          (model_two, K_two, leja_two_100)):
        for n, rep in zip(range(1, 101), optimize_bound(model, range(1, 101))):
            lam = InterpolationOperator.from_sequence(seq, n=n) \
                .lebesgue_constant(K).lambda_n
            bound = rep.best_bound
            if not lam <= bound:
                violations += 1
            worst_gap = min(worst_gap, bound / lam)
    dt = time.perf_counter() - t0
    ok = violations == 0 and dt < 120.0
    report(5, "certified bound vs exact-mode constants", ok,
           "0 violations expected, got %d over 200 cases; min bound/lambda = %.3g, %.1f s"
           % (violations, worst_gap, dt))


def test_06_bound_dominates_quasi(model_unit, K_unit, quasi_unit_seqs,
                                  leja_unit_100):
    t0 = time.perf_counter()
    violations = 0
    worst_gap = math.inf
    for tau in QUASI_TAUS:
        bounds = {rep.n: rep.best_bound
                  for rep in optimize_bound(model_unit, range(1, 61), tau=tau)}
        for seed in QUASI_SEEDS:
            seq = quasi_unit_seqs[(tau, seed)]
            for n in range(1, 61):
                lam = InterpolationOperator.from_sequence(seq, n=n) \
                    .lebesgue_constant(K_unit).lambda_n
                if not lam <= bounds[n]:
                    violations += 1
                worst_gap = min(worst_gap, bounds[n] / lam)
    reduction = quasi_leja_sequence(K_unit, 60, 1.0, rng_seed=9).points \
        == leja_unit_100.points[:60]
    dt = time.perf_counter() - t0
    ok = violations == 0 and reduction and dt < 180.0
    report(6, "certified bound vs quasi constants", ok,
           "%d violations over 540 cases, tau=1 reduction bitwise %s, "
           "min bound/lambda = %.3g, %.1f s"
           % (violations, reduction, worst_gap, dt))


def test_07_separation_floors(model_unit, model_two, leja_unit_100,
                              leja_two_100, quasi_unit_seqs):
    worst_margin = math.inf
    count = 0
    for model, seq in [(model_unit, leja_unit_100), (model_two, leja_two_100)] \
            + [(model_unit, s) for s in quasi_unit_seqs.values()]:
        rep = check_separation(seq, model)
        worst_margin = min(worst_margin, rep.margin)
        count += 1
        assert rep.ok
    ok = worst_margin >= -1e-12
    report(7, "pairwise separation floors", ok,
           "worst margin = %.3e over %d sequences, 20 deltas each"
           % (worst_margin, count))


def test_08_dp_equals_enumeration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(500):
        q = int(rng.integers(1, 9))
        tau = float(rng.uniform(0.2, 1.0))
        while True:
            pts = np.sort(rng.uniform(-1, 1, q + 1))
            if np.min(np.diff(pts)) >= 1e-3:
                break
        inst = SwitchingInstance(tuple(rng.permutation(pts)), tau)
        worst = max(worst, abs(optimal_switching(inst).log_value
                               - brute_force_log_min(inst)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt < 5.0
    report(8, "dynamic program vs enumeration", ok,
           "max |log difference| = %.2e over 500 instances, %.1f s" % (worst, dt))


def test_09_worst_case_identity_and_naive_cap():
    from lejabounds import worst_case_instance
    worst_rel = 0.0
    dp_excess = 0.0
    for tau in np.linspace(0.1, 1.0, 19):
        for q in (1, 2, 3, 5, 8, 12):
            inst = worst_case_instance(float(tau), q)
            every = chain_log_value(inst, range(q + 1))
            closed = q * math.log(1.0 / tau) \
                + (q - 1) * math.log((2.0 * tau + 1.0) / (tau + 1.0))
            worst_rel = max(worst_rel, abs(every - closed) / max(1.0, abs(closed)))
            dp_excess = max(dp_excess, optimal_switching(inst).log_value - every)
    rng = np.random.default_rng(77)
    cap_margin = math.inf
    for _ in range(1000):
        q = int(rng.integers(1, 14))
        tau = float(rng.uniform(0.2, 1.0))
        while True:
            pts = np.sort(rng.uniform(-1, 1, q + 1))
            if np.min(np.diff(pts)) >= 1e-3:
                break
        inst = SwitchingInstance(tuple(rng.permutation(pts)), tau)
        cap = q * math.log(1.0 / tau) + (q - 1) * math.log(2.0)
        cap_margin = min(cap_margin, cap - naive_strategy(inst).log_value)
    ok = worst_rel <= 1e-12 and dp_excess <= 1e-9 and cap_margin >= -1e-9
    report(9, "adversarial closed form and naive cap", ok,
           "closed-form rel err = %.2e, dp excess = %.2e, naive cap margin = %.3f"
           % (worst_rel, dp_excess, cap_margin))


def test_10_spread_bound_sweep():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    violations = 0
    tightest = math.inf
    total = 0
    for tau in (1.0, 0.9, 0.5):
        for _ in range(3334 if tau == 1.0 else 3333):
            q = int(rng.integers(1, 26))
            while True:
                pts = np.sort(rng.uniform(-1, 1, q + 1))
                if np.min(np.diff(pts)) >= 1e-3:
                    break
            inst = SwitchingInstance(tuple(rng.permutation(pts)), tau)
            rep = check_spread_bound(inst)
            total += 1
            if not rep.holds:
                violations += 1
            tightest = min(tightest, rep.log_bound - rep.log_exact)
    dt = time.perf_counter() - t0
    ok = violations == 0 and total == 10000 and dt < 60.0
    report(10, "spread bound on random instances", ok,
           "%d violations in %d draws, smallest log slack = %.4f, %.1f s"
           % (violations, total, tightest, dt))


def test_11_basis_values_below_switching(leja_unit_100, quasi_unit_seqs):
    rng = np.random.default_rng(5)
    n = 20
    violations = 0
    skipped = 0
    checked = 0
    for seq, tau in ((leja_unit_100, 1.0), (quasi_unit_seqs[(0.9, 0)], 0.9)):
        head = seq.points[:n]
        sub = type(seq)(points=head, tau=tau, grid_density=seq.grid_density,
                        rng_seed=seq.rng_seed, x0_policy=seq.x0_policy,
                        achieved_ratios=seq.achieved_ratios[:n - 1])
        for x in rng.uniform(-1, 1, 100):
            for k in range(n):
                rep = basis_vs_switching(sub, k, float(x))
                if rep.skipped:
                    skipped += 1
                    continue
                checked += 1
                if not rep.ok:
                    violations += 1
    ok = violations == 0 and checked >= 3900
    report(11, "basis values below the switching functional", ok,
           "%d violations in %d checks (%d skipped node hits)"
           % (violations, checked, skipped))


def test_12_inequality_sweeps():
    rng = np.random.default_rng(99)
    n = 100000
    lam = switching_constant()
    a = rng.uniform(1e-3, 50.0, n)
    b = rng.uniform(1e-3, 50.0, n)
    side = rng.random(n) < 0.5
    gap = rng.uniform(0.0, 20.0, n)
    x = np.where(side, -np.exp(-lam) * a - gap - 1e-9,
                 np.exp(-lam) * b + gap + 1e-9)
    m1 = float(np.min(ineq1_log_margin(a, b, x)))
    A = rng.uniform(1e-3, 50.0, n)
    aa = A * rng.uniform(1e-6, 1.0, n)
    B = rng.uniform(1e-3, 50.0, n)
    m2 = float(np.min(ineq2_log_margin(A, B, aa)))
    m3 = float(np.min(ineq3_log_margin(rng.uniform(1e-4, 100.0, n),
                                       rng.uniform(1e-4, 100.0, n))))
    r4 = ineq4()
    scan = ineq2_tightness_scan()
    ok = (min(m1, m2, m3) >= -1e-12 and r4.holds
          and abs(scan.best_value - 0.125) <= 1e-9
          and abs(scan.best_b - 3.0) <= 1e-3)
    report(12, "inequality margins and exponent tightness", ok,
           "min log margins %.2e / %.2e / %.2e over 1e5 draws each; "
           "constant margin %.4f; exponent sup %.9f at B = %.6f"
          % (m1, m2, m3, r4.margin, scan.best_value, scan.best_b))
