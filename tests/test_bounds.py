import math

import numpy as np
import pytest

from lejabounds import (ValidationError, lebesgue_bound, optimize_bound,
                        quasi_lebesgue_bound, switching_constant)

LAM = 0.24565978


def test_switching_constant_value():
    lam = switching_constant()
    assert lam == pytest.approx(LAM, abs=1e-8)
    # defining equation e^(e^lam) (e^lam - 1) = 1
    assert abs(math.exp(math.exp(lam)) * (math.exp(lam) - 1.0) - 1.0) < 1e-10
    assert lam > 0.2


def test_switching_constant_cached():
    assert switching_constant() is switching_constant() or \
        switching_constant() == switching_constant()


def test_bound_formula_direct(model_unit):
    n, delta = 5, 0.1
    g = model_unit.neighborhood_max(delta)
    expect = 2.0 * n * (model_unit.set.diam / delta * math.exp(n * g)) ** (9.0 / 8.0)
    assert lebesgue_bound(model_unit, n, delta) == pytest.approx(expect, rel=1e-12)


def test_quasi_bound_formula_direct(model_unit):
    n, delta, tau = 5, 0.1, 0.8
    g = model_unit.neighborhood_max(delta)
    lam = switching_constant()
    expo = 9.0 / 8.0 + 2.0 * math.log(1.0 / tau) / lam
    expect = (2.0 / tau ** 2) * n * \
        (model_unit.set.diam / (tau * delta) * math.exp(n * g)) ** expo
    assert quasi_lebesgue_bound(model_unit, n, tau, delta) == pytest.approx(
        expect, rel=1e-12)


def test_quasi_bound_reduces_at_tau_one(model_unit):
    for n in (1, 3, 17):
        for delta in (1e-3, 0.05, 0.7):
            assert quasi_lebesgue_bound(model_unit, n, 1.0, delta) == \
                lebesgue_bound(model_unit, n, delta)


def test_bound_monotone_in_tau(model_unit):
    vals = [quasi_lebesgue_bound(model_unit, 10, tau, 0.05)
            for tau in (1.0, 0.9, 0.7, 0.5)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_any_delta_is_valid(model_unit, leja_unit_100, K_unit):
    # the bound holds for every delta, not only the optimized one
    from lejabounds import InterpolationOperator
    op = InterpolationOperator.from_sequence(leja_unit_100, n=12)
    lam = op.lebesgue_constant(K_unit).lambda_n
    for delta in (1e-4, 1e-3, 1e-2, 0.1, 1.0, 5.0):
        assert lam <= lebesgue_bound(model_unit, 12, delta)


def test_optimize_bound_report(model_unit):
    rep = optimize_bound(model_unit, 10)
    assert rep.best_bound == min(rep.bound_values)
    assert rep.best_delta in rep.delta_grid
    assert len(rep.delta_grid) == len(rep.g_values) == len(rep.bound_values)
    assert rep.n == 10 and rep.tau == 1.0


def test_optimize_bound_sequence_matches_single(model_two):
    grid = np.geomspace(1e-3, 2.0, 12)
    ns = [1, 7, 40]
    for tau in (1.0, 0.5):
        reps = optimize_bound(model_two, ns, tau=tau, delta_grid=grid)
        assert [r.n for r in reps] == ns
        for rep in reps:
            one = optimize_bound(model_two, rep.n, tau=tau, delta_grid=grid)
            for f in ("delta_grid", "g_values", "bound_values"):
                assert np.array_equal(getattr(rep, f), getattr(one, f))
            assert (rep.tau, rep.best_delta, rep.best_bound) == \
                (one.tau, one.best_delta, one.best_bound)


def test_optimized_bound_is_the_bound_at_its_delta(model_two):
    # the table and the scalar bound share one exp, so they agree bitwise
    for tau in (1.0, 0.9):
        for rep in optimize_bound(model_two, range(2, 31), tau=tau):
            assert rep.best_bound == quasi_lebesgue_bound(model_two, rep.n, tau, rep.best_delta)


def test_optimize_bound_widens_shared_grid(model_unit):
    base = np.geomspace(1e-4 * 2.0, 2.0, 64)
    small, large = optimize_bound(model_unit, [1, 100])
    grid = small.delta_grid
    assert large.delta_grid is grid and large.g_values is small.g_values
    assert grid[0] < base[0] and grid[-1] > base[-1]
    steps = np.diff(np.log(grid))
    assert np.allclose(steps, math.log(base[1] / base[0]), rtol=1e-9, atol=0)
    assert large.best_delta < base[0] and small.best_delta > base[-1]
    with pytest.raises(ValidationError):
        optimize_bound(model_unit, [3, 0])
    with pytest.raises(ValidationError):
        optimize_bound(model_unit, [])


def _scalar_bound(diam, G, n, delta, tau):
    """The closed form n (2/tau^2) (diam/(tau delta) e^{n G})^(9/8 + 2 log(1/tau)/lam)
    in scalar float operations, in log space; inf past the largest double."""
    log = math.log(n) + (math.log(2.0) - 2.0 * math.log(tau)
                         + (9.0 / 8.0 + 2.0 * math.log(1.0 / tau) / switching_constant())
                         * (math.log(diam) - math.log(tau * delta) + n * G))
    return math.exp(log) if log <= math.log(np.finfo(float).max) else math.inf


@pytest.mark.parametrize("tau", [1.0, 0.9, 0.5, 0.123])
def test_bound_table_is_the_scalar_bound_bitwise(model_unit, model_two, tau):
    # the vectorised table takes the scalar closed form's operations, entry
    # by entry; [1, 100] and more on [-1, 1] widen the grid on both sides
    for model, ns in ((model_unit, [1, 2, 7, 100, 199]), (model_two, range(1, 200))):
        reps = optimize_bound(model, ns, tau=tau)
        assert len(reps[0].delta_grid) > 64
        for rep in reps:
            expect = [_scalar_bound(model.set.diam, float(g), rep.n, float(d), tau)
                      for d, g in zip(rep.delta_grid, rep.g_values)]
            assert rep.bound_values.tolist() == expect


def test_widened_grid_costs_one_G_call_per_table(model_unit, G_calls):
    small, large = optimize_bound(model_unit, [1, 100])
    # the first grid, then one call per side a widening adds (a decade at
    # the grid's spacing: 16 deltas): both sides, then twice the right one;
    # every delta of the final grid once
    assert [len(c) for c in G_calls] == [64, 16, 16, 16, 16]
    assert sorted(d for c in G_calls for d in c) == small.delta_grid.tolist()


def test_optimize_bound_improves_on_coarse_grid(model_unit):
    coarse = optimize_bound(model_unit, 20, delta_grid=np.geomspace(2e-4, 2.0, 8))
    fine = optimize_bound(model_unit, 20, delta_grid=np.geomspace(2e-4, 2.0, 128))
    assert fine.best_bound <= coarse.best_bound * 1.05


def test_optimized_delta_interior_for_moderate_n(model_unit):
    rep = optimize_bound(model_unit, 30)
    assert rep.delta_grid[0] < rep.best_delta < rep.delta_grid[-1]


def test_bound_csv(tmp_path, model_unit):
    # the single-n CLI table is the report on the same delta grid
    from lejabounds.cli import main
    p = tmp_path / "sweep.csv"
    assert main(["bound", "--n", "4", "--deltas", "16", "--tau", "0.9", "--out", str(p)]) == 0
    lines = p.read_text().splitlines()
    assert lines[0] == "delta,G,bound_tau1,bound_tau"
    assert len(lines) == 17
    rep = optimize_bound(model_unit, 4, tau=0.9, delta_grid=np.geomspace(2e-4, 2.0, 16))
    rows = np.array([list(map(float, line.split(","))) for line in lines[1:]])
    assert np.array_equal(rows[:, [0, 1, 3]], np.column_stack(
        [rep.delta_grid, rep.g_values, rep.bound_values]))
    assert np.all(rows[:, 2] < rows[:, 3])


def test_overflow_returns_inf(model_unit):
    # giant n at tiny delta overflows the exponential: must clip to inf
    assert quasi_lebesgue_bound(model_unit, 10 ** 6, 0.5, 1e-4) == math.inf


def test_bad_args(model_unit):
    with pytest.raises(ValidationError):
        lebesgue_bound(model_unit, 0, 0.1)
    with pytest.raises(ValidationError):
        lebesgue_bound(model_unit, 3, -1.0)
    with pytest.raises(ValidationError):
        quasi_lebesgue_bound(model_unit, 3, 1.5, 0.1)
    with pytest.raises(ValidationError):
        quasi_lebesgue_bound(model_unit, 3, 0.0, 0.1)
