import numpy as np

from lejabounds._search import refine_grid_max


def test_constant_tie_goes_to_smaller_abscissa():
    grid = np.array([0.0, 1.0, 2.0])
    x, fx = refine_grid_max(lambda t: 1.0, grid, np.ones(3), 1)
    assert (x, fx) == (0.0, 1.0)


def test_tol_keeps_grid_point_on_small_gain():
    def f(t):
        return -(t - 0.6) ** 2

    grid = np.array([0.0, 0.5, 1.0])
    vals = f(grid)
    # the refined peak gains 0.01 over the grid point
    assert refine_grid_max(f, grid, vals, 1, tol=0.1) == (0.5, float(vals[1]))
    x, fx = refine_grid_max(f, grid, vals, 1, tol=1e-3)
    assert abs(x - 0.6) < 1e-6 and fx > vals[1] + 1e-3


def test_caps_clip_the_bracket():
    grid = np.array([0.0, 1.0, 2.0, 3.0])
    vals = grid.copy()
    assert refine_grid_max(lambda t: t, grid, vals, 1)[0] == 2.0
    assert refine_grid_max(lambda t: t, grid, vals, 1, hi_cap=1.5)[0] == 1.5
    assert refine_grid_max(lambda t: -t, grid, -vals, 2, lo_cap=1.25)[0] == 1.25


def test_first_and_last_grid_point():
    grid = np.array([0.0, 1.0, 2.0])

    def near(c):
        return lambda t: -(t - c) ** 2

    f = near(0.2)
    x, _ = refine_grid_max(f, grid, f(grid), 0)
    assert abs(x - 0.2) < 1e-6
    f = near(1.8)
    x, _ = refine_grid_max(f, grid, f(grid), 2)
    assert abs(x - 1.8) < 1e-6
