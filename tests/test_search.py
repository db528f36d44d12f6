import numpy as np

from lejabounds._search import newton_max, zoom_max


def best(*args):
    """zoom_max's per-bracket (x, f(x)) as lists."""
    x, fx = zoom_max(*args)
    return x.tolist(), fx.tolist()


def test_tie_goes_to_smaller_abscissa():
    assert best(lambda x: np.ones_like(x), 0.0, 2.0, (5, 5)) == ([0.0], [1.0])
    # equal peaks at 0.25 and 0.75, both on the first sample grid
    assert best(lambda x: -np.abs(np.abs(x - 0.5) - 0.25), 0.0, 1.0, (5, 5, 5)) == \
        ([0.25], [0.0])
    # per bracket: [1, 2] has its own tie, at 1.25 and 1.75
    assert best(lambda x: -np.abs(np.abs(x % 1.0 - 0.5) - 0.25), [0.0, 1.0], [1.0, 2.0],
                (5, 5, 5)) == ([0.25, 1.25], [0.0, 0.0])


def test_nan_samples_lose():
    def f(x):
        return np.where(x == 0.0, np.nan, -x)

    assert best(f, [0.0, 1.0], [1.0, 2.0], (5,)) == ([0.25, 1.0], [-0.25, -1.0])


def test_bracket_ends_are_sampled():
    calls = []

    def f(x):
        calls.append(x.copy())
        return x

    # the best of each bracket is its right end
    assert best(f, [0.0, 2.0], [1.0, 3.0], (4, 3, 3)) == ([1.0, 3.0], [1.0, 3.0])
    # one call per round on all brackets together, first round ends included
    assert [c.shape for c in calls] == [(2, 4), (2, 3), (2, 3)]
    np.testing.assert_array_equal(calls[0][:, [0, -1]], [[0.0, 1.0], [2.0, 3.0]])


def test_brackets_are_independent():
    def f(x):
        return np.where(x < 1.5, 1.0 - (x - 0.3) ** 2, 0.5 - (x - 2.7) ** 2)

    # the peaks are flat to rounding within about 1e-8
    counts = (9,) * 12
    (x1,), (f1,) = zoom_max(f, 0.0, 1.0, counts)
    (x2,), (f2,) = zoom_max(f, 2.0, 3.0, counts)
    assert abs(x1 - 0.3) < 1e-7 and abs(x2 - 2.7) < 1e-7
    # together, each bracket gets its own best, bitwise as alone
    assert best(f, [0.0, 2.0], [1.0, 3.0], counts) == ([x1, x2], [f1, f2])
    # each bracket is sampled exactly as it would be on its own
    (g, both), (h, alone) = _counted(f), _counted(f)
    zoom_max(g, [0.0, 2.0], [1.0, 3.0], counts)
    zoom_max(h, 2.0, 3.0, counts)
    np.testing.assert_array_equal([x[1] for x in both], [x[0] for x in alone])


def test_a_degenerate_bracket_leaves_the_others_alone():
    # np.linspace rounds every row another way once one row has step 0
    def f(x):
        return -(x - 0.3) ** 2

    (g, both), (h, alone) = _counted(f), _counted(f)
    counts = (7, 5, 5)
    assert best(g, [0.1, 0.5], [0.9, 0.5], counts)[0][1] == 0.5
    zoom_max(h, 0.1, 0.9, counts)
    assert len(both) == len(alone) == 3
    for x, y in zip(both, alone):
        np.testing.assert_array_equal(x[0], y[0])


def test_first_and_last_cells():
    def near(c):
        return lambda x: -(x - c) ** 2

    for c in (0.02, 0.98):
        (x,), _ = zoom_max(near(c), 0.0, 1.0, (11,) * 12)
        assert abs(x - c) < 1e-7


def test_degenerate_bracket():
    assert best(lambda x: x * x, [0.5, 2.0], [0.5, 2.0], (4, 4)) == ([0.5, 2.0], [0.25, 4.0])
    assert best(lambda x: -x, 1.5, 1.5, (3,)) == ([1.5], [-1.5])


def _counted(f):
    """f, and the list of the point arrays it is called at."""
    calls = []

    def g(x):
        calls.append(x.copy())
        return f(x)
    return g, calls


def test_newton_quadratic_stops_once_converged():
    # on -(x - c)^2 the first Newton step lands on c exactly; the next call
    # sees g == 0 and stops there. Bisecting that point away, since it is
    # also the bracket end just moved, would run to the iteration cap
    slope, calls = _counted(lambda x: (-2.0 * (x - 0.3), np.full_like(x, -2.0)))
    x = newton_max(slope, [0.0, -5.0], [1.0, 5.0])
    np.testing.assert_array_equal(x, [0.3, 0.3])
    assert len(calls) <= 3


def test_newton_maximum_at_bracket_end():
    # -(x - 2)^2 rises over all of [0, 1]: every Newton step leaves the
    # bracket, and bisection walks to the right end
    slope, calls = _counted(lambda x: (-2.0 * (x - 2.0), np.full_like(x, -2.0)))
    x = newton_max(slope, 0.0, 1.0)
    assert 1.0 - 1e-12 <= x[0] <= 1.0
    assert all(np.all((c > 0.0) & (c < 1.0)) for c in calls)


def test_newton_plateau():
    # a constant function: g == 0 stops at the first point, the midpoint
    slope, calls = _counted(lambda x: (np.zeros_like(x), np.zeros_like(x)))
    np.testing.assert_array_equal(newton_max(slope, [0.0, 2.0], [1.0, 4.0]), [0.5, 3.0])
    assert len(calls) == 1


def test_newton_zero_width_bracket():
    slope, calls = _counted(lambda x: (-2.0 * (x - 0.3), np.full_like(x, -2.0)))
    np.testing.assert_array_equal(newton_max(slope, [0.7, 0.0], [0.7, 1.0]), [0.7, 0.3])
    # the empty bracket is never evaluated
    assert all(0.7 not in c for c in calls)
    assert len(newton_max(slope, [], [])) == 0


def test_newton_brackets_are_independent():
    # a steep and a flat concave peak: each bracket runs its own iteration
    def slope(x):
        return np.where(x < 5.0, np.cos(x), -np.sinh(x - 7.0)), \
            np.where(x < 5.0, -np.sin(x), -np.cosh(x - 7.0))

    x = newton_max(slope, [0.0, 5.5], [3.0, 9.0])
    np.testing.assert_allclose(x, [np.pi / 2, 7.0], rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(x[1:], newton_max(slope, 5.5, 9.0))
