import numpy as np
import pytest

from lejabounds._search import concave_bound, newton_max, zoom_max


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


def test_newton_passes_the_owners_of_the_running_brackets():
    # each bracket's own peak c[k] comes in through its owner k, cut to the
    # brackets still running: the quadratic one stops after two calls
    c = np.array([0.3, 2.0, 7.5])
    seen = []

    def slope(x, k):
        seen.append(k.copy())
        assert len(k) == len(x)
        t = x - c[k]
        return (np.where(k == 0, -2.0 * t, -t ** 3 - t),
                np.where(k == 0, -2.0, -3.0 * t ** 2 - 1.0))

    lo, hi = [0.0, 0.0, 5.0], [1.0, 4.0, 9.0]
    x = newton_max(slope, lo, hi, np.arange(3))
    np.testing.assert_allclose(x, c, rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(seen[0], [0, 1, 2])
    assert all(0 not in k for k in seen[2:]) and len(seen) > 2
    # each bracket alone takes the same iterates
    for k in range(3):
        assert newton_max(slope, lo[k], hi[k], np.array([k]))[0] == x[k]


def _bound(*args):
    """concave_bound on float arrays, with numpy's warnings ignored as its callers do."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return concave_bound(*map(np.asarray, args))


@pytest.mark.parametrize("mu", [0.0, 3.0])
def test_concave_bound_is_the_parabola_maximum_and_bounds_the_function(mu):
    # f(x) = b x - mu x^2 / 2 + sum_j log|x - z_j| with poles z_j off the
    # piece [lo, hi], so f'' <= -mu there; c is a random point of the piece
    rng = np.random.default_rng(7)
    count = 300
    lo = rng.uniform(-2.0, 2.0, count)
    hi = lo + rng.uniform(1e-3, 3.0, count)
    z = np.concatenate((lo[:, None] - rng.exponential(size=(count, 3)),
                        hi[:, None] + rng.exponential(size=(count, 3))), axis=1)
    b = rng.normal(scale=5.0, size=(count, 1))

    def f(x):
        return b * x - mu * x * x / 2 + np.log(np.abs(x[..., None] - z[:, None, :])).sum(axis=-1)

    c, w = lo + (hi - lo) * rng.random(count), hi - lo
    p = f(c[:, None])[:, 0]
    dp = w * (b[:, 0] - mu * c + (1.0 / (c[:, None] - z)).sum(axis=1))
    half_kappa, left, right = mu * w * w / 2, (lo - c) / w, (hi - c) / w
    U = _bound(p, dp, half_kappa, left, right)
    x = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, 2001)
    assert np.all(U >= f(x).max(axis=1) - 1e-12 * (1.0 + np.abs(U)))
    # the parabola's maximum: at an end, or at its vertex when that is inside
    for k in range(count):
        s = [left[k], right[k]]
        if half_kappa[k] > 0.0:
            s.append(min(max(dp[k] / (2.0 * half_kappa[k]), left[k]), right[k]))
        top = max(p[k] + dp[k] * t - half_kappa[k] * t * t for t in s)
        assert U[k] == pytest.approx(top, rel=1e-12, abs=1e-12)


def test_concave_bound_nan_slope_and_flat_tangent():
    # a nan slope gives a nan bound, which no prune test (bound < best) drops
    for half_kappa in (0.0, 0.5, 4.0):
        assert np.isnan(_bound(1.0, np.nan, half_kappa, -0.5, 0.5))
        assert not _bound(1.0, np.nan, half_kappa, -0.5, 0.5) < 0.0
    # slope 0: the value at c, with no curvature floor and with one
    for half_kappa in (0.0, 4.0):
        assert _bound(1.5, 0.0, half_kappa, -0.25, 0.75) == 1.5
    # no floor: the tangent's value at the end it rises to
    assert _bound(1.0, 2.0, 0.0, -0.25, 0.75) == 2.5
    assert _bound(1.0, -2.0, 0.0, -0.25, 0.75) == 1.5
