import math
import pickle
import tracemalloc

import numpy as np
import pytest

from lejabounds import (GreenBuildError, ValidationError, build_green_model,
                        cantor_approx, green_interval_analytic, make_union)

# closed forms for the unit interval
LOG_2_PLUS_SQRT3 = 1.3169578969248166   # value at z = 2
LOG_1_PLUS_SQRT2 = 0.8813735870195429   # value at z = i


def test_interval_closed_form_values(model_unit):
    assert abs(model_unit.value(2.0 + 0j) - LOG_2_PLUS_SQRT3) < 1e-12
    assert abs(model_unit.value(1j) - LOG_1_PLUS_SQRT2) < 1e-12
    assert model_unit.capacity == pytest.approx(0.5, abs=1e-12)


def test_interval_matches_analytic_on_plane(model_unit, rng):
    worst = 0.0
    count = 0
    while count < 200:
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if abs(z.imag) < 1e-3 and -1.1 < z.real < 1.1:
            continue
        count += 1
        worst = max(worst, abs(model_unit.value(z)
                               - green_interval_analytic(-1.0, 1.0, z)))
    assert worst < 1e-9


def test_vanishes_on_the_set(model_unit, model_two, K_unit, K_two):
    for model, K in ((model_unit, K_unit), (model_two, K_two)):
        vals = model.value(K.grid(400.0))
        assert np.max(vals) < 1e-10
        assert np.min(vals) >= 0.0


def test_positive_off_the_set(model_two):
    # gap midpoint, above the plane, far left
    for z in (1.5 + 0j, 0.5 + 0.2j, -3.0 + 0j):
        assert model_two.value(z) > 1e-3


def test_far_field_is_log_minus_log_capacity(model_unit, model_two):
    for model in (model_unit, model_two):
        for z in (1e5 + 0j, -2e5 + 3e4j):
            expect = math.log(abs(z - 0.5 * (model.set.lo + model.set.hi))) \
                - math.log(model.capacity)
            assert abs(model.value(z) - expect) < 1e-4


def test_affine_capacity_scaling():
    # capacity of [c - L/2, c + L/2] is L/4 regardless of c
    m = build_green_model(make_union([(3.0, 7.0)]))
    assert m.capacity == pytest.approx(1.0, abs=1e-12)
    m2 = build_green_model(make_union([(0.0, 1.0)]))
    assert m2.capacity == pytest.approx(0.25, abs=1e-12)


def test_symmetric_union_density_closed_form(model_sym):
    # for [-1,-alpha] U [alpha,1] the equilibrium density is
    # |t| / (pi sqrt((t^2 - alpha^2)(1 - t^2)))
    alpha = 0.3
    ts = np.linspace(0.35, 0.95, 40)
    expect = np.abs(ts) / (np.pi * np.sqrt((ts ** 2 - alpha ** 2) * (1 - ts ** 2)))
    got = model_sym.density(ts)
    np.testing.assert_allclose(got, expect, rtol=1e-9)
    got_neg = model_sym.density(-ts)
    np.testing.assert_allclose(got_neg, expect, rtol=1e-9)


@pytest.mark.parametrize("K", [make_union([(0.0, 1.0), (2.0, 3.0)]),
                               cantor_approx(3, 1.0 / 3.0)], ids=["two", "cantor3"])
def test_density_zero_off_the_set_and_raises_at_endpoints(K):
    m = build_green_model(K)
    ends = np.array(K.intervals)
    gaps = np.linspace(ends[:-1, 1], ends[1:, 0], 7)[1:-1].ravel()
    outside = np.array([K.lo - 0.5, K.lo - 1e-9, K.hi + 1e-9, K.hi + 0.5])
    off = np.concatenate([gaps, outside])
    assert np.array_equal(m.density(off), np.zeros(len(off)))
    assert m.density(float(gaps[0])) == 0.0
    mids = ends.mean(axis=1)
    assert np.all(m.density(mids) > 0)
    for e in ends.ravel():
        with pytest.raises(ValidationError, match="endpoint"):
            m.density(e)


def test_density_mass_one(model_two):
    # integrate the density by substitution across each component
    total = 0.0
    for lo, hi in model_two.set.intervals:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        th = (np.arange(4000) + 0.5) * np.pi / 4000
        t = mid + half * np.cos(th)
        total += np.sum(model_two.density(t) * half * np.sin(th)) * np.pi / 4000
    assert total == pytest.approx(1.0, abs=1e-8)


def test_monotone_in_distance_along_ray(model_unit):
    ys = np.geomspace(1e-3, 10.0, 50)
    vals = np.array([model_unit.value(complex(0.0, y)) for y in ys])
    assert np.all(np.diff(vals) > 0)


def test_neighborhood_max_monotone(model_two):
    deltas = np.geomspace(1e-4, 0.5, 12)
    gs = np.array([model_two.neighborhood_max(float(d)) for d in deltas])
    assert np.all(gs > 0)
    assert np.all(np.diff(gs) > -1e-12)


def test_neighborhood_max_pure(model_unit):
    before = pickle.dumps(vars(model_unit))
    a = model_unit.neighborhood_max(1.234e-3)
    b = model_unit.neighborhood_max(1.234e-3)
    assert a == b
    assert pickle.dumps(vars(model_unit)) == before


def test_neighborhood_max_peaks_off_the_real_axis():
    # the small component sits where g of the two outer intervals peaks in
    # their gap, so g_yy = -g_xx > 0 there and the boundary curve peaks at
    # the top of the circle around it, 1.2% above every real tip
    K = make_union([(-2.0, -1.0), (-5e-4, 5e-4), (1.0, 2.0)])
    model = build_green_model(K)
    delta, r = 0.05, 0.1
    G = model.neighborhood_max(delta)
    fat = make_union([(lo - r, hi + r) for lo, hi in K.intervals])
    tips = np.ravel(fat.intervals)
    assert G >= 1.01 * np.max(model.value(tips + 0j))
    x = np.concatenate([np.linspace(lo, hi, 200_000) for lo, hi in fat.intervals])
    d = K._real_dist(x)
    curve = model.value(x + 1j * np.sqrt(np.maximum(r * r - d * d, 0.0)))
    assert abs(G - np.max(curve)) <= 1e-9 * G
    assert abs(x[np.argmax(curve)]) < r


@pytest.mark.parametrize("K,count", [
    (make_union([(0.0, 1.0), (2.0, 3.0)]), 64),
    (make_union([(-2.0, -1.0), (-5e-4, 5e-4), (1.0, 2.0)]), 64),
    (make_union([(k / 30, k / 30 + 0.01) for k in range(30)]), 16),
    (cantor_approx(5, 1.0 / 3.0), 64),
], ids=["two", "off_axis", "narrow30", "cantor5"])
def test_neighborhood_max_of_a_table_is_bitwise_per_delta(K, count):
    # narrow30's groups merge as delta grows; cantor5 has 32 groups, one
    # block of curves, per small delta, and once they merge the blocks
    # straddle deltas
    m = build_green_model(K)
    deltas = np.geomspace(1e-4 * K.diam, K.diam, count)
    G = m.neighborhood_max(*deltas)
    assert G.shape == (count,)
    assert G.tobytes() == np.array([m.neighborhood_max(d) for d in deltas]).tobytes()
    assert isinstance(m.neighborhood_max(deltas[0]), float)


def test_neighborhood_max_rejects_a_nonpositive_delta_anywhere(model_two):
    for deltas in ([0.0], [-0.1], [0.1, 0.0, 0.2], [0.1, 0.2, -1e-300], [0.1, math.nan]):
        with pytest.raises(ValidationError, match="delta must be positive"):
            model_two.neighborhood_max(*deltas)


def ends_and_gap_midpoints(K):
    ends = np.ravel(K.intervals)
    return ends, ends[1:-1].reshape(-1, 2).mean(axis=1)


def test_solve_memory_bounded_at_order_cap(K_two):
    from lejabounds.green import _nodes, _solve
    ends, mids = ends_and_gap_midpoints(K_two)
    nodes = _nodes(ends, 4096)
    tracemalloc.start()
    try:
        _solve(ends, nodes, mids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense order x order cosine matrix alone would take 134 MB
    assert peak < 64e6


def test_sqrt_scaling_near_set(model_unit):
    # G(delta) ~ c sqrt(delta) for small delta
    d1, d2 = 1e-5, 1e-3
    g1 = model_unit.neighborhood_max(d1)
    g2 = model_unit.neighborhood_max(d2)
    slope = (math.log(g2) - math.log(g1)) / (math.log(d2) - math.log(d1))
    assert abs(slope - 0.5) < 0.05


def test_cantor_build_converges():
    from lejabounds import cantor_approx
    m = build_green_model(cantor_approx(3, 1.0 / 3.0))
    assert m.capacity > 0
    vals = m.value(m.set.grid(50.0))
    assert np.max(vals) < 1e-8


def test_analytic_reference_properties():
    assert abs(green_interval_analytic(-1.0, 1.0, 0.3 + 0j)) < 1e-14
    assert green_interval_analytic(0.0, 4.0, 2.0 + 1e8j) == pytest.approx(
        math.log(1e8) - math.log(1.0), rel=1e-6)


@pytest.mark.parametrize("a,b", [(-1.0, 1.0), (0.0, 1.0), (3.0, 7.0)])
def test_single_interval_series_is_closed_form(a, b, rng):
    m = build_green_model(make_union([(a, b)]))
    assert [len(C) for C in m.cheb_coeffs] == [1]
    x = rng.uniform(a - (b - a), b + (b - a), 2000)
    y = rng.uniform(0.0, b - a, 2000)
    y[::4] = 1e-12 * (b - a)
    z = x + 1j * y
    np.testing.assert_allclose(m.value(z), green_interval_analytic(a, b, z),
                               rtol=0, atol=1e-14)


SERIES_SETS = {
    "two": make_union([(0.0, 1.0), (2.0, 3.0)]),
    "sym": make_union([(-1.0, -0.3), (0.3, 1.0)]),
    "cantor3": cantor_approx(3, 1.0 / 3.0),
    "cantor5": cantor_approx(5, 1.0 / 3.0),
}


@pytest.mark.parametrize("name", sorted(SERIES_SETS))
def test_series_chopped_at_plateau(name):
    m = build_green_model(SERIES_SETS[name])
    assert m.diagnostics["order"] == 256
    assert max(len(C) for C in m.cheb_coeffs) <= 32


@pytest.mark.parametrize("name", ["two", "sym", "cantor3"])
def test_chopped_series_matches_full_series(name, rng):
    from lejabounds.green import GreenModel, _nodes, _solve
    K = SERIES_SETS[name]
    m = build_green_model(K)
    order = m.diagnostics["order"]
    ends, mids = ends_and_gap_midpoints(K)
    _, C, _ = _solve(ends, _nodes(ends, order), mids)
    full = GreenModel(K, 0.0, list(C))
    full.robin_constant = -full.potential(0.5 * sum(K.intervals[0]))
    assert {len(c) for c in full.cheb_coeffs} == {order}
    x = rng.uniform(K.lo - 0.2 * K.diam, K.hi + 0.2 * K.diam, 500)
    y = K.diam * rng.choice([0.0, 1e-12, 1e-6, 1e-2, 0.3], 500)
    np.testing.assert_allclose(m.value(x + 1j * y), full.value(x + 1j * y),
                               rtol=0, atol=1e-12)
    for d in np.geomspace(1e-5, 1.0, 8) * K.diam:
        assert m.neighborhood_max(d) == pytest.approx(full.neighborhood_max(d), rel=1e-11)


def test_chop_without_coefficient_above_bar_is_unconverged():
    from lejabounds.green import _chop
    C = np.zeros((3, 8))
    C[0, :4] = [1.0, 0.5, 1e-13, 1e-14]
    C[1] = np.nan
    C[2, :] = 1.0
    assert _chop(C).tolist() == [2, 8, 8]


def test_doubling_history_one_entry_per_solve():
    # a gap of 1e-3 needs one doubling: the series at 256 has no tail, at
    # 512 it ends after 303 coefficients
    m = build_green_model(make_union([(0.0, 1.0), (1.001, 2.0)]))
    hist = m.diagnostics["doubling_history"]
    assert [h["order"] for h in hist] == [256, 512]
    assert hist[0]["series_length"] > 256 - 3
    assert hist[-1]["series_length"] == m.diagnostics["series_length"] <= 512 - 3
    assert set(hist[-1]) == {"order", "series_length", "mass_residual", "gap_residual"}
    with pytest.raises(GreenBuildError, match=r"series_length=\d+ mass_err="):
        build_green_model(make_union([(0.0, 1.0), (1.0 + 1e-6, 2.0)]))


def test_unended_series_at_cap_refused_without_the_doubled_system(monkeypatch):
    from lejabounds import green
    orders = []
    nodes = green._nodes

    def recording(ends, order):
        orders.append(order)
        return nodes(ends, order)

    monkeypatch.setattr(green, "_nodes", recording)
    with pytest.raises(GreenBuildError, match=r"series_length=4094 mass_err=\S+ gap_err=\S+ "
                                              r"\(residuals of the order-2048 solve\)$"):
        build_green_model(make_union([(0.0, 1.0), (1.0 + 1e-6, 2.0)]))
    assert orders == [256, 512, 1024, 2048, 4096]


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.9, 0.999])
def test_symmetric_pair_capacity_closed_form(alpha):
    # t -> t^2 maps [-1,-alpha] U [alpha,1] two-to-one onto [alpha^2, 1]
    m = build_green_model(make_union([(-1.0, -alpha), (alpha, 1.0)]))
    assert m.capacity == pytest.approx(math.sqrt(1.0 - alpha ** 2) / 2.0, rel=1e-13, abs=0)


def test_zeros_of_h_lie_strictly_inside_their_gaps():
    from lejabounds.green import _nodes, _solve
    K = cantor_approx(7, 1.0 / 3.0)
    ends, mids = ends_and_gap_midpoints(K)
    c, _, _ = _solve(ends, _nodes(ends, 256), mids)
    gaps = ends[1:-1].reshape(-1, 2)
    assert len(c) == K.n_components - 1 == 127
    assert np.all((gaps[:, 0] < c) & (c < gaps[:, 1]))


def test_cantor_capacities_decrease_above_the_limit():
    # Ransford & Rostand (Math. Comp. 76, 2007): the middle-third Cantor set
    # has capacity 0.22094..., which every finite approximant exceeds
    caps = [build_green_model(cantor_approx(d, 1.0 / 3.0)).capacity for d in range(8)]
    assert all(a > b for a, b in zip(caps, caps[1:]))
    assert caps[-1] > 0.2209


@pytest.mark.parametrize("K", [
    cantor_approx(6, 1.0 / 3.0),
    make_union([(k / 30, k / 30 + 0.01) for k in range(30)]),
    cantor_approx(5, 0.25),
], ids=["cantor6", "narrow30", "cantor5_quarter"])
def test_many_component_sets_build(K):
    m = build_green_model(K)
    assert np.max(m.value(K.grid(2000.0))) < 1e-10
    assert m.diagnostics["mass_residual"] <= 1e-13
    assert m.diagnostics["gap_residual"] <= 1e-13
    assert m.diagnostics["boundary_residual"] <= 1e-12


def test_depth7_build_memory_bounded():
    K = cantor_approx(7, 1.0 / 3.0)
    tracemalloc.start()
    try:
        build_green_model(K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64e6


def test_newton_stops_at_the_rounding_floor(monkeypatch):
    # gaps of 5e-5 of the hull: 1e-12 of a gap is below an ulp of its zero,
    # so only the no-longer-halving rule can end the Newton steps
    steps = []
    solve = np.linalg.solve

    def counting(J, r):
        steps.append(len(r))
        return solve(J, r)

    monkeypatch.setattr(np.linalg, "solve", counting)
    m = build_green_model(cantor_approx(2, 0.49995))
    assert len(steps) <= 3 * len(m.diagnostics["doubling_history"])


def test_set_far_from_the_origin_builds():
    # the solve runs on hull-centred coordinates, so a shift of the set
    # moves its zeros by whole ulps of the shift only
    K = cantor_approx(3, 1.0 / 3.0)
    far = make_union([(lo + 1e6, hi + 1e6) for lo, hi in K.intervals])
    m = build_green_model(far)
    assert m.diagnostics["order"] == 256
    assert m.capacity == pytest.approx(build_green_model(K).capacity, rel=1e-9)


def _direct_sums(t, src, skip, u=None):
    """The kernel's sums taken directly, one dense (order x sources) table of
    differences per row with the skipped pairs set to 1, and the same sums of the
    absolute values of their terms (the scale of their rounding)."""
    shape = t.shape if u is None else (len(t), len(src))
    out, scale = np.empty(shape), np.empty(shape)
    for r in range(len(t)):
        D = t[r, :, None] - src
        D[:, skip[1][skip[0] == r]] = 1.0
        if u is None:
            terms = np.log(np.abs(D))
            out[r], scale[r] = terms.sum(axis=1), np.abs(terms).sum(axis=1)
        else:
            out[r] = np.einsum("i,ik->k", u[r], 1.0 / D)
            scale[r] = np.einsum("i,ik->k", np.abs(u[r]), np.abs(1.0 / D))
    return out, scale


def _kernel_sums(K):
    """(kernel, direct, scale) for the four sums of a build: the endpoint log-sums
    of _nodes, the residual sums at twice the order, and the Newton weights and
    Jacobian (off the diagonal) at the zeros of a solve."""
    from lejabounds.green import _nodes, _solve, _near_far_sum
    ends = np.ravel(K.intervals) - 0.5 * (K.lo + K.hi)
    pieces = len(ends) - 1
    p = np.repeat(np.arange(pieces), 2)
    own = (p, p + np.tile([0, 1], pieces))
    nodes = _nodes(ends, 256)
    c = _solve(ends, nodes, ends[1:-1].reshape(-1, 2).mean(axis=1))[0]
    g = np.arange(len(c))
    t2 = _nodes(ends, 512)[0]
    glo, ghi, tg = ends[1:-1:2], ends[2:-1:2], nodes[0][1::2]
    lw, _ = _direct_sums(tg, c, (g, g))
    w = np.exp(lw + nodes[1][1::2] - (lw + nodes[1][1::2]).max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    u = w * (tg - np.einsum("gi,gi->g", w, tg)[:, None])
    off = ~np.eye(len(c), dtype=bool)
    return [(_near_far_sum(ends[:-1], ends[1:], nodes[0], ends, own),
             *_direct_sums(nodes[0], ends, own)),
            (_near_far_sum(ends[:-1], ends[1:], t2, c, (2 * g + 1, g)),
             *_direct_sums(t2, c, (2 * g + 1, g))),
            (_near_far_sum(glo, ghi, tg, c, (g, g)), *_direct_sums(tg, c, (g, g))),
            tuple(a[off] for a in (_near_far_sum(glo, ghi, tg, c, (g, g), u),
                                   *_direct_sums(tg, c, (g, g), u)))]


@pytest.mark.parametrize("K", [
    cantor_approx(4, 1.0 / 3.0), cantor_approx(5, 1.0 / 3.0), cantor_approx(6, 1.0 / 3.0),
    cantor_approx(7, 1.0 / 3.0), cantor_approx(5, 0.25),
    make_union([(k / 30, k / 30 + 0.01) for k in range(30)]),
    make_union([(-2.0, -1.0), (-5e-4, 5e-4), (1.0, 2.0)]), make_union([(-1.0, 1.0)]),
], ids=["cantor4", "cantor5", "cantor6", "cantor7", "cantor5_quarter", "narrow30", "tiny_middle",
        "interval"])
def test_near_far_kernel_matches_direct_sums(K):
    # relative to the sum of the terms' magnitudes, the rounding scale of either sum;
    # Cantor depth 4 is the smallest Cantor set with pieces of both kinds, and the
    # interval's one piece skips both its ends, so its sums must be exactly 0
    for got, want, scale in _kernel_sums(K):
        assert np.all(np.abs(got - want) <= 1e-13 * scale)


@pytest.mark.parametrize("K", [
    make_union([(0.0, 1.0), (2.0, 3.0)]), cantor_approx(3, 1.0 / 3.0),
    make_union([(k / 12, k / 12 + 0.01) for k in range(12)]),
], ids=["two", "cantor3", "narrow12"])
def test_near_far_kernel_is_direct_up_to_12_components(K, monkeypatch):
    # 24 ends: no piece has more than 22 far sources, so nothing goes through proxies
    from lejabounds import green

    def refuse(order):
        raise AssertionError("a set of at most 12 components went through proxies")

    monkeypatch.setattr(green, "_proxy_matrix", refuse)
    for got, want, scale in _kernel_sums(K):
        assert np.all(np.abs(got - want) <= 1e-13 * scale)


def test_depth8_build_memory_bounded():
    K = cantor_approx(8, 1.0 / 3.0)
    tracemalloc.start()
    try:
        build_green_model(K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64e6
