import dataclasses
import json
import math

import numpy as np
import pytest

from lejabounds import (CompactSet, PointSequence, ValidationError,
                        build_green_model, cantor_approx, check_separation, leja_sequence,
                        make_union, quasi_leja_sequence, separation_floor,
                        verify_quasi_leja)
from lejabounds import leja

INV_SQRT3 = 0.5773502691896258


def test_first_steps_on_unit_interval(K_unit):
    seq = leja_sequence(K_unit, 4)
    assert seq.points[0] == 1.0
    assert seq.points[1] == -1.0
    assert seq.points[2] == 0.0
    # symmetric tie resolves to the smaller point
    assert seq.points[3] == pytest.approx(-INV_SQRT3, abs=1e-15)


def test_x0_policies(K_two):
    assert leja_sequence(K_two, 1, x0="right").points[0] == 3.0
    assert leja_sequence(K_two, 1, x0="left").points[0] == 0.0
    assert leja_sequence(K_two, 2, x0=2.5).points[0] == 2.5
    with pytest.raises(ValidationError):
        leja_sequence(K_two, 1, x0=1.5)


def test_integer_endpoints_give_the_same_points(K_two):
    # a CompactSet keeps its endpoints as given, so x0 may be an int
    K_int = CompactSet(((0, 1), (2, 3)))
    for x0 in ("right", "left"):
        assert leja_sequence(K_int, 30, x0=x0) == leja_sequence(K_two, 30, x0=x0)
        assert (quasi_leja_sequence(K_int, 30, 0.9, rng_seed=1, x0=x0)
                == quasi_leja_sequence(K_two, 30, 0.9, rng_seed=1, x0=x0))


def test_points_distinct_and_inside(leja_unit_100, K_unit):
    pts = np.asarray(leja_unit_100.points)
    assert len(np.unique(pts)) == len(pts)
    assert all(K_unit.contains(float(x), tol=1e-12) for x in pts)


def test_exact_mode_ratios_are_one(leja_unit_100):
    assert all(r == 1.0 for r in leja_unit_100.achieved_ratios)


def _piece_max(nodes, intervals=((-1.0, 1.0),)):
    """Per piece of the union cut at the nodes, (a, b, x, P(x)) with x the
    maximizer of P(x) = sum_j log|x - x_j| on [a, b]. P is strictly concave
    on a piece, so it peaks at the root of P' (Newton with bisection
    safeguard) or, when P' keeps one sign, at an end that is not a node;
    such ends are taken first on ties."""
    s = np.sort(nodes)
    cuts = [np.unique(np.concatenate(([lo, hi], s[(s >= lo) & (s <= hi)])))
            for lo, hi in intervals]
    a0 = np.concatenate([c[:-1] for c in cuts])
    b0 = np.concatenate([c[1:] for c in cuts])
    a, b = a0.copy(), b0.copy()
    x = 0.5 * (a + b)
    for _ in range(100):
        r = 1.0 / (x[:, None] - s[None, :])
        f, fp = r.sum(axis=1), -(r * r).sum(axis=1)
        a, b = np.where(f > 0, x, a), np.where(f > 0, b, x)
        step = x - f / fp
        x, last = np.where((step > a) & (step < b), step, 0.5 * (a + b)), x
        if np.array_equal(x, last):     # a fixed point: later rounds change nothing
            break
    cand = np.stack([np.where(np.isin(a0, s), x, a0), np.where(np.isin(b0, s), x, b0), x])
    with np.errstate(divide="ignore"):
        vals = np.log(np.abs(cand[..., None] - s)).sum(axis=-1)
    best = np.argmax(vals, axis=0), np.arange(len(x))
    return a0, b0, cand[best], vals[best]


def test_greedy_step_optimality(K_unit):
    # every step to 140, where a grid search first missed, and a sample of
    # the steps after it, to 349, where it reached 0.75 of the maximum,
    # reaches the true maximum over K of the product against earlier points
    pts = np.asarray(leja_sequence(K_unit, 400).points)
    assert list(pts[:2]) == [1.0, -1.0]
    for k in [*range(2, 140), *range(140, 400, 20), 349]:
        chosen = np.sum(np.log(np.abs(pts[k] - pts[:k])))
        assert chosen >= np.max(_piece_max(pts[:k])[3]) + math.log1p(-1e-12), k


@pytest.mark.parametrize("intervals,n,worst", [
    (((-1.0, 1.0),), 1000, 944), (((0.0, 1.0), (2.0, 3.0)), 500, 454),
    (cantor_approx(4, 1.0 / 3.0).intervals, 300, 296), (((-1.0, -0.3), (0.3, 1.0)), 200, 169),
], ids=["unit", "two-intervals", "cantor4", "symmetric-gap"])
def test_exact_steps_past_the_grid_misses(intervals, n, worst):
    # sampled steps, and the step where the refined grid argmax fell furthest
    # below the true maximum (ratios 0.0016, 0.61, 0.13 and 0.95)
    pts = np.asarray(leja_sequence(make_union(intervals), n).points)
    for k in [*range(n // 10, n, n // 5), worst]:
        chosen = np.sum(np.log(np.abs(pts[k] - pts[:k])))
        assert chosen >= np.max(_piece_max(pts[:k], intervals)[3]) + math.log1p(-1e-12), k


def test_step_takes_at_most_6_slope_evaluations(monkeypatch, K_unit, K_two):
    # a refined piece takes a check at its free end and a few Newton steps
    # from its candidate, and an exact step refines at most 2 pieces, a
    # relaxed step on the Cantor set at most 3, the measured maxima; a
    # search that bisects after converging takes 20 to 50
    calls, per_piece, per_step = [0], [], []
    slope, refine, step_max = leja._slope, leja._Pieces._refine, leja._Pieces.step_max

    def counted_slope(*args):
        calls[0] += 1
        return slope(*args)

    def counted_refine(self, *args):
        before = calls[0]
        refine(self, *args)
        per_piece.append(calls[0] - before)

    def counted_step(self, *args):
        before = len(per_piece)
        out = step_max(self, *args)
        per_step.append(len(per_piece) - before)
        return out

    monkeypatch.setattr(leja, "_slope", counted_slope)
    monkeypatch.setattr(leja._Pieces, "_refine", counted_refine)
    monkeypatch.setattr(leja._Pieces, "step_max", counted_step)
    K_cantor = cantor_approx(3, 1.0 / 3.0)
    leja_sequence(K_unit, 400)
    leja_sequence(K_two, 100)
    assert len(per_step) == 399 + 99
    verify_quasi_leja(quasi_leja_sequence(K_cantor, 120, 0.9, rng_seed=0), K_cantor)
    assert len(per_step) == 399 + 99 + 2 * 119
    assert max(per_piece) <= 6
    assert max(per_step[:399 + 99]) <= 2
    assert max(per_step) <= 3


@pytest.mark.parametrize("intervals,n,ends", [(((0.0, 1.0), (2.0, 3.0)), 100, 3),
                                              (((-1.0, -0.3), (0.3, 1.0)), 160, 2)],
                         ids=["two-intervals", "symmetric-gap"])
def test_step_maximum_at_a_component_end_is_that_end(intervals, n, ends):
    # every step from x0 = right, step 79 of the first set and step 53 of
    # the second too, where the refined point beats the grid point by about
    # 1e-11 in log; step 169 of the second set is the first whose grid
    # argmax falls in a lower piece
    pts = np.asarray(leja_sequence(make_union(intervals), n).points)
    at_end = 0
    for k in range(1, n):
        _, _, xs, vals = _piece_max(pts[:k], intervals)
        x_max = xs[np.argmax(vals)]
        chosen = np.sum(np.log(np.abs(pts[k] - pts[:k])))
        assert chosen >= np.max(vals) + math.log1p(-1e-12), k
        if x_max in np.ravel(intervals):
            at_end += 1
            assert pts[k] == x_max, k
    assert at_end == ends


@pytest.mark.parametrize("intervals", [((-1.0, 1.0),), ((0.0, 1.0), (2.0, 3.0))])
def test_refined_step_with_chosen_grid_points_as_bracket_ends(monkeypatch, intervals):
    # tau = 0.5 draws become the ends of pieces (once grid points of density
    # 100, on which the grid argmax lay outside the piece of the maximum at
    # several steps); every step's P* is the true maximum over K
    K = make_union(intervals)
    steps, step_max = [], leja._Pieces.step_max

    def recorded(self, pts_arr):
        x, p = step_max(self, pts_arr)
        steps.append((pts_arr.copy(), x, p))
        return x, p

    monkeypatch.setattr(leja._Pieces, "step_max", recorded)
    quasi_leja_sequence(K, 60, 0.5, rng_seed=0)
    assert len(steps) == 59
    for pts, x, p in steps:
        a, b, _, vals = _piece_max(pts, intervals)
        best = int(np.argmax(vals))
        assert abs(p - vals[best]) <= 1e-12, (len(pts), p, vals[best])
        assert a[best] <= x <= b[best] and x not in pts


def test_quasi_achieved_ratios_are_against_the_true_maximum(K_unit):
    # drawn on a grid of density 100, ratios against the refined grid argmax
    # read 0.517 at the smallest while the true ratio fell to 0.0138
    seq = quasi_leja_sequence(K_unit, 60, 0.5, rng_seed=0)
    pts = np.asarray(seq.points)
    for k in range(1, 60):
        log_val = np.sum(np.log(np.abs(pts[k] - pts[:k])))
        true = math.exp(min(log_val - np.max(_piece_max(pts[:k])[3]), 0.0))
        assert abs(seq.achieved_ratios[k - 1] - true) <= 1e-12, k
    rep = verify_quasi_leja(seq, K_unit)
    assert rep.ok
    assert np.max(np.abs(np.subtract(rep.ratios, seq.achieved_ratios))) <= 1e-12


@pytest.mark.parametrize("n,tau", [(400, 1.0), (1000, 1.0), (400, 0.9), (400, 0.5)])
def test_audit_accepts_long_sequences(K_unit, n, tau):
    # each failed its audit while steps refined the grid argmax: worst
    # ratios 0.7502, 0.0016, 0.7446 and 0.3779
    seq = leja_sequence(K_unit, n) if tau == 1.0 else quasi_leja_sequence(K_unit, n, tau)
    rep = verify_quasi_leja(seq, K_unit)
    assert rep.ok, (rep.worst_ratio, rep.worst_step)


def test_exact_mode_runs_past_the_grid_size(K_unit):
    # 50 points where a grid of density 10 had 21: exact mode builds no grid
    # and takes no density, and every step is the true maximum
    with pytest.raises(TypeError):
        leja_sequence(K_unit, 50, grid_density=10.0)
    seq = leja_sequence(K_unit, 50)
    assert len(set(seq.points)) == 50
    assert seq.points == quasi_leja_sequence(K_unit, 50, 1.0).points
    assert verify_quasi_leja(seq, K_unit).ok


@pytest.mark.parametrize("intervals,n", [(((-1.0, 1.0),), 50), (((0.0, 1e-6), (2e-6, 3e-6)), 40),
                                         (((0.0, 1000.0),), 5)],
                         ids=["unit-50", "micro-40", "wide-5"])
def test_relaxed_mode_runs_at_every_scale(intervals, n):
    # relaxed draws once came from a grid of 1e4 points per unit length: 50
    # points on a 21-point grid, 40 on a 4-point one and 5 on a grid past the
    # 5e6-point cap were refused; every mode runs on these sets now
    K = make_union(intervals)
    for tau in (1.0, 0.9, 0.5):
        seq = quasi_leja_sequence(K, n, tau, rng_seed=1)
        assert min(seq.achieved_ratios) >= tau - 1e-9
        assert verify_quasi_leja(seq, K).ok


def _superlevel(nodes, intervals, level):
    """The intervals of {x : P(x) >= level} on the union cut at the nodes,
    one or none per piece since P is concave there: each end is a piece end
    or a root of P - level, bracketed by the piece maximum and bisected."""
    a, b, x, vals = _piece_max(nodes, intervals)
    keep = vals >= level
    a, b, x = a[keep], b[keep], x[keep]

    def p(y):
        with np.errstate(divide="ignore"):
            return np.log(np.abs(y[:, None] - nodes)).sum(axis=1)

    ends = []
    for out, inside in ((a, x), (b, x)):
        out, inside = out.copy(), inside.copy()
        done = p(out) >= level
        for _ in range(200):
            mid = 0.5 * (out + inside)
            up = p(mid) >= level
            inside, out = np.where(up, mid, inside), np.where(up, out, mid)
        ends.append(np.where(done, out, inside))
    return ends[0], ends[1]


def test_relaxed_draws_are_uniform_on_the_superlevel_set():
    # 2000 draws at one step, placed by length along the superlevel set
    # (several intervals here), pass a Kolmogorov-Smirnov test at 1%
    intervals, tau = ((0.0, 1.0), (2.0, 3.0)), 0.5
    K = make_union(intervals)
    nodes = np.asarray(leja_sequence(K, 30).points)
    pieces = leja._Pieces(K, 31, nodes[0])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(2, 31):
            pieces.add(nodes[:k])
        _, log_max = pieces.step_max(nodes)
        level = log_max + math.log(tau)
        rng = np.random.default_rng(0)
        xs = np.array([pieces.draw(nodes, level, rng)[0] for _ in range(2000)])
    lo, hi = _superlevel(nodes, intervals, level)
    assert len(lo) >= 4
    assert np.max(_piece_max(nodes, intervals)[3]) == pytest.approx(log_max, abs=1e-12)
    where = np.searchsorted(lo, xs, "right") - 1
    assert np.all(xs <= hi[where] + 1e-12)
    before = np.concatenate(([0.0], np.cumsum(hi - lo)))
    u = np.sort((before[where] + np.fmax(xs - lo[where], 0.0)) / before[-1])
    ecdf = np.arange(1, len(u) + 1) / len(u)
    ks = max(np.max(ecdf - u), np.max(u - ecdf + 1.0 / len(u)))
    assert ks < 1.628 / math.sqrt(len(u))       # the 1% critical value


@pytest.mark.parametrize("tau", [0.9, 0.5])
@pytest.mark.parametrize("intervals,n", [
    (((-1.0, 1.0),), 1000), (((0.0, 1.0), (2.0, 3.0)), 500),
    (cantor_approx(4, 1.0 / 3.0).intervals, 300)], ids=["unit", "two-intervals", "cantor4"])
def test_relaxed_steps_reach_tau_times_the_true_maximum(intervals, n, tau):
    # sampled steps and the step of the smallest reported ratio, against the
    # independent per-piece maximum
    seq = quasi_leja_sequence(make_union(intervals), n, tau)
    pts = np.asarray(seq.points)
    for k in [*range(n // 10, n, n // 10), 1 + int(np.argmin(seq.achieved_ratios))]:
        chosen = np.sum(np.log(np.abs(pts[k] - pts[:k])))
        true_max = np.max(_piece_max(pts[:k], intervals)[3])
        assert chosen >= true_max + math.log(tau) + math.log1p(-1e-12), k


def test_quasi_ratios_respect_tau(quasi_unit_seqs):
    for (tau, _seed), seq in quasi_unit_seqs.items():
        assert min(seq.achieved_ratios) >= tau - 1e-9
        assert max(seq.achieved_ratios) <= 1.0


def test_quasi_reduces_to_exact_at_tau_one(K_unit):
    a = leja_sequence(K_unit, 25)
    b = quasi_leja_sequence(K_unit, 25, 1.0, rng_seed=3)
    assert a.points == b.points


@pytest.mark.parametrize("tau", [1.0 - 1e-12, 1.0 - 1e-15, math.nextafter(1.0, 0.0)],
                         ids=["1-1e-12", "1-1e-15", "nextafter"])
def test_quasi_near_tau_one_keeps_every_ratio(K_unit, tau):
    # the superlevel set shrinks to widths the rounding of P cannot resolve;
    # a grid found no point in it and took the maximiser, the draw still
    # ends and keeps every ratio
    seq = quasi_leja_sequence(K_unit, 200 if tau > 1.0 - 1e-12 else 60, tau, rng_seed=3)
    assert min(seq.achieved_ratios) >= tau - 1e-9
    assert verify_quasi_leja(seq, K_unit).ok


def test_quasi_seed_reproducible(K_unit):
    a = quasi_leja_sequence(K_unit, 30, 0.8, rng_seed=5)
    b = quasi_leja_sequence(K_unit, 30, 0.8, rng_seed=5)
    c = quasi_leja_sequence(K_unit, 30, 0.8, rng_seed=6)
    assert a.points == b.points
    assert a.points != c.points


def test_audit_accepts_generated(quasi_unit_seqs, K_unit):
    for (tau, seed), seq in quasi_unit_seqs.items():
        if seed != 0:
            continue
        rep = verify_quasi_leja(seq, K_unit)
        assert rep.ok, (tau, seed, rep.worst_ratio, rep.worst_step)
        assert rep.worst_ratio >= tau * (1 - 1e-6)


def test_audit_rejects_inflated_tau(K_unit):
    seq = quasi_leja_sequence(K_unit, 40, 0.7, rng_seed=0)
    rep = verify_quasi_leja(seq, K_unit, tau=0.99)
    assert not rep.ok


def test_audit_rejects_tampered_sequence(K_unit):
    seq = leja_sequence(K_unit, 10)
    pts = list(seq.points)
    pts[5] = 0.93 * pts[5] + 0.01   # off the greedy choice
    bad = PointSequence(points=tuple(pts), tau=1.0, rng_seed=None,
                        x0_policy=seq.x0_policy,
                        achieved_ratios=seq.achieved_ratios)
    rep = verify_quasi_leja(bad, K_unit, tau=1.0)
    assert not rep.ok


def _points(*points):
    return PointSequence(points=points, tau=1.0, rng_seed=None,
                         x0_policy="right", achieved_ratios=())


def test_audit_rejects_a_point_outside_the_set(K_unit):
    # ok = True when the audit did not read the set: 3.0 beats every step maximum on K
    with pytest.raises(ValidationError, match=r"x_2 = 3\.0 lies outside the set"):
        verify_quasi_leja(_points(1.0, -1.0, 3.0), K_unit)


@pytest.mark.parametrize("x, inside", [(1.0 + 1e-13, True), (-1.0 - 1e-13, True),
                                       (1.0 + 1e-11, False), (-3.0, False)])
def test_audit_and_x0_share_the_set_rule(K_unit, x, inside):
    # a point the audit reads and x0 lie in K up to the same 1e-12
    if inside:
        assert leja._resolve_x0(K_unit, x)[0] == x
        verify_quasi_leja(_points(0.5, x), K_unit)
        return
    with pytest.raises(ValidationError, match=f"x0 = {x} lies outside the set"):
        leja._resolve_x0(K_unit, x)
    with pytest.raises(ValidationError, match=f"x_1 = {x} lies outside the set"):
        verify_quasi_leja(_points(0.5, x), K_unit)


@pytest.mark.parametrize("tau", [0.0, -0.5, 1.5, math.nan])
def test_audit_rejects_tau_outside_unit_interval(K_unit, tau):
    seq = quasi_leja_sequence(K_unit, 10, 0.9, rng_seed=0)
    with pytest.raises(ValidationError, match=r"tau must lie in \(0, 1\]"):
        verify_quasi_leja(seq, K_unit, tau=tau)


def test_two_component_set_alternates(leja_two_100, K_two):
    pts = np.asarray(leja_two_100.points[:10])
    in_right = pts >= 2.0
    # both components are visited early
    assert in_right[:4].any() and (~in_right[:4]).any()


def test_a_sequence_in_the_older_format_loads_and_audits():
    # files written while relaxed mode drew from a grid carry its density,
    # which is ignored now
    old = json.dumps({"achieved_ratios": [0.91625, 0.9772661074393856, 0.9358797402538345,
                                          0.9697842619358343],
                      "grid_density": 10000.0,
                      "points": [1.0, -0.8325, -0.054400000000000004, 0.44030000000000014,
                                 -0.9963],
                      "rng_seed": 2, "tau": 0.9, "x0_policy": "right"})
    seq = PointSequence.from_json(old)
    assert "grid_density" not in seq.to_json()
    rep = verify_quasi_leja(seq, make_union([(-1.0, 1.0)]))
    assert rep.ok
    assert np.max(np.abs(np.subtract(rep.ratios, seq.achieved_ratios))) <= 1e-12


def test_json_roundtrip(K_unit):
    seq = quasi_leja_sequence(K_unit, 12, 0.9, rng_seed=1)
    blob = json.dumps(seq.to_json())
    back = PointSequence.from_json(json.loads(blob))
    assert back.points == seq.points
    assert back.tau == seq.tau


@pytest.mark.parametrize("x0", ["right", "left", -0.25])
def test_json_roundtrip_keeps_every_field(K_unit, x0):
    seq = quasi_leja_sequence(K_unit, 12, 0.9, rng_seed=3, x0=x0)
    assert PointSequence.from_json(json.dumps(seq.to_json())) == seq


def test_separation_floor_formula(model_unit):
    n, tau, delta = 10, 0.9, 0.01
    g = model_unit.neighborhood_max(delta)
    expect = tau * delta * math.exp(-n * g)
    assert separation_floor(model_unit, tau, n, delta) == pytest.approx(expect)


def test_separation_holds_for_exact(leja_unit_100, model_unit):
    rep = check_separation(leja_unit_100, model_unit)
    assert rep.ok
    assert rep.min_separation >= rep.floor - 1e-12
    assert len(rep.deltas) == len(rep.floors)


def test_separation_floors_of_one_G_call_are_the_separation_floors(leja_two_100, model_two,
                                                                    G_calls):
    rep = check_separation(leja_two_100, model_two)
    assert [len(c) for c in G_calls] == [20]
    assert rep.floors == tuple(separation_floor(model_two, 1.0, 100, d) for d in rep.deltas)


def test_separation_holds_for_quasi(quasi_unit_seqs, model_unit):
    for (tau, seed), seq in quasi_unit_seqs.items():
        if seed != 0:
            continue
        rep = check_separation(seq, model_unit)
        assert rep.ok, (tau, seed, rep.margin)


def test_separation_check_is_scale_invariant():
    # [0, s] u [2s, 3s]: floor and best delta scale with the set
    ref = None
    for s in (1.0, 1e3, 1e-3, 1e-6):
        K = make_union([(0.0, s), (2.0 * s, 3.0 * s)])
        seq = quasi_leja_sequence(K, 40, 0.9)
        rep = check_separation(seq, build_green_model(K))
        got = (rep.floor / K.diam, rep.best_delta / K.diam)
        ref = ref or got
        assert got == pytest.approx(ref, rel=1e-6), s


def test_separation_verdict_is_scale_invariant():
    # the closest pair at half the floor fails at every scale of the set
    base = quasi_leja_sequence(make_union([(0.0, 1.0), (2.0, 3.0)]), 40, 0.9, rng_seed=0)
    for s in (1.0, 1e-6, 1e-9):
        model = build_green_model(make_union([(0.0, s), (2.0 * s, 3.0 * s)]))
        pts = [s * x for x in base.points]
        floor = check_separation(dataclasses.replace(base, points=tuple(pts)), model).floor
        pts[-1] = pts[0] - 0.5 * floor
        rep = check_separation(dataclasses.replace(base, points=tuple(pts)), model)
        assert rep.min_separation == pytest.approx(0.5 * rep.floor, rel=1e-9), s
        assert not rep.ok, s


def test_bad_args(K_unit):
    with pytest.raises(ValidationError):
        leja_sequence(K_unit, 0)
    with pytest.raises(ValidationError):
        quasi_leja_sequence(K_unit, 5, 0.0)
    with pytest.raises(ValidationError):
        quasi_leja_sequence(K_unit, 5, 1.2)
    with pytest.raises(ValidationError, match="seed must be nonnegative"):
        quasi_leja_sequence(K_unit, 5, 0.5, rng_seed=-1)
