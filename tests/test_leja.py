import json
import math

import numpy as np
import pytest

from lejabounds import (PointSequence, ValidationError, check_separation,
                        leja_sequence, make_union, quasi_leja_sequence,
                        separation_floor, verify_quasi_leja)

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


def test_points_distinct_and_inside(leja_unit_100, K_unit):
    pts = np.asarray(leja_unit_100.points)
    assert len(np.unique(pts)) == len(pts)
    assert all(K_unit.contains(float(x), tol=1e-12) for x in pts)


def test_exact_mode_ratios_are_one(leja_unit_100):
    assert all(r == 1.0 for r in leja_unit_100.achieved_ratios)


def _per_gap_log_max(nodes):
    """max over [-1, 1] of sum_j log|x - x_j| for nodes that include -1 and
    1: P is strictly concave between consecutive nodes, so each gap holds
    one maximum, the root of P' found by Newton with bisection safeguard."""
    s = np.sort(nodes)
    a, b = s[:-1].copy(), s[1:].copy()
    x = 0.5 * (a + b)
    for _ in range(100):
        r = 1.0 / (x[:, None] - s[None, :])
        f, fp = r.sum(axis=1), -(r * r).sum(axis=1)
        a, b = np.where(f > 0, x, a), np.where(f > 0, b, x)
        step = x - f / fp
        x = np.where((step > a) & (step < b), step, 0.5 * (a + b))
    return float(np.max(np.log(np.abs(x[:, None] - s[None, :])).sum(axis=1)))


def test_greedy_step_optimality(K_unit):
    # every step before the grid bracket first misses the maximum (step 140)
    # reaches the true maximum over K of the product against earlier points
    pts = np.asarray(leja_sequence(K_unit, 140).points)
    assert list(pts[:2]) == [1.0, -1.0]
    for k in range(2, 140):
        chosen = np.sum(np.log(np.abs(pts[k] - pts[:k])))
        assert chosen >= _per_gap_log_max(pts[:k]) + math.log1p(-1e-12), k


def test_quasi_ratios_respect_tau(quasi_unit_seqs):
    for (tau, _seed), seq in quasi_unit_seqs.items():
        assert min(seq.achieved_ratios) >= tau - 1e-9
        assert max(seq.achieved_ratios) <= 1.0


def test_quasi_reduces_to_exact_at_tau_one(K_unit):
    a = leja_sequence(K_unit, 25)
    b = quasi_leja_sequence(K_unit, 25, 1.0, rng_seed=3)
    assert a.points == b.points


def test_quasi_fallback_near_tau_one_is_exact_mode(K_unit):
    # at tau = 1 - 1e-12 almost every step finds no grid point within the
    # relaxation of the refined maximum and falls back to the refined argmax,
    # which is the exact-mode choice
    a = leja_sequence(K_unit, 60)
    b = quasi_leja_sequence(K_unit, 60, 1.0 - 1e-12, rng_seed=3)
    assert a.points == b.points
    assert a.achieved_ratios == b.achieved_ratios


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
    bad = PointSequence(points=tuple(pts), tau=1.0,
                        grid_density=seq.grid_density, rng_seed=None,
                        x0_policy=seq.x0_policy,
                        achieved_ratios=seq.achieved_ratios)
    rep = verify_quasi_leja(bad, K_unit, tau=1.0)
    assert not rep.ok


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


def test_json_roundtrip(K_unit):
    seq = quasi_leja_sequence(K_unit, 12, 0.9, rng_seed=1)
    blob = json.dumps(seq.to_json())
    back = PointSequence.from_json(json.loads(blob))
    assert back.points == seq.points
    assert back.tau == seq.tau


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


def test_separation_holds_for_quasi(quasi_unit_seqs, model_unit):
    for (tau, seed), seq in quasi_unit_seqs.items():
        if seed != 0:
            continue
        rep = check_separation(seq, model_unit)
        assert rep.ok, (tau, seed, rep.margin)


def test_bad_args(K_unit):
    with pytest.raises(ValidationError):
        leja_sequence(K_unit, 0)
    with pytest.raises(ValidationError):
        quasi_leja_sequence(K_unit, 5, 0.0)
    with pytest.raises(ValidationError):
        quasi_leja_sequence(K_unit, 5, 1.2)
    with pytest.raises(ValidationError, match="seed must be nonnegative"):
        quasi_leja_sequence(K_unit, 5, 0.5, rng_seed=-1)
