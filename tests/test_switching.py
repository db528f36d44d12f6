import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lejabounds import (InterpolationOperator, PointSequence, SwitchingInstance,
                        ValidationError, basis_vs_switching, brute_force_log_min,
                        cantor_approx, chain_log_value, check_spread_bound,
                        naive_strategy, optimal_switching, quasi_leja_sequence,
                        spread_bound, spread_log_bound, switching_constant,
                        two_track_strategy, worst_case_instance)
from lejabounds.switching import BasisSwitchReport


def rand_instance(rng, q, tau, lo=-1.0, hi=1.0, min_gap=1e-3):
    while True:
        pts = np.sort(rng.uniform(lo, hi, q + 1))
        if np.min(np.diff(pts)) >= min_gap:
            return SwitchingInstance(tuple(rng.permutation(pts)), tau)


def test_instance_validation():
    with pytest.raises(ValidationError):
        SwitchingInstance((1.0,), 0.9)
    with pytest.raises(ValidationError):
        SwitchingInstance((0.0, 1.0, 1.0), 0.9)
    with pytest.raises(ValidationError):
        SwitchingInstance((0.0, 1.0), 0.0)
    with pytest.raises(ValidationError):
        SwitchingInstance((0.0, 1.0), 1.5)
    with pytest.raises(ValidationError):
        SwitchingInstance((0.0, math.inf, 1.0), 0.9)
    with pytest.raises(ValidationError):
        SwitchingInstance((0.0, math.nan, 1.0), 0.9)


def test_single_gap_value():
    # q = 1: the only chain is (0, 1), value 1/tau
    inst = SwitchingInstance((0.3, 0.9), 0.5)
    res = optimal_switching(inst)
    assert res.log_value == pytest.approx(math.log(2.0))
    assert res.breakpoints == (0, 1)
    assert res.m == 1


def test_two_points_worked_example():
    # points 0, 1, -2 with tau = 1: chains (0,2) and (0,1,2)
    inst = SwitchingInstance((0.0, 1.0, -2.0), 1.0)
    # single block: |x2-x0| |x2-x1| / (|x1-x0| |x2-x0|) = 2*3/2 = 3
    direct = math.log(2.0 * 3.0) - math.log(1.0 * 2.0)
    # split at 1: |x1-x0| * |x2-x1| / 2 = 1*3/2
    split = math.log(1.0) + math.log(3.0) - math.log(2.0)
    assert chain_log_value(inst, (0, 2)) == pytest.approx(direct)
    assert chain_log_value(inst, (0, 1, 2)) == pytest.approx(split)
    res = optimal_switching(inst)
    assert res.log_value == pytest.approx(min(direct, split))


def test_chain_validation():
    inst = SwitchingInstance((0.0, 1.0, 2.5), 0.9)
    with pytest.raises(ValidationError):
        chain_log_value(inst, (0, 0, 2))
    with pytest.raises(ValidationError):
        chain_log_value(inst, (1, 2))
    with pytest.raises(ValidationError):
        chain_log_value(inst, (0, 1))


def test_dp_matches_enumeration(rng):
    worst = 0.0
    for _ in range(250):
        q = int(rng.integers(1, 9))
        tau = float(rng.uniform(0.25, 1.0))
        inst = rand_instance(rng, q, tau)
        worst = max(worst, abs(optimal_switching(inst).log_value
                               - brute_force_log_min(inst)))
    assert worst < 1e-10


def test_dp_breakpoints_reproduce_value(rng):
    for _ in range(50):
        inst = rand_instance(rng, int(rng.integers(2, 12)), 0.8)
        res = optimal_switching(inst)
        assert chain_log_value(inst, res.breakpoints) == pytest.approx(
            res.log_value, abs=1e-10)
        assert res.m == len(res.breakpoints) - 1


def test_worst_case_structure():
    inst = worst_case_instance(0.5, 3)
    assert inst.points == (0.0, 1.0, -3.0, 9.0)
    inst2 = worst_case_instance(1.0, 3)
    assert inst2.points == (0.0, 1.0, -2.0, 4.0)


def test_worst_case_every_step_closed_form():
    for tau in (1.0, 0.9, 0.5, 0.3):
        for q in (1, 2, 5, 12):
            inst = worst_case_instance(tau, q)
            every = chain_log_value(inst, range(q + 1))
            closed = q * math.log(1.0 / tau) \
                + (q - 1) * math.log((2.0 * tau + 1.0) / (tau + 1.0))
            assert every == pytest.approx(closed, rel=1e-12)
            assert optimal_switching(inst).log_value <= every + 1e-9


def test_worst_case_tau_half_value():
    # tau = 1/2: every-step value is 2^q * (4/3)^(q-1); q = 1 gives 2
    inst = worst_case_instance(0.5, 1)
    assert optimal_switching(inst).value == pytest.approx(2.0)


def test_naive_strategy_upper_bounds_dp(rng):
    for _ in range(200):
        inst = rand_instance(rng, int(rng.integers(1, 15)), float(rng.uniform(0.3, 1.0)))
        nai = naive_strategy(inst)
        dp = optimal_switching(inst)
        assert nai.log_value >= dp.log_value - 1e-9


def test_naive_strategy_cap(rng):
    # tau^-q 2^(q-1) always dominates the naive value
    for _ in range(200):
        q = int(rng.integers(1, 15))
        tau = float(rng.uniform(0.3, 1.0))
        inst = rand_instance(rng, q, tau)
        cap = q * math.log(1.0 / tau) + (q - 1) * math.log(2.0)
        assert naive_strategy(inst).log_value <= cap + 1e-9


def test_naive_trace_consistent(rng):
    for _ in range(100):
        inst = rand_instance(rng, int(rng.integers(1, 12)), 0.7)
        tr = naive_strategy(inst)
        assert tr.m == len(tr.switches) + 1
        # the trace is a valid chain, valued by it
        assert chain_log_value(inst, tr.breakpoints()) == tr.log_value


def test_two_track_trace_consistent(rng):
    for _ in range(200):
        inst = rand_instance(rng, int(rng.integers(1, 15)), float(rng.uniform(0.3, 1.0)))
        tr = two_track_strategy(inst)
        dp = optimal_switching(inst)
        assert tr.log_value >= dp.log_value - 1e-9
        assert chain_log_value(inst, tr.breakpoints()) == tr.log_value


def decimal_chain_log(inst, breakpoints):
    """log value of a chain at 50 digits: the exact products of the double
    inputs' distances, rounded to 50 digits, then one decimal log."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        x = [decimal.Decimal(v) for v in inst.points]
        num = den = decimal.Decimal(1)
        for u, v in zip(breakpoints, breakpoints[1:]):
            for j in range(u, v):
                num *= abs(x[v] - x[j])
        for xj in x[1:]:
            den *= abs(x[0] - xj)
        m = len(breakpoints) - 1
        return m * (1 / decimal.Decimal(inst.tau)).ln() + (num / den).ln()


def test_chain_values_match_a_50_digit_reference():
    rng = np.random.default_rng(18)
    insts = [rand_instance(rng, int(rng.integers(20, 81)), float(rng.uniform(0.3, 1.0)))
             for _ in range(120)]
    insts += [worst_case_instance(0.5, 10), worst_case_instance(0.7, 12)]
    worst = {}
    for inst in insts:
        res = optimal_switching(inst)
        every = tuple(range(inst.q + 1))
        values = {"optimal": (res.log_value, res.breakpoints),
                  "every_step": (chain_log_value(inst, every), every)}
        for tr in (naive_strategy(inst), two_track_strategy(inst)):
            values[tr.kind] = (tr.log_value, tr.breakpoints())
        for name, (got, bp) in values.items():
            err = float(abs(decimal.Decimal(got) - decimal_chain_log(inst, bp)))
            worst[name] = max(worst.get(name, 0.0), err)
    assert max(worst.values()) <= 3e-14, worst


def test_chain_values_past_the_double_range():
    # distances from 1e-300 to 1e300: a quotient of two of them overflows
    inst = SwitchingInstance((0.0, 1e300, 1e-300, -1e-200, 3e150), 0.9)
    every = tuple(range(inst.q + 1))
    res, nai, two = optimal_switching(inst), naive_strategy(inst), two_track_strategy(inst)
    for got, bp in ((res.log_value, res.breakpoints), (chain_log_value(inst, every), every),
                    (nai.log_value, nai.breakpoints()), (two.log_value, two.breakpoints())):
        assert got == pytest.approx(float(decimal_chain_log(inst, bp)), rel=0, abs=1e-12)


def test_two_track_stage_invariants(rng):
    lam = switching_constant()
    seen = 0
    for trial in range(300):
        inst = rand_instance(rng, int(rng.integers(3, 15)), 0.8)
        tr = two_track_strategy(inst)
        if not tr.stages:
            continue
        seen += 1
        for s in tr.stages:
            assert s.a > 0 and s.b > 0
            assert s.alpha + s.beta == pytest.approx(1.0, abs=1e-14)
            # weighted geometric mean of the within-stage track products
            # never exceeds 1
            assert s.alpha * s.log_p + s.beta * s.log_q <= 1e-9
    assert seen > 50


def test_two_track_switch_count_bound(rng):
    # switches <= 2 lam^-1 log(D/Delta) + 1
    lam = switching_constant()
    for _ in range(200):
        inst = rand_instance(rng, int(rng.integers(2, 20)), 0.9)
        tr = two_track_strategy(inst)
        pts = np.asarray(inst.points)
        gaps = np.abs(pts[1:] - pts[0])
        cap = 2.0 / lam * math.log(gaps.max() / gaps[:-1].min()) + 1.0
        assert len(tr.switches) <= cap + 1e-9


def test_all_positive_track_bound(rng):
    # one-sided instances: value <= (1/tau) (D/Delta)^(log(1/tau)/lam)
    lam = switching_constant()
    for _ in range(100):
        q = int(rng.integers(1, 12))
        tau = float(rng.uniform(0.3, 1.0))
        inst = rand_instance(rng, q, tau, lo=0.1, hi=2.0)
        pts = np.asarray(inst.points)
        if np.any(pts[1:] == pts[0]):
            continue
        y = pts[1:] - pts[0]
        if not (np.all(y > 0) or np.all(y < 0)):
            continue
        gaps = np.abs(y)
        d_max, d_min = gaps.max(), (gaps[:-1].min() if q > 1 else gaps.max())
        tr = two_track_strategy(inst)
        cap = math.log(1.0 / tau) * (1.0 + math.log(d_max / d_min) / lam)
        assert tr.log_value <= cap + 1e-9


def test_switches_are_where_references_change(rng):
    insts = [rand_instance(rng, int(rng.integers(1, 25)), float(rng.uniform(0.3, 1.0)))
             for _ in range(300)]
    insts += [worst_case_instance(tau, q) for tau in (0.3, 0.5, 0.7, 0.9, 1.0)
              for q in range(1, 25)]
    for inst in insts:
        for tr in (naive_strategy(inst), two_track_strategy(inst)):
            refs = tr.references
            assert len(refs) == inst.q
            assert tr.switches == tuple(j for j in range(1, inst.q) if refs[j - 1] != refs[j])
            assert tr.m == len(tr.switches) + 1


# (log_value, m, switches, flipped, stage (a, b) pairs) per instance and rule,
# recorded from the earlier per-stage implementation of both rules
GOLDEN = {
    ("worst_0.5_10", "naive"): (9.520610457665477, 10, (1, 2, 3, 4, 5, 6, 7, 8, 9), False, ()),
    ("worst_0.5_10", "two_track"): (9.520610457665473, 6, (1, 3, 5, 7, 9), True, (
        (6561.0, 19683.0), (6561.0, 2187.0), (729.0, 2187.0), (729.0, 243.0), (81.0, 243.0),
        (81.0, 27.0), (9.0, 27.0), (9.0, 3.0), (1.0, 3.0))),
    ("worst_0.7_12", "naive"): (8.073344676473816, 12, tuple(range(1, 12)), False, ()),
    ("worst_0.7_12", "two_track"): (8.073344676473805, 9, (1, 3, 4, 5, 6, 7, 9, 10), True, (
        (7136.886886854296, 17332.439582360435), (7136.886886854296, 2938.7181298811806),
        (1210.0604064216625, 2938.7181298811806), (1210.0604064216625, 498.26016735009625),
        (205.1659512618043, 498.26016735009625), (205.1659512618043, 84.48009757839),
        (34.785922532278235, 84.48009757839), (34.785922532278235, 14.323615160349858),
        (5.89795918367347, 14.323615160349858), (5.89795918367347, 2.428571428571429),
        (1.0, 2.428571428571429))),
    ("readme", "naive"): (2.6548056865833973, 3, (1, 2), False, ()),
    ("readme", "two_track"): (2.6548056865833973, 3, (1, 2), False, ((3.0, 9.0), (3.0, 1.0))),
    ("positive", "naive"): (-0.3918952950375332, 2, (3,), False, ()),
    ("positive", "two_track"): (-0.3918952950375332, 2, (3,), False, ()),
    ("flipped", "naive"): (0.721546655081643, 2, (5,), False, ()),
    ("flipped", "two_track"): (0.721546655081643, 2, (5,), True, ((0.4, 0.4),)),
    ("random40", "naive"): (-5.9625205204145875, 7, (11, 18, 34, 35, 36, 38), False, ()),
    ("random40", "two_track"): (-18.986852386490074, 5, (11, 18, 36, 38), True, (
        (0.4447919926605255, 0.8612541346460321), (0.4447919926605255, 0.4156245820933462),
        (0.19587118743451137, 0.4156245820933462), (0.19587118743451137, 0.15801794255432644),
        (0.19587118743451137, 0.11804764831500747))),
}
GOLDEN_INSTANCES = {
    "worst_0.5_10": worst_case_instance(0.5, 10),
    "worst_0.7_12": worst_case_instance(0.7, 12),
    "readme": SwitchingInstance((0.0, 1.0, -3.0, 9.0), 0.5),
    "positive": SwitchingInstance((0.0, 0.3, 1.7, 0.05, 2.4, 0.9, 0.2), 0.8),
    "flipped": SwitchingInstance((0.5, -0.2, 1.1, 0.9, -0.7, 0.1, -1.3), 0.6),
    "random40": SwitchingInstance(
        tuple(map(float, np.random.default_rng(2024).uniform(-1, 1, 41))), 0.85),
}


@pytest.mark.parametrize("name,kind", sorted(GOLDEN))
def test_strategy_golden_table(name, kind):
    rule = {"naive": naive_strategy, "two_track": two_track_strategy}[kind]
    tr = rule(GOLDEN_INSTANCES[name])
    log_value, m, switches, flipped, stages = GOLDEN[name, kind]
    assert tr.kind == kind
    assert tr.log_value == pytest.approx(log_value, rel=1e-13, abs=0)
    assert (tr.m, tr.switches, tr.flipped) == (m, switches, flipped)
    assert tuple((st.a, st.b) for st in tr.stages) == stages


def test_spread_bound_formula():
    lam = switching_constant()
    lb = spread_log_bound(4.0, 0.5, 0.5)
    expo = 9.0 / 8.0 + 2.0 * math.log(2.0) / lam
    assert lb == pytest.approx(math.log(8.0) + expo * math.log(8.0))
    assert spread_bound(16.0, 1.0, 1.0) == pytest.approx(2.0 * 16.0 ** (9.0 / 8.0))


def test_spread_bound_trivial_reference():
    # tau = 1, D/Delta = 16: the bound is 2 * 16^(9/8) = 45.254833995939045
    assert spread_bound(16.0, 1.0, 1.0) == pytest.approx(45.254833995939045, rel=1e-12)


def test_spread_bound_holds_random(rng):
    for _ in range(300):
        q = int(rng.integers(1, 18))
        tau = float(rng.uniform(0.3, 1.0))
        inst = rand_instance(rng, q, tau)
        rep = check_spread_bound(inst)
        assert rep.holds, (inst.points, rep)


def test_spread_bound_holds_worst_case():
    for tau in (1.0, 0.7, 0.4):
        for q in (1, 5, 15):
            rep = check_spread_bound(worst_case_instance(tau, q))
            assert rep.holds


def test_basis_bound_on_quasi(quasi_unit_seqs, rng):
    seq = quasi_unit_seqs[(0.9, 0)]
    for x in rng.uniform(-1, 1, 20):
        for k in range(0, 60, 7):
            rep = basis_vs_switching(seq, k, float(x))
            assert rep.skipped or rep.ok, (k, x, rep)


def test_basis_bound_on_exact(leja_unit_100, rng):
    for x in rng.uniform(-1, 1, 10):
        for k in (0, 3, 11):
            rep = basis_vs_switching(leja_unit_100, k, float(x))
            assert rep.skipped or rep.ok


def test_basis_bound_node_hit_skips(leja_unit_100):
    rep = basis_vs_switching(leja_unit_100, 2, leja_unit_100.points[5])
    assert rep.skipped and rep.ok


def basis_vs_switching_reference(seq, k, x):
    """basis_vs_switching through the public path: the other indices by
    np.delete and a validated SwitchingInstance for optimal_switching."""
    pts = np.asarray(seq.points, dtype=float)
    if np.any(pts == x):
        return BasisSwitchReport(ok=True, skipped=True, k=k, x=x,
                                 log_basis=math.nan, log_switching=math.nan)
    others = np.delete(np.arange(len(pts)), k)
    log_basis = math.fsum((np.log(np.abs(x - pts[others]))
                           - np.log(np.abs(pts[k] - pts[others]))).tolist())
    res = optimal_switching(SwitchingInstance(points=tuple(pts[k:]) + (float(x),), tau=seq.tau))
    return BasisSwitchReport(ok=bool(log_basis <= res.log_value + math.log1p(1e-9)),
                             skipped=False, k=k, x=float(x),
                             log_basis=log_basis, log_switching=res.log_value)


def test_basis_vs_switching_bitwise_equals_public_path():
    # the 960 calls of one cantor-relaxed benchmark job (seed 1), plus a node hit
    K = cantor_approx(3, 1.0 / 3.0)
    seq = quasi_leja_sequence(K, 120, 0.9, rng_seed=1)
    rng = np.random.default_rng(1)
    xs = [InterpolationOperator.from_sequence(seq).lebesgue_constant(K).argmax_x]
    for _ in range(7):
        lo, hi = K.intervals[int(rng.integers(K.n_components))]
        xs.append(float(rng.uniform(lo, hi)))
    xs.append(seq.points[7])
    for x in xs:
        for k in range(len(seq)):
            got = basis_vs_switching(seq, k, x)
            ref = basis_vs_switching_reference(seq, k, x)
            assert [got.ok, got.skipped, got.k] == [ref.ok, ref.skipped, ref.k]
            for a, b in ((got.x, ref.x), (got.log_basis, ref.log_basis),
                         (got.log_switching, ref.log_switching)):
                assert float(a).hex() == float(b).hex(), (x, k)


@pytest.mark.parametrize("points,tau,message", [
    ((0.0, 1.0, 2.0, 1.0), 0.9, "pairwise distinct"),
    ((0.0, 1.0, math.nan, 3.0), 0.9, "finite"),
    ((0.0, 1.0, 2.0, 3.0), 1.5, "tau"),
])
def test_basis_vs_switching_checks_the_suffix(points, tau, message):
    # the sequence and the instance share one check: a sequence that would make
    # an invalid chain is refused when it is made, before basis_vs_switching
    with pytest.raises(ValidationError, match=message):
        PointSequence(points=points, tau=tau, grid_density=1.0, rng_seed=None,
                      x0_policy="right", achieved_ratios=())
    with pytest.raises(ValidationError, match=message):
        SwitchingInstance(points[1:] + (5.0,), tau)


def test_json_roundtrip():
    inst = SwitchingInstance((0.0, 0.5, -1.0), 0.75)
    back = SwitchingInstance.from_json(inst.to_json())
    assert back == inst


@given(st.floats(0.3, 1.0), st.floats(-5, 5), st.floats(0.1, 3))
@settings(max_examples=150, deadline=None)
def test_affine_invariance(tau, shift, scale):
    # value is invariant under x -> scale * x + shift
    base = (0.0, 1.0, -0.4, 2.2, 0.7)
    inst = SwitchingInstance(base, tau)
    moved = SwitchingInstance(tuple(scale * x + shift for x in base), tau)
    a = optimal_switching(inst).log_value
    b = optimal_switching(moved).log_value
    assert a == pytest.approx(b, abs=1e-8)


@given(st.integers(1, 12), st.floats(0.05, 1.0))
@settings(max_examples=150, deadline=None)
def test_worst_case_defeats_all_chains(q, tau):
    # on the adversarial family no chain beats stepping every time, so the
    # exact minimum equals the closed form
    wc = worst_case_instance(tau, q)
    closed = q * math.log(1.0 / tau) \
        + (q - 1) * math.log((2.0 * tau + 1.0) / (tau + 1.0))
    got = optimal_switching(wc).log_value
    assert got == pytest.approx(closed, rel=1e-12, abs=1e-12)
    assert got >= math.log(1.0 / tau) - 1e-12


def per_breakpoint_dp(inst):
    """The forward DP one breakpoint b at a time: a fresh suffix cumsum of
    log|x_b - x_j| per b, keeping the smallest predecessor on ties, and the
    value of the chain it picks. An independent check of the optimum."""
    pts = np.asarray(inst.points)
    q = inst.q
    lt = math.log(1.0 / inst.tau)
    dist = np.full(q + 1, np.inf)
    dist[0] = 0.0
    pred = np.zeros(q + 1, dtype=int)
    for b in range(1, q + 1):
        logs = np.log(np.abs(pts[b] - pts[:b]))
        suffix = np.cumsum(logs[::-1])[::-1]
        cand = dist[:b] + lt + suffix
        i = int(np.argmin(cand))
        dist[b] = cand[i]
        pred[b] = i
    bp = [q]
    while bp[-1] != 0:
        bp.append(int(pred[bp[-1]]))
    bp.reverse()
    return chain_log_value(inst, bp), tuple(bp)


def per_start_dp(inst):
    """The backward DP one start a at a time: a fresh row of log|x_b - x_a|
    per a added to the running cost[a+1:], the form the blocked kernel must
    reproduce, and the value of the chain it picks."""
    pts = np.asarray(inst.points)
    q = inst.q
    lt = math.log(1.0 / inst.tau)
    cost = np.zeros(q + 1)
    nxt = np.zeros(q, dtype=int)
    for a in range(q - 1, -1, -1):
        cost[a + 1:] += np.log(np.abs(pts[a + 1:] - pts[a]))
        i = int(np.argmin(cost[a + 1:]))
        cost[a] = cost[a + 1 + i] + lt
        nxt[a] = a + 1 + i
    bp = [0]
    while bp[-1] != q:
        bp.append(int(nxt[bp[-1]]))
    return chain_log_value(inst, bp), tuple(bp)


@pytest.mark.parametrize("q", [1, 2, 63, 64, 65, 128, 129, 300])
def test_row_blocked_dp_equals_per_breakpoint_dp(q, rng):
    # block edges at multiples of 64 starts; spreads up to e^+-20
    insts = [worst_case_instance(tau, q) for tau in (1.0, 0.9, 0.5)]
    for _ in range(6):
        pts = rng.standard_normal(q + 1) * np.exp(rng.uniform(-20.0, 20.0, q + 1))
        insts.append(SwitchingInstance(tuple(pts), float(rng.uniform(0.2, 1.0))))
    for i, inst in enumerate(insts):
        res = optimal_switching(inst)
        assert (res.log_value, res.breakpoints) == per_start_dp(inst)
        assert res.m == len(res.breakpoints) - 1
        v, forward_bp = per_breakpoint_dp(inst)
        assert abs(res.log_value - v) <= 1e-12 * max(1.0, abs(v))
        if i >= 3:
            # no two chains tie on the random instances, so the forward
            # DP's smallest predecessor picks the same chain
            assert res.breakpoints == forward_bp


def test_dp_memory_is_row_blocked(rng):
    import tracemalloc
    inst = SwitchingInstance(tuple(rng.uniform(-1.0, 1.0, 3001)), 0.9)
    tracemalloc.start()
    try:
        optimal_switching(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a q x q suffix table alone would take 72 MB
    assert peak < 16e6
