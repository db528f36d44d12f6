import functools
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lejabounds import (InterpolationOperator, PointSequence, ValidationError,
                        cantor_approx, lebesgue_constants, leja_sequence, make_union,
                        quasi_leja_sequence)
from lejabounds._search import newton_max


@pytest.fixture(scope="module")
def op3():
    return InterpolationOperator(np.array([-1.0, 0.0, 1.0]))


def test_lagrange_basis_kronecker(op3):
    for k, xk in enumerate([-1.0, 0.0, 1.0]):
        vals = [op3.lagrange_basis(k, x) for x in (-1.0, 0.0, 1.0)]
        expect = [1.0 if x == xk else 0.0 for x in (-1.0, 0.0, 1.0)]
        assert vals == expect


def test_lagrange_basis_midpoint(op3):
    # L_1(x) = 1 - x^2 for nodes -1, 0, 1
    assert op3.lagrange_basis(1, 0.5) == pytest.approx(0.75, abs=1e-14)
    assert op3.lagrange_basis(0, 0.5) == pytest.approx(-0.125, abs=1e-14)
    assert op3.lagrange_basis(2, 0.5) == pytest.approx(0.375, abs=1e-14)


def test_interpolate_reproduces_polynomials(op3):
    xs = np.linspace(-1, 1, 11)
    f = lambda x: 2.0 * x ** 2 - x + 0.5
    got = op3.interpolate(np.array([f(-1.0), f(0.0), f(1.0)]), xs)
    np.testing.assert_allclose(got, f(xs), atol=1e-13)


def test_interpolate_exact_at_nodes(op3):
    fv = np.array([3.0, -1.0, 7.0])
    got = op3.interpolate(fv, np.array([-1.0, 0.0, 1.0]))
    np.testing.assert_array_equal(got, fv)
    # hits mixed with other points, in a 2-d x that keeps its shape
    x = np.array([[1.0, 0.5], [-1.0, -0.5]])
    got = op3.interpolate(fv, x)
    assert got.shape == (2, 2)
    assert (got[0, 0], got[1, 0]) == (7.0, 3.0)
    # the quadratic through the data is 6x^2 + 2x - 1
    np.testing.assert_allclose(got[:, 1], [1.5, -0.5], rtol=1e-14)
    np.testing.assert_array_equal(op3.lebesgue_function(x), [[1.0, 1.25], [1.0, 1.25]])
    np.testing.assert_array_equal(op3.lagrange_basis(0, x)[:, 0], [0.0, 1.0])
    # a hit row whose barycentric sum is 0 (nodes -1, 0 at x = 0) raises no warning
    assert InterpolationOperator([-1.0, 0.0]).interpolate([2.0, 3.0], 0.0) == 3.0
    # a scalar x gives a Python float
    for val in (op3.lagrange_basis(0, 0.5), op3.lagrange_basis(0, 1.0),
                op3.lebesgue_function(0.5), op3.lebesgue_function(1.0)):
        assert type(val) is float


def test_subnormal_distance_from_a_node_is_a_hit():
    # w_k / (x - x_k) overflows at x - x_k = 1e-320, so such a point takes the node's value
    op = InterpolationOperator([0.0, 1.0])
    x = np.array([1e-320, -5e-324, 1.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(op.interpolate([2.0, 3.0], x), [2.0, 2.0, 3.0, 2.5])
        assert op.interpolate([2.0, 3.0], 1e-320) == 2.0
        np.testing.assert_array_equal(op.lagrange_basis(0, x), [1.0, 1.0, 0.0, 0.5])
        np.testing.assert_array_equal(op.lebesgue_function(x), [1.0, 1.0, 1.0, 1.0])
    # two nodes that close would be one hit
    with pytest.raises(ValidationError, match="distinct"):
        InterpolationOperator([0.0, 1e-320, 1.0])


def test_interpolate_complex_values(op3):
    fv = np.array([1 + 2j, 0j, -1j])
    out = op3.interpolate(fv, 0.5)
    # quadratic through the data, evaluated directly
    l0, l1, l2 = (op3.lagrange_basis(k, 0.5) for k in range(3))
    assert out == pytest.approx(fv[0] * l0 + fv[1] * l1 + fv[2] * l2)


def test_lebesgue_function_at_nodes_is_one(op3):
    np.testing.assert_array_equal(
        op3.lebesgue_function(np.array([-1.0, 0.0, 1.0])), [1.0, 1.0, 1.0])


def test_lebesgue_function_no_warnings(op3):
    with np.errstate(all="raise"):
        # node hit inside an array evaluation must not raise or warn
        vals = op3.lebesgue_function(np.array([-1.0, -0.5, 0.0, 0.5, 1.0]))
    assert vals[1] == pytest.approx(1.25)


def test_lebesgue_constant_three_nodes(op3, K_unit):
    rep = op3.lebesgue_constant(K_unit)
    assert rep.lambda_n == pytest.approx(1.25, abs=1e-10)
    assert abs(abs(rep.argmax_x) - 0.5) < 1e-6
    assert rep.n == 3


def test_lebesgue_constant_equispaced_growth(K_unit):
    # 10 equispaced nodes on [-1, 1]: the classical value is about 17.848
    nodes = np.linspace(-1, 1, 10)
    rep = InterpolationOperator(nodes).lebesgue_constant(K_unit)
    assert rep.lambda_n == pytest.approx(17.848, rel=1e-3)


def test_lebesgue_scan_memory_bounded(K_unit):
    # 1000 Chebyshev nodes: a Newton round over the 1001 pieces is 1001
    # points x 1000 nodes, and the row blocks cap every such matrix at 8 MB
    op = InterpolationOperator(np.cos((2 * np.arange(1000) + 1) * np.pi / 2000))
    tracemalloc.start()
    try:
        rep = op.lebesgue_constant(K_unit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    # classical bound (2/pi) log(n) + 1 for Chebyshev points
    assert 1.0 < rep.lambda_n < 2 / np.pi * np.log(1000) + 1


def test_interpolate_and_basis_memory_bounded():
    # 20000 points x 1000 Chebyshev nodes: a points x nodes table would take 160 MB
    nodes = np.cos((2 * np.arange(1000) + 1) * np.pi / 2000)
    op = InterpolationOperator(nodes)
    x = np.linspace(-1.0, 1.0, 20000)
    for call in (lambda: op.interpolate(1.0 / (1.0 + 25.0 * nodes ** 2), x),
                 lambda: op.lagrange_basis(3, x)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6


def test_operator_memory_bounded():
    # 3000 Chebyshev nodes: an n x n difference matrix alone would take 72 MB
    theta = (2 * np.arange(3000) + 1) * np.pi / 6000
    tracemalloc.start()
    try:
        op = InterpolationOperator(np.cos(theta))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
    # the weights across all row blocks: w_k is proportional to (-1)^k sin(theta_k)
    expect = (-1.0) ** np.arange(3000) * np.sin(theta)
    np.testing.assert_allclose(op._w, expect / expect.max(), rtol=1e-9, atol=0)


def test_lebesgue_constant_chebyshev_small(K_unit):
    nodes = np.cos((2 * np.arange(12) + 1) * np.pi / 24)
    rep = InterpolationOperator(nodes).lebesgue_constant(K_unit)
    assert rep.lambda_n < 2.6


def test_from_sequence_prefix(leja_unit_100):
    op = InterpolationOperator.from_sequence(leja_unit_100, n=7)
    assert op.n == 7
    np.testing.assert_array_equal(op.nodes, leja_unit_100.points[:7])
    with pytest.raises(ValidationError):
        InterpolationOperator.from_sequence(leja_unit_100, n=101)


def test_duplicate_nodes_rejected():
    with pytest.raises(ValidationError):
        InterpolationOperator(np.array([0.0, 1.0, 0.0]))


@pytest.mark.parametrize("bad,literal", [(np.nan, "NaN"), (np.inf, "Infinity"),
                                         (-np.inf, "-Infinity")])
def test_nonfinite_nodes_rejected(bad, literal):
    with pytest.raises(ValidationError):
        InterpolationOperator([0.0, bad, 0.5])
    # JSON accepts NaN and Infinity, so a loaded sequence must be caught too
    seq = PointSequence.from_json(
        '{"points": [0.0, %s, 0.5], "tau": 1.0, "grid_density": 100.0}' % literal)
    with pytest.raises(ValidationError):
        InterpolationOperator.from_sequence(seq)


def _sampled_max(op, K):
    """Max of the Lebesgue function over 2000 points per component plus 20
    interior points per node gap inside a component."""
    xs = []
    for lo, hi in K.intervals:
        xs.append(np.linspace(lo, hi, 2000))
        inside = np.sort(op.nodes[(op.nodes >= lo) & (op.nodes <= hi)])
        frac = np.arange(1, 21) / 21.0
        xs.append((inside[:-1, None] + np.diff(inside)[:, None] * frac).ravel())
    return float(np.max(op.lebesgue_function(np.concatenate(xs))))


_PIECE_CASES = (
    [("cantor3", n) for n in (1, 3, 5)]
    + [("two", n) for n in range(1, 31)]
    + [("sym", n) for n in range(1, 21)])


@pytest.fixture(scope="module")
def piece_sequences():
    sets = {"cantor3": cantor_approx(3, 1.0 / 3.0),
            "two": make_union([(0.0, 1.0), (2.0, 3.0)]),
            "sym": make_union([(-1.0, -0.3), (0.3, 1.0)])}
    seqs = {"cantor3": quasi_leja_sequence(sets["cantor3"], 5, 0.9, rng_seed=0),
            "two": leja_sequence(sets["two"], 30),
            "sym": leja_sequence(sets["sym"], 20)}
    return sets, seqs


@pytest.mark.parametrize("name,n", _PIECE_CASES)
def test_lebesgue_constant_covers_end_and_empty_pieces(piece_sequences, name, n):
    # node-free components and the pieces between a component end and its
    # outermost node are scanned as well as the gaps between nodes
    sets, seqs = piece_sequences
    K = sets[name]
    op = InterpolationOperator.from_sequence(seqs[name], n)
    rep = op.lebesgue_constant(K)
    assert rep.lambda_n >= (1.0 - 1e-12) * _sampled_max(op, K)
    assert op.lebesgue_function(rep.argmax_x) == rep.lambda_n
    assert K.contains(rep.argmax_x)
    if n == 1:
        assert rep.lambda_n == 1.0


def _log_space_basis(nodes, x):
    """L_k(x) for all k from the definition prod_{j != k} (x - x_j) /
    (x_k - x_j), with per-term logs and signs; shape (len(x), len(nodes))."""
    diff = nodes[:, None] - nodes[None, :]
    off = ~np.eye(len(nodes), dtype=bool)
    log_w = -np.where(off, np.log(np.abs(np.where(off, diff, 1.0))), 0.0).sum(axis=1)
    sign_w = np.where(off, np.sign(diff), 1.0).prod(axis=1)
    d = x[:, None] - nodes[None, :]
    logs, sgns = np.log(np.abs(d)), np.sign(d)
    log_l = logs.sum(axis=1)[:, None] - logs + log_w[None, :]
    sign_l = sgns.prod(axis=1)[:, None] * sgns * sign_w[None, :]
    return sign_l * np.exp(log_l)


@pytest.mark.parametrize("K", [make_union([(-1.0, 1.0)]),
                               make_union([(0.0, 1.0), (2.0, 3.0)])],
                         ids=["unit", "two"])
def test_barycentric_matches_log_space_reference(K):
    seq = leja_sequence(K, 200)
    rng = np.random.default_rng(7)
    comps = np.array(K.intervals)
    pick = comps[rng.integers(len(comps), size=300)]
    x = pick[:, 0] + (pick[:, 1] - pick[:, 0]) * rng.random(300)
    for n in (1, 2, 3, 7, 20, 60, 120, 200):
        op = InterpolationOperator.from_sequence(seq, n)
        ref = _log_space_basis(op.nodes, x)
        got = np.column_stack([op.lagrange_basis(k, x) for k in range(n)])
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(op.lebesgue_function(x), np.abs(ref).sum(axis=1),
                                   rtol=1e-12, atol=0.0)
        # node hits are exact: Kronecker deltas and a Lebesgue value of 1
        hits = np.column_stack([op.lagrange_basis(k, op.nodes) for k in range(n)])
        np.testing.assert_array_equal(hits, np.eye(n))
        np.testing.assert_array_equal(op.lebesgue_function(op.nodes), np.ones(n))


def _exact_log_slope(nodes, x):
    """(log Lambda)' and (log Lambda)'' at x from the product form of the
    L_k in exact rational arithmetic."""
    X, x = [Fraction(v) for v in nodes], Fraction(x)
    lam = d1 = d2 = Fraction(0)
    for k, xk in enumerate(X):
        lk, s1, s2 = Fraction(1), Fraction(0), Fraction(0)
        for xj in X[:k] + X[k + 1:]:
            lk *= (x - xj) / (xk - xj)
            s1 += 1 / (x - xj)
            s2 += 1 / (x - xj) ** 2
        sk = 1 if lk > 0 else -1
        lam += sk * lk
        d1 += sk * lk * s1
        d2 += sk * lk * (s1 * s1 - s2)
    g = d1 / lam
    return float(g), float(d2 / lam - g * g), float(lam)


def _clustered():
    """Five pairs of nodes 1e-7 apart and 12 points between the pairs, where
    Lambda is 2e6..2e7 and a sum of the barycentric terms loses about 1e-8
    to cancellation."""
    centers = np.array([-0.9, -0.4, 0.1, 0.5, 0.85])
    nodes = np.concatenate([centers, centers + 1e-7])
    lo, hi = centers[:-1] + 1e-7, centers[1:]
    return nodes, np.concatenate([lo + f * (hi - lo) for f in (0.25, 0.5, 0.75)])


def test_log_slope_accurate_near_clustered_nodes():
    nodes, x = _clustered()
    op = InterpolationOperator(nodes)
    g, gp = op._log_slope(x)
    for xi, gi, gpi in zip(x, g, gp):
        ref_g, ref_gp, lam = _exact_log_slope(nodes, xi)
        assert lam > 1e6
        assert gi == pytest.approx(ref_g, rel=1e-12, abs=0)
        assert gpi == pytest.approx(ref_gp, rel=1e-12, abs=0)


def test_basis_and_lebesgue_function_accurate_near_clustered_nodes():
    # the product form keeps every L_k and the sum of their moduli to a few
    # ulps where the barycentric sum cancels
    nodes, x = _clustered()
    op = InterpolationOperator(nodes)
    lam = op.lebesgue_function(x)
    basis = [op.lagrange_basis(k, x) for k in range(len(nodes))]
    X = [Fraction(v) for v in nodes]
    for i, xi in enumerate(map(Fraction, x)):
        ref = []
        for k, xk in enumerate(X):
            lk = Fraction(1)
            for xj in X[:k] + X[k + 1:]:
                lk *= (xi - xj) / (xk - xj)
            ref.append(lk)
        for k, lk in enumerate(ref):
            assert basis[k][i] == pytest.approx(float(lk), rel=1e-13, abs=0)
        assert lam[i] == pytest.approx(float(sum(map(abs, ref))), rel=1e-13, abs=0)


@given(st.integers(3, 9), st.floats(-0.99, 0.99))
@settings(max_examples=60, deadline=None)
def test_lebesgue_function_at_least_one(n, x):
    # sum_k |L_k| >= |sum_k L_k| = 1 everywhere
    nodes = np.cos(np.pi * np.arange(n) / (n - 1))
    op = InterpolationOperator(nodes)
    assert op.lebesgue_function(x) >= 1.0 - 1e-12


_PROPERTY_SETS = {"unit": make_union([(-1.0, 1.0)]),
                  "two": make_union([(0.0, 1.0), (2.0, 3.0)]),
                  "cantor3": cantor_approx(3, 1.0 / 3.0)}


@functools.lru_cache(maxsize=None)
def _property_sequence(name, tau):
    K = _PROPERTY_SETS[name]
    if tau == 1.0:
        return leja_sequence(K, 30)
    return quasi_leja_sequence(K, 30, tau, rng_seed=0)


def _dense_piece_max(op, K, per_piece=10_000):
    """Max of the Lebesgue function over per_piece points (ends included)
    on every piece of K cut at the nodes."""
    best = -np.inf
    for lo, hi in K.intervals:
        cuts = np.unique(np.concatenate(([lo], op.nodes[(op.nodes > lo) & (op.nodes < hi)],
                                         [hi])))
        for a, b in zip(cuts[:-1], cuts[1:]):
            best = max(best, float(np.max(op.lebesgue_function(np.linspace(a, b, per_piece)))))
    return best


@given(st.sampled_from(sorted(_PROPERTY_SETS)), st.sampled_from(["random", "leja", "quasi"]),
       st.integers(1, 30), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_lebesgue_constant_at_least_dense_scan(name, kind, n, seed):
    K = _PROPERTY_SETS[name]
    if kind == "random":
        comps = np.array(K.intervals)
        rng = np.random.default_rng(seed)
        pick = comps[rng.integers(len(comps), size=n)]
        nodes = pick[:, 0] + (pick[:, 1] - pick[:, 0]) * rng.random(n)
        assume(len(np.unique(nodes)) == n)
        op = InterpolationOperator(nodes)
    else:
        op = InterpolationOperator.from_sequence(
            _property_sequence(name, 1.0 if kind == "leja" else 0.9), n)
    rep = op.lebesgue_constant(K)
    # lambda_n and the dense samples are product-form values of the same flat
    # peak, each within a small multiple of n * eps of the exact Lambda, so
    # the scan may read a few ulps below the best sample: 1e-12 covers that,
    # and the 64 eps lambda term (it counts only for lambda > 70) is margin
    rel = max(1e-12, 64.0 * np.finfo(float).eps * rep.lambda_n)
    assert rep.lambda_n >= (1.0 - rel) * _dense_piece_max(op, K)
    assert op.lebesgue_function(rep.argmax_x) == rep.lambda_n
    assert K.contains(rep.argmax_x)


def _pieces(op, K):
    """The pieces (lo, hi) of K cut at the nodes, and which of them are
    inner (their free ends slope into the piece), as the scan cuts them."""
    nodes = np.sort(op.nodes)
    cuts = [np.concatenate(([lo], nodes[(nodes > lo) & (nodes < hi)], [hi]))
            for lo, hi in K.intervals]
    lo = np.concatenate([c[:-1] for c in cuts])
    hi = np.concatenate([c[1:] for c in cuts])
    ends = np.concatenate((lo, hi))
    free = ~np.isin(ends, nodes)
    g = np.concatenate((np.full(len(lo), np.inf), np.full(len(hi), -np.inf)))
    g[free] = op._log_slope(ends[free])[0]
    return lo, hi, ends[free], (g[:len(lo)] > 0.0) & (g[len(lo):] < 0.0)


def _unpruned_scan(op, K):
    """(lambda_n, argmax_x) with a Newton search on every inner piece."""
    lo, hi, free_ends, inner = _pieces(op, K)
    xs = np.concatenate((free_ends, newton_max(op._log_slope, lo[inner], hi[inner])))
    vals = op.lebesgue_function(xs)
    i = np.lexsort((xs, -vals))[0]
    return float(vals[i]), float(xs[i])


def _scan_battery():
    unit, two = _PROPERTY_SETS["unit"], _PROPERTY_SETS["two"]
    leja = leja_sequence(unit, 1000)
    cases = [(InterpolationOperator.from_sequence(leja, n), unit) for n in (50, 200, 400, 1000)]
    cases += [(InterpolationOperator.from_sequence(_property_sequence("two", 1.0), n), two)
              for n in range(2, 31)]
    for depth in (3, 4):
        C = cantor_approx(depth, 1.0 / 3.0)
        seq = quasi_leja_sequence(C, 60, 0.9, rng_seed=0)
        cases += [(InterpolationOperator.from_sequence(seq, n), C) for n in (5, 20, 60)]
    for tau in (0.5, 0.9):
        seq = quasi_leja_sequence(unit, 100, tau, rng_seed=1)
        cases += [(InterpolationOperator.from_sequence(seq, n), unit) for n in (10, 50, 100)]
    cases += [(InterpolationOperator(np.linspace(-1.0, 1.0, n)), unit) for n in range(2, 41)]
    cases += [(InterpolationOperator(np.cos((2 * np.arange(n) + 1) * np.pi / (2 * n))), unit)
              for n in (1, 2, 3, 10, 100, 1000, 2000)]
    cases.append((InterpolationOperator(_clustered()[0]), unit))
    rng = np.random.default_rng(3)
    cases += [(InterpolationOperator(rng.uniform(-1.0, 1.0, n)), unit)
              for n in rng.integers(1, 60, size=20)]
    return cases


def test_pruned_scan_is_the_unpruned_scan_bitwise():
    for op, K in _scan_battery():
        rep = op.lebesgue_constant(K)
        assert (rep.lambda_n, rep.argmax_x) == _unpruned_scan(op, K), (op.n, K.intervals)


def _gap_samples(op, K):
    """Five interior samples of every gap between adjacent nodes, those in K."""
    nodes = np.sort(op.nodes)
    x = (nodes[:-1, None] + np.diff(nodes)[:, None] * np.arange(1, 6) / 6.0).ravel()
    comps = np.array(K.intervals)
    i = np.searchsorted(comps[:, 0], x, side="right") - 1
    return x[(i >= 0) & (x <= comps[np.maximum(i, 0), 1])]


def test_batch_scan_matches_each_operator_scanned_alone():
    # the battery's operators on each set, of mixed sizes (n = 1 included)
    # and in shuffled order, in one scan
    by_set = {}
    for op, K in _scan_battery():
        by_set.setdefault(K.intervals, (K, []))[1].append(op)
    rng = np.random.default_rng(5)
    sizes = set()
    for K, ops in by_set.values():
        ops = [ops[i] for i in rng.permutation(len(ops))]
        sizes.update(op.n for op in ops)
        reps = lebesgue_constants(ops, K)
        assert [rep.n for rep in reps] == [op.n for op in ops]
        for op, rep in zip(ops, reps):
            alone = op.lebesgue_constant(K)
            assert rep.lambda_n == pytest.approx(alone.lambda_n, rel=1e-13, abs=0)
            assert op.lebesgue_function(rep.argmax_x) == rep.lambda_n
            assert K.contains(rep.argmax_x)
            x = _gap_samples(op, K)
            if len(x):
                assert rep.lambda_n >= (1.0 - 1e-12) * np.max(op.lebesgue_function(x))
    assert 1 in sizes and len(by_set) == 4
    assert lebesgue_constants([], _PROPERTY_SETS["unit"]) == []


def test_prefix_scan_memory_bounded(K_unit):
    # each padded row block holds two tables of 4 MB, the pieces of all
    # prefixes take a few MB more: under 20 MB in all
    seq = leja_sequence(K_unit, 2000)
    for ns in (range(2, 301), range(100, 2001, 100)):
        tracemalloc.start()
        try:
            reps = InterpolationOperator.from_sequence(seq, ns[-1]).lebesgue_constant(K_unit, ns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6
        assert [rep.n for rep in reps] == list(ns)


def test_prefix_reports_are_those_of_the_sequence_prefixes():
    K = make_union([(0.0, 1.0), (2.0, 3.0)])
    seq = leja_sequence(K, 30)
    op = InterpolationOperator.from_sequence(seq)
    ns = [30, 2, 7, 7, 1, 19]
    reps = op.lebesgue_constant(K, ns)
    assert reps == lebesgue_constants([InterpolationOperator.from_sequence(seq, n)
                                       for n in ns], K)
    assert [rep.n for rep in reps] == ns
    assert op.lebesgue_constant(K, []) == []
    for bad in ([0], [31], [2.5]):
        with pytest.raises(ValidationError):
            op.lebesgue_constant(K, bad)


@pytest.mark.parametrize("nodes,K", [([0.3], [(-1.0, 1.0)]), ([0.3], [(0.3, 1.0)]),
                                     ([0.0, 1.0], [(0.0, 1.0)]), ([1.0, 0.0], [(0.0, 1.0)])])
def test_lebesgue_constant_one_keeps_the_smaller_abscissa(nodes, K):
    # Lambda == 1 on all of K: every piece ties, so every inner piece stays
    # in the search and the smallest candidate abscissa wins, as unpruned
    op, K = InterpolationOperator(nodes), make_union(K)
    rep = op.lebesgue_constant(K)
    assert rep.lambda_n == 1.0
    assert (rep.lambda_n, rep.argmax_x) == _unpruned_scan(op, K)


@given(st.sampled_from(sorted(_PROPERTY_SETS)), st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_pruned_scan_is_unpruned_on_random_nodes(name, n, seed):
    K = _PROPERTY_SETS[name]
    comps = np.array(K.intervals)
    rng = np.random.default_rng(seed)
    pick = comps[rng.integers(len(comps), size=n)]
    nodes = pick[:, 0] + (pick[:, 1] - pick[:, 0]) * rng.random(n)
    assume(len(np.unique(nodes)) == n)
    op = InterpolationOperator(nodes)
    rep = op.lebesgue_constant(K)
    assert (rep.lambda_n, rep.argmax_x) == _unpruned_scan(op, K)


@pytest.mark.parametrize("kind", ["leja", "quasi", "equispaced", "clustered"])
def test_midpoint_tangent_bounds_log_lambda_on_its_piece(kind):
    # log Lambda is concave on every piece, so its tangent at the midpoint
    # lies above it on the whole piece
    K = _PROPERTY_SETS["unit"]
    nodes = {"leja": lambda: leja_sequence(K, 60).points,
             "quasi": lambda: _property_sequence("unit", 0.9).points,
             "equispaced": lambda: np.linspace(-1.0, 1.0, 25),
             "clustered": lambda: _clustered()[0]}[kind]()
    op = InterpolationOperator(nodes)
    lo, hi, _, _ = _pieces(op, K)
    mid = 0.5 * (lo + hi)
    g, f = op._log_track(mid, False)
    np.testing.assert_allclose(f, np.log(op.lebesgue_function(mid)), rtol=1e-12, atol=1e-12)
    x = np.linspace(lo, hi, 200).T
    tangent = f[:, None] + g[:, None] * (x - mid[:, None])
    assert np.all(np.log(op.lebesgue_function(x)) <= tangent + 1e-12 * (1.0 + np.abs(f[:, None])))


def test_scan_searches_few_pieces_at_high_degree(monkeypatch):
    # Leja on [-1, 1] at n = 400: the tangent bounds send under 5% of the
    # inner pieces to the Newton search
    from lejabounds import interp
    K = _PROPERTY_SETS["unit"]
    op = InterpolationOperator(leja_sequence(K, 400).points)
    brackets = []

    def counted(slope, lo, hi, owner):
        brackets.append(len(lo))
        return newton_max(slope, lo, hi, owner)

    monkeypatch.setattr(interp, "newton_max", counted)
    rep = op.lebesgue_constant(K)
    inner = np.count_nonzero(_pieces(op, K)[3])
    assert inner >= 399 and len(brackets) == 1
    assert 1 <= brackets[0] < 0.05 * inner
    assert (rep.lambda_n, rep.argmax_x) == _unpruned_scan(op, K)
