import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lejabounds import CompactSet, ValidationError, cantor_approx, from_spec, make_union


def test_basic_properties():
    K = make_union([(0.0, 1.0), (2.0, 3.0)])
    assert K.n_components == 2
    assert K.lo == 0.0 and K.hi == 3.0
    assert K.diam == 3.0
    assert K.measure == 2.0


def test_merge_overlapping_and_touching():
    K = make_union([(0.0, 1.0), (0.5, 2.0), (2.0, 2.5)])
    assert K.intervals == ((0.0, 2.5),)
    K2 = make_union([(3.0, 4.0), (0.0, 1.0)])
    assert K2.intervals == ((0.0, 1.0), (3.0, 4.0))


def test_validation_errors():
    with pytest.raises(ValidationError):
        make_union([])
    with pytest.raises(ValidationError):
        make_union([(1.0, 1.0)])
    with pytest.raises(ValidationError):
        make_union([(0.0, math.inf)])
    with pytest.raises(ValidationError):
        CompactSet(intervals=((1.0, 0.0),))
    with pytest.raises(ValidationError):
        CompactSet(intervals=((0.0, 2.0), (1.0, 3.0)))


def test_distance_real_and_complex():
    K = make_union([(0.0, 1.0), (2.0, 3.0)])
    assert K.dist_to(0.5) == 0.0
    assert K.dist_to(1.5) == 0.5
    assert K.dist_to(-2.0) == 2.0
    assert K.dist_to(0.5 + 1.0j) == 1.0
    # corner: closest point is an endpoint
    assert np.isclose(K.dist_to(1.5 + 1.0j), math.hypot(0.5, 1.0))
    zs = np.array([0.5, 1.5, 4.0 + 3.0j])
    np.testing.assert_allclose(K.dist_to(zs), [0.0, 0.5, math.hypot(1.0, 3.0)])


def test_contains():
    K = make_union([(0.0, 1.0)])
    assert K.contains(0.0) and K.contains(1.0) and K.contains(0.3)
    assert not K.contains(1.0 + 1e-6)
    assert K.contains(1.0 + 1e-6, tol=1e-5)


def test_grid_covers_components():
    K = make_union([(0.0, 1.0), (2.0, 3.0)])
    g = K.grid(10.0)
    assert g[0] == 0.0 and g[-1] == 3.0
    assert np.all(np.diff(g) >= 0)
    # every grid point is in the set
    assert all(K.contains(float(x)) for x in g)
    # both endpoints of each component present
    for lo, hi in K.intervals:
        assert lo in g and hi in g


def test_grid_size_checked_before_int():
    with pytest.raises(ValidationError, match="grid of inf points"):
        make_union([(0.0, 1e308)]).grid(10.0)
    with pytest.raises(ValidationError, match="grid of 5000002 points"):
        make_union([(0.0, 1.0)]).grid(5_000_001.0)
    assert make_union([(0.0, 1e-9)]).grid(10.0).tolist() == [0.0, 1e-9]


def test_cantor_approx():
    K = cantor_approx(3, 1.0 / 3.0)
    assert K.n_components == 8
    assert K.lo == 0.0 and K.hi == 1.0
    assert np.isclose(K.measure, (2.0 / 3.0) ** 3)
    assert cantor_approx(3.0, 1.0 / 3.0) == K        # an integral real depth
    with pytest.raises(ValidationError):
        cantor_approx(2, 0.6)


def test_from_spec_roundtrip():
    K = make_union([(-1.0, -0.3), (0.3, 1.0)])
    assert from_spec(K.to_spec()).intervals == K.intervals
    K2 = from_spec({"cantor": {"depth": 2, "ratio": 0.25}})
    assert K2.n_components == 4
    assert from_spec({"cantor": {"depth": 2.0, "ratio": 0.25}}) == K2


def test_component_of():
    K = make_union([(0.0, 1.0), (2.0, 3.0)])
    assert K.component_of(0.5) == (0.0, 1.0)
    assert K.component_of(2.0) == (2.0, 3.0)
    assert K.component_of(3.0) == (2.0, 3.0)
    # a point in no component falls back to the hull
    assert K.component_of(1.5) == (0.0, 3.0)


@given(st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
                min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_make_union_idempotent(pairs):
    pairs = [(min(a, b), max(a, b)) for a, b in pairs if min(a, b) < max(a, b) - 1e-9]
    if not pairs:
        return
    K = make_union(pairs)
    assert make_union(list(K.intervals)).intervals == K.intervals
    # components disjoint with positive gaps
    for (a0, b0), (a1, b1) in zip(K.intervals, K.intervals[1:]):
        assert b0 < a1
