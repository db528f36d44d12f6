import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lejabounds import (ValidationError, ineq1, ineq2, ineq2_tightness_scan,
                        ineq3, ineq4, switching_constant)
from lejabounds.inequalities import (ineq1_log_margin, ineq2_log_margin,
                                     ineq3_log_margin)


def test_ineq1_worked_example():
    # a = b = 1, x = 2: lhs = (3/2)^(1/2) (1/2)^(1/2) = sqrt(3)/2
    rep = ineq1(1.0, 1.0, 2.0)
    assert rep.lhs == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-12)
    assert rep.rhs == 1.0
    assert rep.holds


def test_ineq1_equality_at_edge():
    # x = -a zeroes the first factor: margin is +inf
    rep = ineq1(1.0, 2.0, -1.0)
    assert rep.holds and rep.lhs == 0.0


def test_ineq1_rejects_excluded_interval():
    lam = switching_constant()
    with pytest.raises(ValidationError):
        ineq1(1.0, 1.0, 0.5 * math.exp(-lam))
    with pytest.raises(ValidationError):
        ineq1(1.0, 1.0, 0.0)
    # just outside is fine
    assert ineq1(1.0, 1.0, math.exp(-lam) + 1e-12).holds


def test_ineq1_fails_strictly_inside_if_forced():
    # the guarded region exists for a reason: at a = b = 1, x = 1/2 the
    # mean is sqrt(3)/2 / (1/2) = sqrt(3) > 1 (evaluate the raw formula)
    a = b = 1.0
    x = 0.5
    lhs = (abs(x + a) / abs(x)) ** 0.5 * (abs(x - b) / abs(x)) ** 0.5
    assert lhs > 1.0


def test_ineq2_worked_example():
    # A = B = 1, a = 1/2: lhs = sqrt(3), rhs = 2 * 2^(1/8)
    rep = ineq2(1.0, 1.0, 0.5)
    assert rep.lhs == pytest.approx(math.sqrt(3.0), rel=1e-12)
    assert rep.rhs == pytest.approx(2.0 * 2.0 ** 0.125, rel=1e-12)
    assert rep.holds


def test_report_is_finite_up_to_the_largest_double():
    # lhs is about 1e305, near but below the largest double
    assert math.isfinite(ineq2(1.0, 1.0, 1e-305).lhs)


def test_ineq2_domain():
    with pytest.raises(ValidationError):
        ineq2(1.0, 1.0, 1.5)
    with pytest.raises(ValidationError):
        ineq2(1.0, -1.0, 0.5)
    with pytest.raises(ValidationError):
        ineq2(1.0, 1.0, 0.0)


def test_ineq2_tightness_scan():
    scan = ineq2_tightness_scan()
    assert scan.best_value == pytest.approx(0.125, abs=1e-9)
    assert scan.best_b == pytest.approx(3.0, abs=1e-3)


def test_ineq3_worked_example():
    # a = 1, b = 3: lhs = 4 / 3^(3/4)
    rep = ineq3(1.0, 3.0)
    assert rep.lhs == pytest.approx(4.0 / 3.0 ** 0.75, rel=1e-12)
    assert rep.rhs == 2.0
    assert rep.holds


def test_ineq3_equality_at_diagonal():
    rep = ineq3(2.5, 2.5)
    assert rep.margin == pytest.approx(0.0, abs=1e-14)
    assert rep.holds


def test_ineq4():
    rep = ineq4()
    assert rep.holds
    assert rep.rhs == pytest.approx(0.24565978, abs=1e-8)
    assert rep.margin > 0.045


def test_vectorized_margins_match_scalar(rng):
    a = rng.uniform(0.1, 5.0, 50)
    b = rng.uniform(0.1, 5.0, 50)
    x = 10.0 + rng.uniform(0.0, 5.0, 50)
    vec = ineq1_log_margin(a, b, x)
    for i in range(50):
        assert vec[i] == pytest.approx(float(ineq1_log_margin(a[i], b[i], x[i])))


@given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.floats(-1e4, 1e4))
@settings(max_examples=300, deadline=None)
def test_ineq1_holds_outside(a, b, x):
    lam = switching_constant()
    if x == 0.0 or (-math.exp(-lam) * a < x < math.exp(-lam) * b):
        return
    assert float(ineq1_log_margin(a, b, x)) >= -1e-12


@given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.floats(1e-9, 1.0))
@settings(max_examples=300, deadline=None)
def test_ineq2_holds(A, B, frac):
    a = A * frac
    if not 0 < a <= A:
        return
    assert float(ineq2_log_margin(A, B, a)) >= -1e-12


@given(st.floats(1e-6, 1e6), st.floats(1e-6, 1e6))
@settings(max_examples=300, deadline=None)
def test_ineq3_holds(a, b):
    assert float(ineq3_log_margin(a, b)) >= -1e-12
