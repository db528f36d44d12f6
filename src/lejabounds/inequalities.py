"""Elementary inequalities backing the switching-strategy estimates.

Each of facts 1-3 has one core that takes array arguments and returns
(log lhs, log rhs). The vectorized *_log_margin functions return
log(rhs) - log(lhs) and are what the Monte Carlo verification sweeps call;
the scalar wrappers return an IneqReport of the same margin, where "holds"
means margin >= -TOL with TOL absorbing roundoff.

The four facts:

1. For a, b > 0, lam the switching constant and real x != 0 outside the
   open interval (-e^-lam a, e^-lam b), the weighted geometric mean

       (|x + a| / |x|)^(b/(a+b)) * (|x - b| / |x|)^(a/(a+b)) <= 1.

   Inside that interval it can fail, which is exactly why the two-track
   rule switches there; the core raises on such inputs rather than
   reporting a meaningless margin.

2. For 0 < a <= A and B > 0,

       ((A-a)/a)^(B/(A+B)) * ((B+a)/a)^(A/(A+B))
           <= (A/a) * (min(A,B) / min(a,B))^(1/8).

   The 1/8 cannot be lowered: the governing exponent is
   sup_B (B-1)/(B+1)^2 = 1/8, attained at B = 3 (see tightness_scan).

3. For a, b > 0,  (a + b) / (a^(a/(a+b)) * b^(b/(a+b))) <= 2, with
   equality iff a = b.

4. The switching constant exceeds 1/5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._search import zoom_max
from .bounds import _exp, switching_constant
from .compact_set import ValidationError

TOL = 1e-12


@dataclass(frozen=True)
class IneqReport:
    lhs: float
    rhs: float
    margin: float          # log(rhs) - log(lhs)
    holds: bool


def _report(log_lhs, log_rhs) -> IneqReport:
    log_lhs, log_rhs = float(log_lhs), float(log_rhs)
    margin = log_rhs - log_lhs
    return IneqReport(lhs=_exp(log_lhs), rhs=_exp(log_rhs),
                      margin=margin, holds=bool(margin >= -TOL))


def _ineq1_logs(a, b, x):
    """(log lhs, log rhs) of the shifted-ratio geometric mean against 1 (fact 1)."""
    a, b, x = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, x)))
    if np.any(a <= 0) or np.any(b <= 0):
        raise ValidationError("offsets a, b must be positive")
    if np.any(x == 0):
        raise ValidationError("x = 0 is outside the domain")
    es = math.exp(-switching_constant())
    inside = (x > -es * a) & (x < es * b)
    if np.any(inside):
        raise ValidationError("x inside the open exclusion interval "
                              "(-e^-lam a, e^-lam b); the bound can fail there")
    wa = b / (a + b)
    wb = a / (a + b)
    with np.errstate(divide="ignore"):
        log_lhs = (wa * (np.log(np.abs(x + a)) - np.log(np.abs(x)))
                   + wb * (np.log(np.abs(x - b)) - np.log(np.abs(x))))
    return log_lhs, 0.0


def _ineq2_logs(A, B, a):
    A, B, a = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (A, B, a)))
    if np.any(a <= 0) or np.any(B <= 0) or np.any(a > A):
        raise ValidationError("need 0 < a <= A and B > 0")
    with np.errstate(divide="ignore"):
        log_lhs = (B / (A + B) * np.log((A - a) / a)
                   + A / (A + B) * np.log((B + a) / a))
    log_rhs = np.log(A / a) + 0.125 * np.log(np.minimum(A, B) / np.minimum(a, B))
    return log_lhs, log_rhs


def _ineq3_logs(a, b):
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if np.any(a <= 0) or np.any(b <= 0):
        raise ValidationError("need a, b > 0")
    log_lhs = np.log(a + b) - (a * np.log(a) + b * np.log(b)) / (a + b)
    return log_lhs, math.log(2.0)


def ineq1_log_margin(a, b, x):
    log_lhs, log_rhs = _ineq1_logs(a, b, x)
    return log_rhs - log_lhs


def ineq1(a: float, b: float, x: float) -> IneqReport:
    return _report(*_ineq1_logs(a, b, x))


def ineq2_log_margin(A, B, a):
    log_lhs, log_rhs = _ineq2_logs(A, B, a)
    return log_rhs - log_lhs


def ineq2(A: float, B: float, a: float) -> IneqReport:
    return _report(*_ineq2_logs(A, B, a))


def ineq3_log_margin(a, b):
    log_lhs, log_rhs = _ineq3_logs(a, b)
    return log_rhs - log_lhs


def ineq3(a: float, b: float) -> IneqReport:
    return _report(*_ineq3_logs(a, b))


def ineq4() -> IneqReport:
    lam = switching_constant()
    # linear margin here; the claim is a strict separation, not a ratio
    return IneqReport(lhs=0.2, rhs=lam, margin=lam - 0.2, holds=bool(lam > 0.2))


@dataclass(frozen=True)
class TightnessScan:
    best_b: float
    best_value: float


def ineq2_tightness_scan() -> TightnessScan:
    """Maximize (B-1)/(B+1)^2, the exponent that makes the second
    inequality sharp, over a 4096-point log grid of B in [1, 1e3] zoomed 8
    times. The maximum is 1/8 at B = 3."""
    def f(u):
        B = np.exp(u)
        return (B - 1.0) / (B + 1.0) ** 2

    (u,), (value,) = zoom_max(f, 0.0, math.log(1e3), (4096,) + (33,) * 8)
    return TightnessScan(best_b=math.exp(u), best_value=float(value))
