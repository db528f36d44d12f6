"""Lebesgue-constant growth bounds driven by the Green's function.

For a tau-quasi-Leja sequence of n+1 points on K (tau = 1: exact Leja) the
interpolation operator norm obeys, for every delta > 0,

    Lambda_n <= n (2/tau^2) (D / Delta)^(9/8 + 2 log(1/tau)/lam),

where D = diam(K), Delta = tau delta exp(-n G(delta)) is the separation
floor, G(delta) is the max of the Green's function over the closed
2*delta neighborhood of K and lam is the switching constant. The factor
after n is the switching spread bound (switching.spread_bound) at D/Delta;
both are evaluated by one log-space core, _log_spread. At tau = 1 the bound
reads 2 n (diam(K) / delta * exp(n G(delta)))^(9/8).

The bound is one (n x delta) table, _log_bounds. G(delta) depends on
neither n nor tau and any delta gives a valid bound, so optimize_bound
evaluates G once per delta of one shared log grid, in one batched call per
table, and takes for every n the minimum over the table (widening the grid
by a decade on a side where some n has its minimum on the edge).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compact_set import ValidationError, _check_int, _check_tau
from .green import GreenModel

_LOG_HUGE = math.log(np.finfo(float).max)
_WIDEN_RETRIES = 3
_GRID_POINTS = 64
_LAM = math.log1p(0.2784645427610738)   # W(1/e), the root of u e^u = 1/e


def _exp(log_value: float) -> float:
    """exp(log_value), or +inf past the largest double."""
    return math.exp(log_value) if log_value <= _LOG_HUGE else math.inf


def switching_constant() -> float:
    """Positive root lam of exp(exp(lam)) * (exp(lam) - 1) = 1. With
    u = e^lam - 1 the equation reads u e^u = 1/e, so lam = log1p(W(1/e)),
    W the Lambert W function."""
    return _LAM


def _log_spread(log_ratio, tau: float):
    """log of (2/tau^2) R^(9/8 + 2 log(1/tau)/lam) at log R = log_ratio (a
    float or an array), lam the switching constant: the switching spread
    bound with R = D/Delta, and the Lebesgue bound over n with
    R = diam/(tau delta) e^{n G(delta)}."""
    return (math.log(2.0) - 2.0 * math.log(tau)
            + (9.0 / 8.0 + 2.0 * math.log(1.0 / tau) / _LAM) * log_ratio)


def _log_bounds(diam: float, ns, deltas, gs, tau: float) -> np.ndarray:
    """log bound at every n (rows) and delta (columns), gs = G(deltas): math.log (np.log
    may round otherwise) once per n and per tau delta, the rest elementwise."""
    log_tau_delta = np.array([math.log(tau * d) for d in np.asarray(deltas).tolist()])
    log_ratio = (math.log(diam) - log_tau_delta) + np.multiply.outer(ns, gs)
    return np.array([math.log(k) for k in ns])[:, None] + _log_spread(log_ratio, tau)


def _check_args(n: int, tau: float) -> int:
    """Checks a point count n and a relaxation ratio tau; returns n as an int."""
    n = _check_int(n, "n must be an integer")
    if n < 1:
        raise ValidationError("n must be at least 1")
    _check_tau(tau)
    return n


def lebesgue_bound(model: GreenModel, n: int, delta: float) -> float:
    """Upper bound 2n (diam/delta * e^{n G(delta)})^{9/8} for exact Leja
    nodes; +inf when the value overflows a double."""
    return quasi_lebesgue_bound(model, n, 1.0, delta)


def quasi_lebesgue_bound(model: GreenModel, n: int, tau: float, delta: float) -> float:
    """Upper bound for tau-quasi-Leja nodes, one cell of the bound table;
    +inf past a double. tau = 1 reproduces lebesgue_bound bitwise."""
    n = _check_args(n, tau)
    G = model.neighborhood_max(delta)
    return _exp(float(_log_bounds(model.set.diam, [n], [delta], [G], tau)[0, 0]))


@dataclass
class BoundReport:
    """Delta table for one n: the (valid) bound at every delta of the grid,
    and its minimum best_bound = min(bound_values), attained at best_delta."""

    n: int
    tau: float
    delta_grid: np.ndarray
    g_values: np.ndarray
    bound_values: np.ndarray
    best_delta: float
    best_bound: float


def optimize_bound(model: GreenModel, n, tau: float = 1.0, delta_grid=None):
    """Minimize the bound over a table of deltas, for one n or several.

    n is an int (returns one BoundReport) or a sequence of ints (returns a
    list of reports, one per n, all on the same grid). G is evaluated once
    per delta of the table, in one call for the first grid and one for
    each side a widening adds. Default grid: 64 log-spaced deltas on
    [1e-4 * diam, diam]; while some n has its minimum on an edge of it, that
    side is extended by a decade at the grid's log spacing (at most
    _WIDEN_RETRIES times). An explicit delta_grid of one or more positive
    deltas is used as given, without widening.
    """
    single = np.ndim(n) == 0
    ns = [n] if single else list(n)
    # every n is checked; an empty sequence fails as n = 0 does
    ns = [_check_args(k, tau) for k in ns or [0]]
    diam = model.set.diam
    given = delta_grid is not None
    grid = np.asarray(delta_grid if given else np.geomspace(1e-4 * diam, diam, _GRID_POINTS),
                      dtype=float)
    if grid.ndim != 1 or len(grid) < 1 or np.any(grid <= 0):
        raise ValidationError("delta grid must be 1-d with at least 1 positive delta")

    def G(deltas):
        """G on a table of deltas in one call; an empty table makes none."""
        return np.atleast_1d(model.neighborhood_max(*deltas)) if len(deltas) else deltas

    g_vals = G(grid)
    for attempt in range(_WIDEN_RETRIES + 1):
        logs = _log_bounds(diam, ns, grid, g_vals, tau)
        idx = np.argmin(logs, axis=1)
        left, right = np.any(idx == 0), np.any(idx == len(grid) - 1)
        if given or attempt == _WIDEN_RETRIES or not (left or right):
            break
        step = math.log(grid[1] / grid[0])
        ks = step * np.arange(1, math.ceil(math.log(10.0) / step) + 1)
        lo = grid[0] * np.exp(-ks[::-1]) if left else grid[:0]
        hi = grid[-1] * np.exp(ks) if right else grid[:0]
        grid = np.concatenate([lo, grid, hi])
        g_vals = np.concatenate([G(lo), g_vals, G(hi)])

    bounds = np.array([[_exp(v) for v in row] for row in logs])
    reports = [BoundReport(n=k, tau=tau, delta_grid=grid, g_values=g_vals,
                           bound_values=b, best_delta=float(grid[i]), best_bound=float(b[i]))
               for k, b, i in zip(ns, bounds, idx)]
    return reports[0] if single else reports
