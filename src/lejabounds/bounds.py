"""Lebesgue-constant growth bounds driven by the Green's function.

For a Leja sequence of n+1 points on K the interpolation operator norm obeys

    Lambda_n <= 2 n (diam(K) / delta * exp(n G(delta)))^(9/8)

for every delta > 0, where G(delta) is the max of the Green's function over
the closed 2*delta neighborhood of K. For a tau-quasi-Leja sequence the same
shape holds with prefactor 2/tau^2 * n, delta replaced by tau*delta, and the
exponent enlarged to 9/8 + 2*log(1/tau)/lam, where lam is the switching
constant (the positive root of exp(exp(lam))*(exp(lam)-1) = 1). At tau = 1
the quasi form reduces to the plain form exactly; both are evaluated through
one shared log-space core so the reduction is bitwise.

optimize_bound scans a log grid in delta (widening it when the minimum lands
on an edge) and golden-refines the best cell; every evaluated delta yields a
valid bound, so the minimum over the scan is itself a valid bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._search import refine_grid_max
from .compact_set import ValidationError
from .green import GreenModel

_LOG_HUGE = math.log(np.finfo(float).max)


@lru_cache(maxsize=None)
def switching_constant(tol: float = 1e-10) -> float:
    """Positive root of exp(exp(lam)) * (exp(lam) - 1) = 1, by bisection on
    [0.1, 0.5] (the function is increasing there) until |f| <= tol."""
    if not 0 < tol < 1:
        raise ValidationError("tol must be in (0, 1)")

    def f(lam: float) -> float:
        e = math.exp(lam)
        return math.exp(e) * (e - 1.0) - 1.0

    lo, hi = 0.1, 0.5
    if f(lo) >= 0 or f(hi) <= 0:
        raise ValidationError("root not bracketed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= tol:
            return mid
        if fm > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _exponent(tau: float, lam: float = None) -> float:
    """Growth exponent 9/8 + 2 log(1/tau)/lam shared by the Lebesgue bound
    and the switching spread bound; lam defaults to the switching constant."""
    lam = switching_constant() if lam is None else float(lam)
    return 9.0 / 8.0 + 2.0 * math.log(1.0 / tau) / lam


def _log_bound(diam: float, G: float, n: int, delta: float, tau: float) -> float:
    base = math.log(diam) - math.log(tau * delta) + n * G
    return math.log(2.0) - 2.0 * math.log(tau) + math.log(n) + _exponent(tau) * base


def _check_args(n: int, delta: float, tau: float) -> None:
    if n < 1:
        raise ValidationError("n must be at least 1")
    if not delta > 0:
        raise ValidationError("delta must be positive")
    if not 0.0 < tau <= 1.0:
        raise ValidationError("tau must lie in (0, 1]")


def lebesgue_bound(model: GreenModel, n: int, delta: float) -> float:
    """Upper bound 2n (diam/delta * e^{n G(delta)})^{9/8} for exact Leja
    nodes; +inf when the value overflows a double."""
    return quasi_lebesgue_bound(model, n, 1.0, delta)


def quasi_lebesgue_bound(model: GreenModel, n: int, tau: float, delta: float) -> float:
    """Upper bound for tau-quasi-Leja nodes; tau = 1 reproduces
    lebesgue_bound bitwise."""
    _check_args(n, delta, tau)
    G = model.neighborhood_max(delta)
    lv = _log_bound(model.set.diam, G, n, delta, tau)
    return math.exp(lv) if lv <= _LOG_HUGE else math.inf


@dataclass
class BoundReport:
    """Delta scan for one n: valid bound values over the grid plus the
    refined minimizer. best_bound <= min(bound_values) always."""

    n: int
    tau: float
    delta_grid: np.ndarray
    g_values: np.ndarray
    bound_values: np.ndarray
    best_delta: float
    best_bound: float

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("delta,G,bound\n")
            for d, g, b in zip(self.delta_grid, self.g_values, self.bound_values):
                fh.write(f"{d!r},{g!r},{b!r}\n")

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "tau": self.tau,
            "delta_grid": list(map(float, self.delta_grid)),
            "g_values": list(map(float, self.g_values)),
            "bound_values": list(map(float, self.bound_values)),
            "best_delta": float(self.best_delta),
            "best_bound": float(self.best_bound),
        }


def optimize_bound(model: GreenModel, n: int, tau: float = 1.0,
                   delta_grid=None, grid_points: int = 64,
                   widen_retries: int = 3, refine_iters: int = 20) -> BoundReport:
    """Minimize the bound over delta.

    Default grid: grid_points log-spaced deltas on [1e-4 * diam, diam].
    If the discrete argmin lands on a grid edge the grid is widened a decade
    on that side (up to widen_retries times); the best cell is then golden
    refined in log delta.
    """
    _check_args(n, 1.0, tau)
    diam = model.set.diam
    if delta_grid is None:
        grid = np.geomspace(1e-4 * diam, diam, grid_points)
    else:
        grid = np.asarray(delta_grid, dtype=float)
        if grid.ndim != 1 or len(grid) < 2 or np.any(grid <= 0):
            raise ValidationError("delta_grid must be positive and 1-d")

    def log_bound_at(delta: float) -> float:
        G = model.neighborhood_max(float(delta))
        return _log_bound(diam, G, n, float(delta), tau)

    for _ in range(widen_retries + 1):
        logs = np.array([log_bound_at(d) for d in grid])
        i = int(np.argmin(logs))
        if 0 < i < len(grid) - 1 or delta_grid is not None:
            break
        if i == 0:
            grid = np.concatenate([np.geomspace(grid[0] / 10.0, grid[0], 9)[:-1], grid])
        else:
            grid = np.concatenate([grid, np.geomspace(grid[-1], grid[-1] * 10.0, 9)[1:]])

    log_grid = [math.log(d) for d in grid]
    x_log, neg = refine_grid_max(lambda s: -log_bound_at(math.exp(s)),
                                 log_grid, -logs, i, iters=refine_iters)
    best_log = -neg
    best_delta = math.exp(x_log)

    g_vals = np.array([model.neighborhood_max(float(d)) for d in grid])
    bounds = np.where(logs <= _LOG_HUGE, np.exp(np.minimum(logs, _LOG_HUGE)), np.inf)
    best = math.exp(best_log) if best_log <= _LOG_HUGE else math.inf
    return BoundReport(n=n, tau=tau, delta_grid=grid, g_values=g_vals,
                       bound_values=bounds, best_delta=best_delta, best_bound=best)
