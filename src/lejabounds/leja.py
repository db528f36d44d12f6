"""Leja and tau-quasi-Leja point sequences on interval unions.

Exact mode picks, at every step, the point of K maximizing the distance
product to the points already chosen (grid argmax, then a bracketed Newton
refinement inside the two cells around it, ties toward the smaller
abscissa). Quasi mode with relaxation tau picks uniformly at random
(seeded) among all grid points whose product reaches tau times the refined
step maximum, falling back to the refined argmax when no grid point
qualifies; that fallback also makes tau = 1 reproduce exact mode bit for
bit.

Products are accumulated in log space: a running vector of
sum_j log|grid - x_j| is updated with one term per step, so an n-point
sequence costs O(n * grid) overall.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .compact_set import CompactSet, ValidationError, _check_tau
from .green import GreenModel

DEFAULT_GRID_DENSITY = 10_000.0
_NEWTON_ITERS = 100   # safety cap; a step converges in a handful


@dataclass(frozen=True)
class PointSequence:
    """A generated sequence plus the provenance needed to audit it."""

    points: tuple
    tau: float
    grid_density: float
    rng_seed: int
    x0_policy: str
    achieved_ratios: tuple      # ratios[k-1]: step-k product / refined step max
    step_log_maxima: tuple      # log of the refined step max, one per step

    def __len__(self) -> int:
        return len(self.points)

    def min_separation(self) -> float:
        pts = np.sort(np.asarray(self.points))
        return float(np.diff(pts).min()) if len(pts) > 1 else math.inf

    def to_json(self) -> dict:
        return {
            "points": list(map(float, self.points)),
            "tau": self.tau,
            "grid_density": self.grid_density,
            "rng_seed": self.rng_seed,
            "x0_policy": self.x0_policy,
            "achieved_ratios": list(map(float, self.achieved_ratios)),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PointSequence":
        if isinstance(obj, str):
            obj = json.loads(obj)
        seed = obj.get("rng_seed")
        return cls(points=tuple(obj["points"]), tau=float(obj["tau"]),
                   grid_density=float(obj["grid_density"]),
                   rng_seed=None if seed is None else int(seed),
                   x0_policy=str(obj.get("x0_policy", "right")),
                   achieved_ratios=tuple(obj.get("achieved_ratios", ())),
                   step_log_maxima=tuple(obj.get("step_log_maxima", ())))


def _resolve_x0(K: CompactSet, x0) -> tuple[float, str]:
    if isinstance(x0, str):
        if x0 == "right":
            return K.intervals[-1][1], "right"
        if x0 == "left":
            return K.intervals[0][0], "left"
        try:
            x0 = float(x0)
        except ValueError:
            raise ValidationError("x0 must be 'left', 'right', or a number in K")
    x0 = float(x0)
    if not K.contains(x0, tol=1e-12):
        raise ValidationError(f"x0 = {x0} lies outside the set")
    return x0, f"given:{x0!r}"


def _refine_step(K: CompactSet, grid, cum, pts_arr, idx: int):
    """Refine the grid argmax grid[idx] of the running log product P.

    The bracket is the two grid cells around the argmax, clipped to its
    component and to the nearest chosen point on each side. P is strictly
    concave there, so its maximum is at the root of P'(x) = sum 1/(x - x_j),
    found by Newton steps with P''(x) = -sum 1/(x - x_j)^2 (a bisection
    whenever a step leaves the bracket, stopping at a step of a few ulps),
    or else at a bracket end. Returns floats (x, P(x)).
    """
    xg, fg = float(grid[idx]), float(cum[idx])
    c_lo, c_hi = K.component_of(xg)
    lo = max(float(grid[max(idx - 1, 0)]), c_lo,
             float(np.max(pts_arr, initial=-math.inf, where=pts_arr < xg)))
    hi = min(float(grid[min(idx + 1, len(grid) - 1)]), c_hi,
             float(np.min(pts_arr, initial=math.inf, where=pts_arr > xg)))

    def obj(x: float) -> float:
        with np.errstate(divide="ignore"):
            return float(np.sum(np.log(np.abs(x - pts_arr))))

    a, b = lo, hi
    x = xg if a < xg < b else 0.5 * (a + b)
    ulps = 4.0 * math.ulp(max(abs(a), abs(b)))
    for _ in range(_NEWTON_ITERS):
        r = 1.0 / (x - pts_arr)
        slope = float(r.sum())
        a, b = (x, b) if slope > 0.0 else (a, x)
        step = x + slope / float(r @ r)
        x, last = (step if a < step < b else 0.5 * (a + b)), x
        if abs(x - last) <= ulps:
            break
    x, fx = max([(lo, obj(lo)), (hi, obj(hi)), (x, obj(x))],
                key=lambda c: (c[1], -c[0]))
    # accept the refined point only on a clear improvement: near-flat peaks
    # evaluate with O(eps) noise per term and a noise-level "win" off the
    # grid would break deterministic tie handling on symmetric sets
    tol = 1e-12 * (1.0 + abs(fg))
    if fx > fg + tol or (fx == fg + tol and x < xg):
        return x, fx
    return xg, fg


def _generate(K: CompactSet, n: int, tau: float, rng_seed: int,
              grid_density: float, x0) -> PointSequence:
    if n < 1:
        raise ValidationError("n must be at least 1")
    _check_tau(tau)
    if rng_seed < 0:
        raise ValidationError("seed must be nonnegative")
    grid = K.grid(grid_density)
    if n > len(grid):
        raise ValidationError(f"n = {n} exceeds the {len(grid)}-point grid")
    x0v, policy = _resolve_x0(K, x0)
    rng = np.random.default_rng(rng_seed)

    pts = [x0v]
    with np.errstate(divide="ignore"):
        cum = np.log(np.abs(grid - x0v))
    ratios, maxima = [], []
    log_tau = math.log(tau)
    for _ in range(1, n):
        pts_arr = np.asarray(pts)
        idx = int(np.argmax(cum))
        x_star, log_max = _refine_step(K, grid, cum, pts_arr, idx)
        if not math.isfinite(log_max):
            raise ValidationError("no admissible point left on the grid")
        if tau >= 1.0:
            chosen, ratio = x_star, 1.0
        else:
            elig = np.flatnonzero(cum >= log_tau + log_max)
            if len(elig) == 0:
                chosen, ratio = x_star, 1.0
            else:
                pick = elig[int(rng.integers(len(elig)))]
                chosen = float(grid[pick])
                ratio = math.exp(float(cum[pick]) - log_max)
        pts.append(chosen)
        maxima.append(log_max)
        ratios.append(min(ratio, 1.0))
        with np.errstate(divide="ignore"):
            cum = cum + np.log(np.abs(grid - chosen))
    return PointSequence(points=tuple(pts), tau=tau, grid_density=grid_density,
                         rng_seed=rng_seed, x0_policy=policy,
                         achieved_ratios=tuple(ratios),
                         step_log_maxima=tuple(maxima))


def leja_sequence(K: CompactSet, n: int, x0="right",
                  grid_density: float = DEFAULT_GRID_DENSITY) -> PointSequence:
    """Exact-mode Leja points (deterministic)."""
    return _generate(K, n, 1.0, 0, grid_density, x0)


def quasi_leja_sequence(K: CompactSet, n: int, tau: float, rng_seed: int = 0,
                        grid_density: float = DEFAULT_GRID_DENSITY,
                        x0="right") -> PointSequence:
    """tau-quasi-Leja points with seeded random choices among the eligible
    grid points of every step."""
    return _generate(K, n, tau, rng_seed, grid_density, x0)


@dataclass(frozen=True)
class AuditReport:
    ok: bool
    tau: float
    worst_ratio: float
    worst_step: int
    ratios: tuple


def verify_quasi_leja(seq: PointSequence, K: CompactSet, tau: float = None) -> AuditReport:
    """Re-audit a sequence on an independent grid of twice its density.

    Recomputes every step's refined maximum on the audit grid and compares
    each chosen point's product against it: ok iff every ratio is at least
    tau * (1 - 1e-6), tau defaulting to the sequence's own.
    """
    tau = seq.tau if tau is None else float(tau)
    _check_tau(tau)
    grid = K.grid(2.0 * seq.grid_density)
    pts = np.asarray(seq.points)
    with np.errstate(divide="ignore"):
        cum = np.log(np.abs(grid - pts[0]))
    worst, worst_k = math.inf, 0
    ratios = []
    for k in range(1, len(pts)):
        arr = pts[:k]
        idx = int(np.argmax(cum))
        _, log_max = _refine_step(K, grid, cum, arr, idx)
        with np.errstate(divide="ignore"):
            log_val = float(np.sum(np.log(np.abs(pts[k] - arr))))
        ratio = math.exp(min(log_val - log_max, 0.0))
        ratios.append(ratio)
        if ratio < worst:
            worst, worst_k = ratio, k
        with np.errstate(divide="ignore"):
            cum = cum + np.log(np.abs(grid - pts[k]))
    ok = all(r >= tau * (1.0 - 1e-6) for r in ratios)
    return AuditReport(ok=ok, tau=tau, worst_ratio=worst if ratios else 1.0,
                       worst_step=worst_k, ratios=tuple(ratios))


@dataclass(frozen=True)
class SeparationReport:
    ok: bool
    min_separation: float
    floor: float            # best (largest) lower bound over the delta grid
    best_delta: float
    margin: float           # min_separation - floor
    deltas: tuple
    floors: tuple


def separation_floor(model: GreenModel, tau: float, n: int, delta: float) -> float:
    """Lower bound tau * delta * exp(-n G(delta)) on the pairwise distance
    of any n-point tau-quasi-Leja sequence."""
    return tau * delta * math.exp(-n * model.neighborhood_max(delta))


def check_separation(seq: PointSequence, model: GreenModel) -> SeparationReport:
    """Check the sequence's min separation against the best floor on a log
    grid of 20 deltas over [1e-4, diam K]; ok iff it is at most 1e-12 below."""
    n = len(seq)
    deltas = np.geomspace(1e-4, model.set.diam, 20)
    floors = [separation_floor(model, seq.tau, n, float(d)) for d in deltas]
    i = int(np.argmax(floors))
    sep = seq.min_separation()
    margin = sep - floors[i]
    return SeparationReport(ok=bool(margin >= -1e-12), min_separation=sep,
                            floor=floors[i], best_delta=float(deltas[i]),
                            margin=margin, deltas=tuple(map(float, deltas)),
                            floors=tuple(floors))
