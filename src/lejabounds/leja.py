"""Leja and tau-quasi-Leja point sequences on interval unions.

Exact mode picks, at every step, the point of K maximizing the distance
product to the points already chosen: the grid argmax picks a piece of K
(its component between the nearest chosen points), and the step is the
maximum of the product on that piece, a free end or the one critical
point found by Newton steps. Quasi mode with relaxation tau picks
uniformly at random (seeded) among all grid points whose product reaches
tau times the refined step maximum, falling back to the refined argmax
when no grid point qualifies. Exact mode (tau = 1) is that fallback at
every step. The audit (`verify_quasi_leja`) runs the same greedy loop, with
the sequence's own points as the choices.

Products are accumulated in log space: a running vector of
sum_j log|grid - x_j| is updated in place with one term per step, so an
n-point sequence costs O(n * grid) overall.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bounds import _check_args
from .compact_set import CompactSet, ValidationError, _check_tau
from .green import GreenModel

DEFAULT_GRID_DENSITY = 10_000.0
_NEWTON_ITERS = 100   # safety cap; a step takes a median of 3-4 slope evaluations, at most 5


@dataclass(frozen=True)
class PointSequence:
    """A generated sequence plus the provenance needed to audit it."""

    points: tuple
    tau: float
    grid_density: float
    rng_seed: int
    x0_policy: str
    achieved_ratios: tuple      # ratios[k-1]: step-k product / refined step max

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
        try:
            if isinstance(obj, str):
                obj = json.loads(obj)
            points, tau = tuple(map(float, obj["points"])), float(obj["tau"])
            grid_density, seed = float(obj["grid_density"]), obj.get("rng_seed")
            seq = cls(points=points, tau=tau, grid_density=grid_density,
                      rng_seed=None if seed is None else int(seed),
                      x0_policy=str(obj.get("x0_policy", "right")),
                      achieved_ratios=tuple(obj.get("achieved_ratios", ())))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError("a point sequence is a JSON object with numeric 'points', "
                                  f"'tau' and 'grid_density' ({exc!r})") from exc
        _check_tau(tau)
        if not 0.0 < grid_density < math.inf:
            raise ValidationError("grid_density must be positive and finite")
        return seq


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


def _slope(x: float, pts_arr) -> tuple[float, float]:
    """P'(x) = sum 1/(x - x_j) and -P''(x) = sum 1/(x - x_j)^2 of the log
    product P(x) = sum_j log|x - x_j|."""
    r = 1.0 / (x - pts_arr)
    return float(r.sum()), float(r @ r)


def _refine_step(K: CompactSet, grid, cum, pts_arr, idx: int):
    """Refine the grid argmax grid[idx] of the running log product P to
    the maximum of P on its piece.

    The piece is the component of the argmax, clipped to the nearest chosen
    point on each side. P is strictly concave there, so its maximum is a
    free component end whose P' points out of the piece (checked first), or
    else the root of P', found by Newton steps from the argmax: a step of
    at most 4 ulps has converged, and a step that leaves the bracket
    bisects it. P is evaluated once, at the result, which replaces the
    argmax when its P is strictly higher. Returns floats (x, P(x)).
    """
    xg, fg = float(grid[idx]), float(cum[idx])
    left = float(np.max(pts_arr, initial=-math.inf, where=pts_arr < xg))
    right = float(np.min(pts_arr, initial=math.inf, where=pts_arr > xg))
    c_lo, c_hi = K.component_of(xg)
    lo, hi = max(c_lo, left), min(c_hi, right)
    if lo != left and _slope(lo, pts_arr)[0] <= 0.0:
        x = lo
    elif hi != right and _slope(hi, pts_arr)[0] >= 0.0:
        x = hi
    else:
        a, b = lo, hi
        x = xg if a < xg < b else 0.5 * (a + b)
        ulps = 4.0 * math.ulp(max(abs(a), abs(b)))
        for _ in range(_NEWTON_ITERS):
            slope, curv = _slope(x, pts_arr)
            a, b = (x, b) if slope > 0.0 else (a, x)
            step = x + slope / curv
            if abs(step - x) <= ulps or b - a <= ulps:
                x = min(max(step, a), b)
                break
            x = step if a < step < b else 0.5 * (a + b)
    with np.errstate(divide="ignore"):
        fx = float(np.sum(np.log(np.abs(x - pts_arr))))
    return (x, fx) if fx > fg else (xg, fg)


def _greedy(K: CompactSet, grid, x0: float, n: int, choose) -> tuple[list, list]:
    """The greedy loop of generation and audit: n points from x0. Each step
    refines the argmax of the running log product cum = sum_j log|grid - x_j|
    to the step maximum P* (`_refine_step`), and choose(cum, pts_arr, x_star,
    P*) gives the next point and its log product P; cum is updated in place.
    Returns the points and the step ratios exp(min(P - P*, 0))."""
    pts, ratios = np.full(n, float(x0)), []
    term = np.empty_like(grid)
    with np.errstate(divide="ignore"):
        cum = np.log(np.abs(grid - x0))
    for k in range(1, n):
        x_star, log_max = _refine_step(K, grid, cum, pts[:k], int(np.argmax(cum)))
        x, log_val = choose(cum, pts[:k], x_star, log_max)
        pts[k] = x
        ratios.append(math.exp(min(log_val - log_max, 0.0)))
        with np.errstate(divide="ignore"):
            cum += np.log(np.abs(np.subtract(grid, x, out=term), out=term), out=term)
    return pts.tolist(), ratios


def _generate(K: CompactSet, n: int, tau: float, rng_seed: int,
              grid_density: float, x0) -> PointSequence:
    n = _check_args(n, tau)
    if rng_seed < 0:
        raise ValidationError("seed must be nonnegative")
    grid = K.grid(grid_density)
    if n > len(grid):
        raise ValidationError(f"n = {n} exceeds the {len(grid)}-point grid")
    x0v, policy = _resolve_x0(K, x0)
    rng = np.random.default_rng(rng_seed)

    def draw(cum, pts_arr, x_star, log_max):
        if not math.isfinite(log_max):
            raise ValidationError("no admissible point left on the grid")
        # no draw at tau = 1, where grid points can tie the maximum exactly
        elig = np.flatnonzero(cum >= math.log(tau) + log_max) if tau < 1.0 else ()
        if len(elig) == 0:
            return x_star, log_max
        pick = elig[int(rng.integers(len(elig)))]
        return float(grid[pick]), float(cum[pick])

    pts, ratios = _greedy(K, grid, x0v, n, draw)
    return PointSequence(points=tuple(pts), tau=tau, grid_density=grid_density,
                         rng_seed=rng_seed, x0_policy=policy,
                         achieved_ratios=tuple(ratios))


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
    pts = np.asarray(seq.points)

    def own_next(cum, arr, x_star, log_max):
        x = pts[len(arr)]
        with np.errstate(divide="ignore"):
            return x, float(np.sum(np.log(np.abs(x - arr))))

    _, ratios = _greedy(K, K.grid(2.0 * seq.grid_density), pts[0], len(pts), own_next)
    worst = min(ratios, default=1.0)
    return AuditReport(ok=all(r >= tau * (1.0 - 1e-6) for r in ratios), tau=tau,
                       worst_ratio=worst, worst_step=ratios.index(worst) + 1 if ratios else 0,
                       ratios=tuple(ratios))


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
    n = _check_args(n, tau)
    return tau * delta * math.exp(-n * model.neighborhood_max(delta))


def check_separation(seq: PointSequence, model: GreenModel) -> SeparationReport:
    """Check the sequence's min separation against the best floor on a log
    grid of 20 deltas over [1e-4 diam K, diam K], so the floor scales with
    K; ok iff it is at most 1e-12 of the floor below, so the verdict
    scales with K too."""
    n = len(seq)
    deltas = np.geomspace(1e-4 * model.set.diam, model.set.diam, 20)
    floors = [separation_floor(model, seq.tau, n, float(d)) for d in deltas]
    i = int(np.argmax(floors))
    sep = seq.min_separation()
    margin = sep - floors[i]
    return SeparationReport(ok=bool(margin >= -1e-12 * floors[i]), min_separation=sep,
                            floor=floors[i], best_delta=float(deltas[i]),
                            margin=margin, deltas=tuple(map(float, deltas)),
                            floors=tuple(floors))
