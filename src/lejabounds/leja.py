"""Leja and tau-quasi-Leja point sequences on interval unions.

Every step starts from the maximum P* over K of the log distance product
P(x) = sum_j log|x - x_j| to the points already chosen, found without a
grid (the per-gap candidates of Baglama, Calvetti & Reichel, "Fast Leja
points", ETNA 7, 1998). The chosen points cut K into pieces, on each of
which P is strictly concave. Each piece keeps a candidate c with P(c) and
P'(c), which every new point updates in one vectorised pass, and a
curvature floor that turns them into an upper bound U of P on the piece.
A step refines the piece of the largest U (a free-end check, then Newton
steps from c) until that piece is a refined one: its value is P*, and
every other piece is certified below it by its U. The new point then
splits its piece, and the two halves get candidates at their midpoints.

Exact mode (tau = 1) takes the refined point at every step and builds no
grid. Quasi mode with relaxation tau < 1 picks uniformly at random
(seeded) among the grid points whose product reaches tau * exp(P*),
falling back to the refined point when no grid point qualifies; its grid
products are a running vector of sum_j log|grid - x_j|, updated in place
with one term per step. The audit (`verify_quasi_leja`) runs the same
greedy loop with the sequence's own points as the choices, so it measures
every step against the same certified maximum, also without a grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bounds import _check_args
from .compact_set import (CompactSet, ValidationError, _check_density, _check_int, _check_points,
                          _check_tau, _floats)
from .green import GreenModel

DEFAULT_GRID_DENSITY = 10_000.0
_NEWTON_ITERS = 100   # safety cap; a refined piece takes a median of 4 slope evaluations
_SEED_MESSAGE = "rng_seed must be a nonnegative integer"


@dataclass(frozen=True)
class PointSequence:
    """A generated sequence plus the provenance needed to audit it; it checks itself."""

    points: tuple
    tau: float
    grid_density: float
    rng_seed: int
    x0_policy: str
    achieved_ratios: tuple      # ratios[k-1]: step-k product / refined step max

    def __post_init__(self):
        _check_points(self.points, self.tau, 1)
        if not 0.0 < self.grid_density < math.inf:
            raise ValidationError("grid_density must be positive and finite")
        if self.rng_seed is not None and _check_int(self.rng_seed, _SEED_MESSAGE) < 0:
            raise ValidationError(_SEED_MESSAGE)
        if not all(map(math.isfinite, self.achieved_ratios)):
            raise ValidationError("achieved_ratios must be a list of finite numbers")
        policy = self.x0_policy
        try:
            given = policy.startswith("given:") and math.isfinite(float(policy[6:]))
        except (AttributeError, TypeError, ValueError):
            given = False
        if not (given or policy in ("right", "left")):
            raise ValidationError("x0_policy must be 'right', 'left' or 'given:<number>'")

    def __len__(self) -> int:
        return len(self.points)

    def min_separation(self) -> float:
        return float(np.diff(np.sort(self.points)).min(initial=math.inf))

    def to_json(self) -> dict:
        return {**vars(self), "points": list(map(float, self.points)),
                "achieved_ratios": list(map(float, self.achieved_ratios))}

    @classmethod
    def from_json(cls, obj: dict) -> "PointSequence":
        message = ("a point sequence is a JSON object with numeric 'points', 'tau' and "
                   "'grid_density'")
        try:
            if isinstance(obj, str):
                obj = json.loads(obj)
            points, tau, grid_density = obj["points"], obj["tau"], obj["grid_density"]
            seed, ratios = obj.get("rng_seed"), obj.get("achieved_ratios", ())
            policy = obj.get("x0_policy", "right")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"{message} ({exc!r})") from exc
        tau, grid_density = _floats((tau, grid_density), message)
        return cls(points=_floats(points, message), tau=tau, grid_density=grid_density,
                   rng_seed=None if seed is None else _check_int(seed, _SEED_MESSAGE),
                   x0_policy=policy, achieved_ratios=_floats(
                       ratios, "achieved_ratios must be a list of finite numbers"))


def _outside(K: CompactSet, points) -> np.ndarray:
    """Indices of the points farther than 1e-12 from K (or nan): x0's rule and the audit's."""
    return np.flatnonzero(~(np.atleast_1d(K.dist_to(points)) <= 1e-12))


def _resolve_x0(K: CompactSet, x0) -> tuple[float, str]:
    if isinstance(x0, str) and x0 in ("right", "left"):
        return (K.hi if x0 == "right" else K.lo), x0
    try:
        x0 = float(x0)
    except ValueError:
        raise ValidationError("x0 must be 'left', 'right', or a number in K")
    if len(_outside(K, x0)):
        raise ValidationError(f"x0 = {x0} lies outside the set")
    return x0, f"given:{x0!r}"


def _slope(x: float, w: float, pts_arr) -> tuple[float, float, np.ndarray]:
    """w P'(x) and -w^2 P''(x) of the log product P(x) = sum_j log|x - x_j|,
    scaled by a piece width w so that neither overflows nor underflows on
    sets near the ends of the float range, and the differences x - x_j."""
    d = x - pts_arr
    r = w / d
    return float(r.sum()), float(r @ r), d


def _value(x, w, pts_arr) -> tuple[np.ndarray, np.ndarray]:
    """P and w P' at the points of the 1-d array x, widths w, in one
    (len(x), k) pass."""
    d = x[:, None] - pts_arr
    return np.log(np.abs(d)).sum(axis=1), (w[:, None] / d).sum(axis=1)


# rows of the piece table: the ends lo < hi, flags (1.0) for ends that are
# chosen points, the width w; the candidate c, (lo - c)/w and (hi - c)/w;
# kappa / 2 and 1 / kappa for the piece's curvature floor mu = kappa / w^2;
# P(c) and w P'(c)
_LO, _HI, _LO_PT, _HI_PT, _W, _C, _L, _R, _HALF_KAPPA, _INV_KAPPA, _P, _DP = range(12)


class _Pieces:
    """The pieces of K cut at the chosen points, sorted, one column each of
    a table preallocated for every piece an n-point run can make.

    On a piece P is strictly concave, and P'' = -sum_j 1/(y - x_j)^2 <= -mu
    with mu = 8/w^2 when both ends are chosen points (the two nearest
    poles), 1/w^2 when one is, and 0 when neither is. So on the piece P is
    at most U = max over t in [lo - c, hi - c] of P(c) + P'(c) t - mu t^2 / 2,
    which the table keeps in units of w. `step_max` refines the piece of
    the largest U until that piece is a refined one, whose value is then
    the maximum of P over K; every other piece lies below it by its U.
    """

    def __init__(self, K: CompactSet, n: int, x0: float):
        m = K.n_components
        self.t = np.zeros((12, m + n))      # a point adds at most one piece
        self.m = m
        self.t[_LO:_HI + 1, :m] = np.transpose(K.intervals)
        self._reset(0, m, np.empty(0))
        self.add(np.array([x0]))

    def _reset(self, j: int, count: int, pts_arr) -> None:
        """Candidates at the midpoints of the count pieces from piece j."""
        t = self.t
        for q in range(j, j + count):
            lo, hi, lo_pt, hi_pt = t[:_W, q].tolist()
            w = hi - lo
            c = lo + w / 2
            kappa = (0.0, 1.0, 8.0)[int(lo_pt + hi_pt)]
            t[_W:_INV_KAPPA + 1, q] = (w, c, (lo - c) / w, (hi - c) / w, kappa / 2,
                                       1.0 / kappa if kappa else math.inf)
        cols = slice(j, j + count)
        t[_P, cols], t[_DP, cols] = _value(t[_C, cols], t[_W, cols], pts_arr)

    def add(self, pts_arr) -> None:
        """Take in the newest point x = pts_arr[-1]: one term on every
        candidate, then a split of the piece that holds it, whose new pieces
        get candidates at their midpoints. A point outside K cuts no piece."""
        x, m, t = pts_arr[-1], self.m, self.t
        d = t[_C, :m] - x
        t[_P, :m] += np.log(np.abs(d))
        t[_DP, :m] += np.divide(t[_W, :m], d, out=d)
        j = int(t[_LO, :m].searchsorted(x, "right")) - 1
        if j < 0 or x > t[_HI, j]:
            return
        if x == t[_LO, j]:
            t[_LO_PT, j] = 1.0
        elif x == t[_HI, j]:
            t[_HI_PT, j] = 1.0
        else:
            t[:, j + 1:m + 1] = t[:, j:m]
            t[_HI, j] = t[_LO, j + 1] = x
            t[_HI_PT, j] = t[_LO_PT, j + 1] = 1.0
            self.m += 1
        self._reset(j, 1 + self.m - m, pts_arr)

    def _refine(self, i: int, pts_arr) -> None:
        """Move piece i's candidate c to the maximum of P on the piece. It
        lies on the side of c that P'(c) points to: at c when P'(c) = 0, at
        the end there if that end is free and P' keeps its sign up to it,
        or else at the root of P' between c and that end. Newton steps find
        the root from the free end (its check gave P' and P'') or from c,
        until a step or the bracket is at most 4 ulps: the last point
        evaluated is the maximum. A step that leaves the bracket bisects it."""
        t = self.t
        lo, hi, lo_pt, hi_pt, w, x, *_, dp = t[:, i].tolist()
        a, b, end, end_pt = (x, hi, hi, hi_pt) if dp > 0.0 else (lo, x, lo, lo_pt)
        if dp == 0.0 or x == end:
            return                  # P(c) and P'(c) are current
        x = x if end_pt else end
        slope, curv, d = _slope(x, w, pts_arr)
        if end_pt or slope * dp < 0.0:
            ulps = 4.0 * math.ulp(max(abs(lo), abs(hi)))
            for _ in range(_NEWTON_ITERS):
                a, b = (x, b) if slope > 0.0 else (a, x)
                step = x + w * slope / curv
                if abs(step - x) <= ulps or b - a <= ulps:
                    break
                x = step if a < step < b else a + (b - a) / 2
                slope, curv, d = _slope(x, w, pts_arr)
        t[_C:_R + 1, i] = x, (lo - x) / w, (hi - x) / w
        t[_P, i], t[_DP, i] = np.log(np.abs(d)).sum(), slope

    def step_max(self, pts_arr) -> tuple[float, float]:
        """The maximum (x, P(x)) of P over K, by refining pieces in order of
        their bound U; a tie goes to the piece of smaller abscissa."""
        *_, c, left, right, half_kappa, inv_kappa, p, dp = self.t[:, :self.m]
        # the t / w of U: an end when mu = 0, or c when also P'(c) = 0
        s = np.fmin(np.fmax(dp * inv_kappa, left), right)
        bound = p + s * (dp - half_kappa * s)
        refined = set()
        while (i := int(np.argmax(bound))) not in refined:
            self._refine(i, pts_arr)
            bound[i] = p[i]
            refined.add(i)
        return float(c[i]), float(p[i])


def _greedy(K: CompactSet, x0: float, n: int, choose) -> tuple[list, list]:
    """The greedy loop of generation and audit: n points from x0. Each step
    takes the maximum P* of the log product over K from the piece state,
    and choose(pts_arr, x_star, P*) gives the next point and its log
    product P. Returns the points and the step ratios exp(min(P - P*, 0)).
    One errstate covers the loop, choose included, and leaves unwarned:
    log 0 = -inf at a chosen point and 1/0 at a candidate the new point
    lands on (the split replaces both), 0 * inf in U where mu = P'(c) = 0,
    and distances past the float range on a set that wide, whose step
    maximum is then not finite and raises."""
    pts, ratios = np.full(n, float(x0)), []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pieces = _Pieces(K, n, float(x0))
        for k in range(1, n):
            x_star, log_max = pieces.step_max(pts[:k])
            if not math.isfinite(log_max):
                raise ValidationError(f"step {k} has no finite maximum: the set is wider "
                                      "than the float range or has no float left to choose")
            x, log_val = choose(pts[:k], x_star, log_max)
            pts[k] = x
            ratios.append(math.exp(min(log_val - log_max, 0.0)))
            pieces.add(pts[:k + 1])
    return pts.tolist(), ratios


def _take_max(pts_arr, x_star, log_max):
    """Exact mode's choice: the step maximum itself."""
    return x_star, log_max


def _generate(K: CompactSet, n: int, tau: float, rng_seed: int,
              grid_density: float, x0) -> PointSequence:
    n = _check_args(n, tau)
    if rng_seed < 0:
        raise ValidationError("seed must be nonnegative")
    _check_density(grid_density)
    x0v, policy = _resolve_x0(K, x0)
    choose = _take_max
    if tau < 1.0:
        grid = K.grid(grid_density)
        if n > len(grid):
            raise ValidationError(f"n = {n} exceeds the {len(grid)}-point grid")
        rng = np.random.default_rng(rng_seed)
        cum, term = np.zeros_like(grid), np.empty_like(grid)

        def choose(pts_arr, x_star, log_max):
            # cum = sum_j log|grid - x_j|, the newest point added first
            np.add(cum, np.log(np.abs(np.subtract(grid, pts_arr[-1], out=term), out=term),
                               out=term), out=cum)
            elig = np.flatnonzero(cum >= math.log(tau) + log_max)
            if len(elig) == 0:
                return x_star, log_max
            pick = elig[int(rng.integers(len(elig)))]
            return float(grid[pick]), float(cum[pick])

    pts, ratios = _greedy(K, x0v, n, choose)
    return PointSequence(points=tuple(pts), tau=tau, grid_density=grid_density,
                         rng_seed=rng_seed, x0_policy=policy,
                         achieved_ratios=tuple(ratios))


def leja_sequence(K: CompactSet, n: int, x0="right",
                  grid_density: float = DEFAULT_GRID_DENSITY) -> PointSequence:
    """Exact-mode Leja points (deterministic); grid_density is recorded
    only, since exact mode builds no grid."""
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
    """Re-audit a sequence against the certified step maxima.

    Runs the greedy loop of generation with the sequence's own points as
    the choices, and compares each point's product against the maximum over
    K of its step: ok iff every ratio is at least tau * (1 - 1e-6), tau
    defaulting to the sequence's own. A point outside K raises.
    """
    tau = seq.tau if tau is None else float(tau)
    _check_tau(tau)
    pts = np.asarray(seq.points)
    out = _outside(K, pts)
    if len(out):
        raise ValidationError(f"x_{out[0]} = {float(pts[out[0]])} lies outside the set")

    def own_next(arr, x_star, log_max):
        x = pts[len(arr)]
        return x, float(np.sum(np.log(np.abs(x - arr))))

    _, ratios = _greedy(K, pts[0], len(pts), own_next)
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


def _floors(model: GreenModel, tau: float, n: int, deltas: list) -> list:
    """tau * delta * exp(-n G(delta)) at every delta of the list, with G on
    the whole list in one call."""
    gs = np.atleast_1d(model.neighborhood_max(*deltas))
    return [tau * d * math.exp(-n * g) for d, g in zip(deltas, gs)]


def separation_floor(model: GreenModel, tau: float, n: int, delta: float) -> float:
    """Lower bound tau * delta * exp(-n G(delta)) on the pairwise distance
    of any n-point tau-quasi-Leja sequence."""
    return _floors(model, tau, _check_args(n, tau), [delta])[0]


def check_separation(seq: PointSequence, model: GreenModel) -> SeparationReport:
    """Check the sequence's min separation against the best floor on a log
    grid of 20 deltas over [1e-4 diam K, diam K], so the floor scales with
    K; ok iff it is at most 1e-12 of the floor below, so the verdict
    scales with K too."""
    deltas = np.geomspace(1e-4 * model.set.diam, model.set.diam, 20)
    floors = _floors(model, seq.tau, len(seq), deltas.tolist())
    i = int(np.argmax(floors))
    sep = seq.min_separation()
    margin = sep - floors[i]
    return SeparationReport(ok=bool(margin >= -1e-12 * floors[i]), min_separation=sep,
                            floor=floors[i], best_delta=float(deltas[i]),
                            margin=margin, deltas=tuple(map(float, deltas)),
                            floors=tuple(floors))
