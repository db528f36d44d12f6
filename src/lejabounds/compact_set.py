"""Compact subsets of the real line given as finite unions of closed intervals.

Every set handled by this package is a sorted union of pairwise disjoint
nondegenerate closed intervals. Degenerate (single point) components are
dropped at construction, and an entirely degenerate or empty specification
is rejected: isolated points would make the equilibrium problem and the
interpolation bounds downstream meaningless.

Complex arguments are accepted wherever distances are measured, because the
Green's function bounds need distances from points off the real axis to K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_COMPONENTS = 1 << 14
MAX_GRID_POINTS = 5_000_000
# the smallest gap between distinct points: closer ones count as one point
_TINY = np.finfo(float).tiny


class ValidationError(ValueError):
    """A set specification violated a construction precondition."""


def _check_tau(tau: float) -> None:
    """Every relaxation ratio tau of the package lies in (0, 1]."""
    if not 0.0 < tau <= 1.0:
        raise ValidationError("tau must lie in (0, 1]")


def _check_ratio(ratio: float) -> None:
    """A Cantor construction keeps the outer ratio in (0, 1/2) of each interval."""
    if not 0.0 < ratio < 0.5:
        raise ValidationError("ratio must lie in (0, 1/2)")


def _check_int(value, message: str) -> int:
    """A count or an index is an int or an integral real, such as 3.0, not a
    boolean; returns it as an int, and raises ValidationError(message) otherwise."""
    try:
        if not isinstance(value, (bool, np.bool_)) and value == int(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(message)


def _check_points(points, tau: float, least: int) -> None:
    """At least `least` finite, pairwise distinct points (at least _TINY
    apart, as the interpolation operator needs them) and a tau in (0, 1]."""
    if len(points) < least:
        raise ValidationError("need at least " + " and ".join(f"x_{i}" for i in range(least)))
    _check_tau(tau)
    pts = np.sort(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise ValidationError("points must be finite")
    if np.any(np.diff(pts) < _TINY):
        raise ValidationError("points must be pairwise distinct, at least the smallest normal "
                              "float apart")


def _check_density(density: float) -> None:
    """A grid density is positive and finite."""
    if not 0 < density < math.inf:
        raise ValidationError("density must be positive and finite")


def _floats(values, message: str) -> tuple:
    """A JSON array of numbers (list, tuple or array) as a tuple of floats, else
    ValidationError(message). A string or a boolean is not a number here."""
    if isinstance(values, (list, tuple, np.ndarray)) and all(
            isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
            for v in values):
        try:
            return tuple(map(float, values))
        except OverflowError:       # an int past the largest double
            pass
    raise ValidationError(message)


@dataclass(frozen=True)
class CompactSet:
    """Sorted union of disjoint closed intervals [lo_i, hi_i], lo_i < hi_i."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.intervals:
            raise ValidationError("empty set")
        prev_hi = None
        for lo, hi in self.intervals:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValidationError("interval endpoints must be finite")
            if not lo < hi:
                raise ValidationError(f"degenerate or inverted interval ({lo}, {hi})")
            if prev_hi is not None and lo <= prev_hi:
                raise ValidationError("intervals must be disjoint and sorted")
            prev_hi = hi

    @property
    def n_components(self) -> int:
        return len(self.intervals)

    @property
    def lo(self) -> float:
        return self.intervals[0][0]

    @property
    def hi(self) -> float:
        return self.intervals[-1][1]

    @property
    def diam(self) -> float:
        return self.hi - self.lo

    @property
    def measure(self) -> float:
        return float(sum(hi - lo for lo, hi in self.intervals))

    def dist_to(self, z):
        """Distance from z (real or complex, scalar or array) to the set.

        For z = x + iy the distance to a component [lo, hi] is
        hypot(max(lo - x, x - hi, 0), y), and the distance to the set is the
        minimum over components.
        """
        zs = np.asarray(z)
        x = zs.real.astype(float)
        y = zs.imag.astype(float) if np.iscomplexobj(zs) else np.zeros_like(x)
        dx = self._real_dist(x)
        out = np.hypot(dx, y)
        return float(out) if out.ndim == 0 else out

    def _real_dist(self, x: np.ndarray) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        d = np.full(xs.shape, np.inf)
        for lo, hi in self.intervals:
            np.minimum(d, np.maximum.reduce([lo - xs, xs - hi, np.zeros_like(xs)]), out=d)
        return d.reshape(np.shape(x))

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return bool(self.dist_to(float(x)) <= tol)

    def component_of(self, x: float) -> tuple[float, float]:
        """The component [lo, hi] containing real x; the hull [self.lo,
        self.hi] when x lies in no component."""
        for lo, hi in self.intervals:
            if lo <= x <= hi:
                return lo, hi
        return self.lo, self.hi

    def grid(self, density: float) -> np.ndarray:
        """Sorted sample grid with spacing <= 1/density on every component.

        Each component contributes ceil(length * density) + 1 equispaced
        points (at least 2), endpoints always included.
        """
        _check_density(density)
        # counts stay floats until checked: a huge length * density is inf
        counts = [max(2.0, np.ceil((hi - lo) * density) + 1.0) for lo, hi in self.intervals]
        total = sum(counts)
        if total > MAX_GRID_POINTS:
            raise ValidationError(f"grid of {total:.0f} points exceeds cap {MAX_GRID_POINTS}")
        parts = [np.linspace(lo, hi, int(n)) for (lo, hi), n in zip(self.intervals, counts)]
        return np.concatenate(parts)

    def to_spec(self) -> dict:
        return {"intervals": [[lo, hi] for lo, hi in self.intervals]}


def make_union(pairs) -> CompactSet:
    """Build a CompactSet from (lo, hi) pairs.

    Overlapping or touching intervals are merged, the result is sorted, and
    degenerate single-point components are dropped. Raises ValidationError
    if nothing nondegenerate remains.
    """
    cleaned = []
    for pair in pairs:
        lo, hi = float(pair[0]), float(pair[1])
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValidationError("interval endpoints must be finite")
        if hi < lo:
            raise ValidationError(f"inverted interval ({lo}, {hi})")
        cleaned.append((lo, hi))
    if not cleaned:
        raise ValidationError("empty set")
    if len(cleaned) > MAX_COMPONENTS:
        raise ValidationError("too many components")
    cleaned.sort()
    merged = [cleaned[0]]
    for lo, hi in cleaned[1:]:
        mlo, mhi = merged[-1]
        if lo <= mhi:  # overlap or touch
            merged[-1] = (mlo, max(mhi, hi))
        else:
            merged.append((lo, hi))
    nondeg = tuple((lo, hi) for lo, hi in merged if lo < hi)
    if not nondeg:
        raise ValidationError("all components degenerate")
    return CompactSet(nondeg)


def cantor_approx(depth: int, ratio: float) -> CompactSet:
    """Depth-d Cantor construction on [0, 1] keeping the outer `ratio` of
    each interval at every level: 2^d components of length ratio^d. The
    depth may be any integral real, such as 3.0.
    """
    message = "depth must be a nonnegative integer"
    depth = _check_int(depth, message)
    if depth < 0:
        raise ValidationError(message)
    _check_ratio(ratio)
    if depth >= MAX_COMPONENTS.bit_length():
        raise ValidationError(f"2^{depth} components exceed cap {MAX_COMPONENTS}")
    intervals = [(0.0, 1.0)]
    for _ in range(depth):
        nxt = []
        for lo, hi in intervals:
            step = ratio * (hi - lo)
            nxt.append((lo, lo + step))
            nxt.append((hi - step, hi))
        intervals = nxt
    return CompactSet(tuple(intervals))


def from_spec(obj: dict) -> CompactSet:
    """Parse the JSON set format.

    Accepted shapes:
      {"intervals": [[lo, hi], ...]}
      {"cantor": {"depth": d, "ratio": r}}
    """
    if not isinstance(obj, dict):
        raise ValidationError("set spec must be a JSON object")
    if "intervals" in obj:
        message = "intervals must be a list of [lo, hi] pairs of numbers"
        pairs = obj["intervals"]
        if not isinstance(pairs, (list, tuple)):
            raise ValidationError(message)
        pairs = [_floats(pair, message) for pair in pairs]
        if any(len(pair) != 2 for pair in pairs):
            raise ValidationError(message)
        return make_union(pairs)
    if "cantor" in obj:
        try:
            depth, ratio = obj["cantor"]["depth"], obj["cantor"]["ratio"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"bad cantor spec: {exc}") from exc
        return cantor_approx(depth, _floats([ratio], "bad cantor spec: ratio must be a number")[0])
    raise ValidationError("set spec needs an 'intervals' or 'cantor' key")
