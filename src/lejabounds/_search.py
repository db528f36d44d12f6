"""Grid-then-golden-section maximization helpers shared across modules."""

from __future__ import annotations

import math

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 0.618...
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 0.382...


def golden_max(f, lo: float, hi: float, iters: int):
    """Maximize f on [lo, hi] by golden-section search.

    Endpoints are always evaluated and compared against the interior result;
    ties resolve toward the smaller abscissa. Assumes f is unimodal on the
    bracket, which callers arrange by bracketing a grid argmax.
    """
    if hi < lo:
        lo, hi = hi, lo
    cand = [(lo, f(lo))]
    if hi > lo:
        cand.append((hi, f(hi)))
        a, b = lo, hi
        h = b - a
        c = a + _INVPHI2 * h
        d = a + _INVPHI * h
        fc, fd = f(c), f(d)
        for _ in range(iters):
            if h <= 0.0:
                break
            if fc >= fd:
                b, d, fd = d, c, fc
                h = b - a
                c = a + _INVPHI2 * h
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                h = b - a
                d = a + _INVPHI * h
                fd = f(d)
        cand.append((c, fc) if fc >= fd else (d, fd))
    return max(cand, key=lambda c: (c[1], -c[0]))


def refine_grid_max(f, grid, vals, idx: int, lo_cap: float = None,
                    hi_cap: float = None, iters: int = 80, tol: float = 0.0):
    """Refine the grid argmax grid[idx], where vals = f(grid), by golden
    search over [grid[idx-1], grid[idx+1]] clipped to lo_cap/hi_cap (so the
    refined point never leaves the enclosing component). The refined point
    replaces the grid point only when its value is larger by more than tol;
    an exact tie goes to the smaller abscissa. Returns floats (x, f(x)).
    """
    lo = grid[idx - 1] if idx > 0 else grid[idx]
    hi = grid[idx + 1] if idx + 1 < len(grid) else grid[idx]
    if lo_cap is not None:
        lo = max(lo, lo_cap)
    if hi_cap is not None:
        hi = min(hi, hi_cap)
    x, fx = golden_max(f, float(lo), float(hi), iters)
    xg, fg = float(grid[idx]), float(vals[idx])
    if fx > fg + tol or (fx == fg + tol and x < xg):
        return float(x), float(fx)
    return xg, fg
