"""Batched maximizers shared across modules: a sample-and-zoom for black-box
functions and a bracketed Newton iteration for functions whose derivative
is known and that have one maximum per bracket."""

from __future__ import annotations

import numpy as np


def zoom_max(f, lo, hi, counts):
    """Maximize f over each bracket [lo_i, hi_i] by sampling and zooming.

    Every bracket is sampled at counts[0] points, ends included. Then, once
    for each further count c (all counts at least 2), each bracket shrinks
    to the one or two sample cells around its best sample and is sampled
    again at c points. f is called once per round on the (brackets, count)
    array of samples and returns values of that shape. Returns arrays (x, f(x)) with the best
    sample of all rounds of each bracket; ties go to the smaller abscissa.
    A bracket's samples and result do not depend on the other brackets.
    """
    lo, hi = np.atleast_1d(lo).astype(float), np.atleast_1d(hi).astype(float)
    xs, vals = [], []
    for c in counts:
        if xs:
            cells = np.argmax(v, axis=1)[:, None] + [-1, 1]
            lo, hi = np.take_along_axis(x, cells.clip(0, x.shape[1] - 1), axis=1).T
        # the rows of np.linspace, written out: once the step of one row
        # underflows to 0, np.linspace rounds every row another way
        x = np.arange(c) * ((hi - lo) / (c - 1))[:, None] + lo[:, None]
        x[:, -1] = hi
        v = f(x)
        xs.append(x)
        vals.append(v)
    xs, vals = np.hstack(xs), np.hstack(vals)
    # per row, the smallest abscissa among the samples of the largest value
    # (nan values lose, as long as the row has a number)
    top = vals == np.fmax.reduce(vals, axis=1)[:, None]
    i = np.argmin(np.where(top, xs, np.inf), axis=1)
    rows = np.arange(len(xs))
    return xs[rows, i], vals[rows, i]


# Newton iterations per bracket; bisection alone reaches the stopping width
# of 1e-12 of a bracket in about 40
_NEWTON_ITERS = 60


def newton_max(slope, lo, hi):
    """The maximum of a function inside each bracket [lo_i, hi_i] by a
    bracketed Newton iteration on its derivative, all brackets at once.

    slope(x) returns the derivative g and its derivative g' at the 1-d
    array x; g must be positive left of a bracket's maximum and negative
    right of it. Each bracket starts at its midpoint, moves the end on the
    side of the sign of g to x, and takes the Newton step x - g/g' if it
    stays strictly inside, else bisects. A bracket stops when the Newton
    step or its width is at most max(1e-12 * initial width, 4 ulps). The
    step test comes first: a converged step lands on the end that has just
    been moved to x, and bisecting it away would run every bracket to the
    iteration cap. slope is called only strictly inside the brackets, once
    per round on the brackets still running. Returns the final abscissae;
    a bracket whose maximum is at an end converges to that end.
    """
    lo, hi = np.atleast_1d(lo).astype(float), np.atleast_1d(hi).astype(float)
    x = 0.5 * (lo + hi)
    tol = np.maximum(1e-12 * (hi - lo), 4.0 * np.spacing(np.abs(x)))
    active = np.flatnonzero(hi - lo > tol)
    for _ in range(_NEWTON_ITERS):
        if not len(active):
            break
        xa, ta = x[active], tol[active]
        g, gp = slope(xa)
        la = np.where(g > 0.0, xa, lo[active])
        ha = np.where(g > 0.0, hi[active], xa)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(g == 0.0, 0.0, g / gp)
        x_new = xa - step
        # a step toward a minimum (g' > 0) never counts as converged
        converged = (np.abs(step) <= ta) & ((g == 0.0) | (gp < 0.0))
        inside = (x_new > la) & (x_new < ha)
        x_new = np.where(converged, np.clip(x_new, la, ha),
                         np.where(inside, x_new, 0.5 * (la + ha)))
        x[active], lo[active], hi[active] = x_new, la, ha
        active = active[~converged & (ha - la > ta)]
    return x
