"""Batched sample-and-zoom maximization shared across modules."""

from __future__ import annotations

import numpy as np


def zoom_max(f, lo, hi, counts):
    """Maximize f over the brackets [lo_i, hi_i] by sampling and zooming.

    Every bracket is sampled at counts[0] points, ends included. Then, once
    for each further count c, each bracket shrinks to the one or two sample
    cells around its best sample and is sampled again at c points. f is
    called once per round on the (brackets, count) array of samples and
    returns values of that shape. Returns floats (x, f(x)) for the best
    sample of all rounds; ties go to the smaller abscissa.
    """
    lo, hi = np.atleast_1d(lo).astype(float), np.atleast_1d(hi).astype(float)
    xs, vals = [], []
    for c in counts:
        if xs:
            cells = np.argmax(v, axis=1)[:, None] + [-1, 1]
            lo, hi = np.take_along_axis(x, cells.clip(0, x.shape[1] - 1), axis=1).T
        x = np.linspace(lo, hi, c, axis=1)
        v = f(x)
        xs.append(x.ravel())
        vals.append(v.ravel())
    xs, vals = np.concatenate(xs), np.concatenate(vals)
    i = np.lexsort((xs, -vals))[0]
    return float(xs[i]), float(vals[i])
