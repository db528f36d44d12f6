"""Independent per-gap maxima of the distance product, for auditing Leja steps.

On a component of K with the chosen points removed, every piece is an open
or half-open interval on which P(x) = sum_j log|x - x_j| is strictly
concave. So P has at most one critical point per piece, found by a
bracketed Newton iteration on P' vectorised over all pieces; a piece whose
end is a component endpoint may instead peak at that end. None of this
shares code with the package's own step search or audit.
"""

from __future__ import annotations

import math

import numpy as np

_NEWTON_ITERS = 60


def _pieces(nodes, intervals):
    """Pieces (a, b) of K cut at the nodes, with flags for node ends."""
    lo_s, hi_s, lo_node, hi_node = [], [], [], []
    for lo, hi in intervals:
        inside = nodes[(nodes >= lo) & (nodes <= hi)]
        cuts = np.concatenate(([lo], inside, [hi]))
        is_node = np.concatenate(([False], np.ones(len(inside), bool), [False]))
        if len(inside) and inside[0] == lo:
            cuts, is_node = cuts[1:], is_node[1:]
        if len(inside) and inside[-1] == hi:
            cuts, is_node = cuts[:-1], is_node[:-1]
        keep = cuts[1:] > cuts[:-1]
        lo_s.append(cuts[:-1][keep])
        hi_s.append(cuts[1:][keep])
        lo_node.append(is_node[:-1][keep])
        hi_node.append(is_node[1:][keep])
    return (np.concatenate(lo_s), np.concatenate(hi_s),
            np.concatenate(lo_node), np.concatenate(hi_node))


def _log_product(x, nodes):
    with np.errstate(divide="ignore"):
        return np.log(np.abs(x[:, None] - nodes[None, :])).sum(axis=1)


def _slopes(x, nodes):
    r = 1.0 / (x[:, None] - nodes[None, :])
    return r.sum(axis=1), -(r * r).sum(axis=1)


def max_log_product(nodes, intervals) -> float:
    """max over K of sum_j log|x - x_j|, to within rounding."""
    nodes = np.sort(np.asarray(nodes, dtype=float))
    a, b, a_node, b_node = _pieces(nodes, intervals)
    cands = []
    # a piece ending at a component endpoint may peak at that endpoint
    for ends, is_node in ((a, a_node), (b, b_node)):
        free = ends[~is_node]
        if len(free):
            cands.append(_log_product(free, nodes))
    d_a = np.full(len(a), np.inf)
    d_b = np.full(len(b), -np.inf)
    if np.any(~a_node):
        d_a[~a_node] = _slopes(a[~a_node], nodes)[0]
    if np.any(~b_node):
        d_b[~b_node] = _slopes(b[~b_node], nodes)[0]
    inner = (d_a > 0.0) & (d_b < 0.0)
    lo, hi = a[inner], b[inner]
    x = 0.5 * (lo + hi)
    # a step of 1e-12 of the piece leaves an error of order k * 1e-24 in P;
    # below a few ulps of x the iteration only cycles through rounding
    tol = np.maximum(1e-12 * (hi - lo), 4.0 * np.spacing(np.abs(x)))
    active = np.arange(len(x))
    for _ in range(_NEWTON_ITERS):
        if not len(active):
            break
        xa, la, ha = x[active], lo[active], hi[active]
        f, fp = _slopes(xa, nodes)
        la = np.where(f > 0.0, xa, la)
        ha = np.where(f > 0.0, ha, xa)
        step = xa - f / fp
        x_new = np.where((step > la) & (step < ha), step, 0.5 * (la + ha))
        moving = np.abs(x_new - xa) > tol[active]
        x[active], lo[active], hi[active] = x_new, la, ha
        active = active[moving]
    if len(x):
        cands.append(_log_product(x, nodes))
    return float(np.max(np.concatenate(cands)))


def step_ratios(points, intervals):
    """Ratio of each chosen point's distance product to the true maximum
    over K, for steps 1 .. len(points) - 1."""
    pts = np.asarray(points, dtype=float)
    out = []
    for k in range(1, len(pts)):
        prev = pts[:k]
        log_val = float(np.sum(np.log(np.abs(pts[k] - prev))))
        out.append(math.exp(min(log_val - max_log_product(prev, intervals), 0.0)))
    return out
