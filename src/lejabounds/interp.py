"""Polynomial interpolation operators: Lagrange basis, barycentric
evaluation, Lebesgue function and constant.

The weights w_k = 1 / prod_{j != k} (x_k - x_j) are formed from logs and
signs, so hundreds of nodes neither under- nor overflow. The basis and the
Lebesgue function sum_k |L_k| take the product form |L_k(x)| =
exp(sum_{j != k} log|x - x_j| + log|w_k|), which is backward stable (Higham,
IMA J. Numer. Anal. 24, 2004) where a sum of the terms w_k / (x - x_k)
cancels; the interpolant keeps the barycentric second form (Berrut &
Trefethen, SIAM Rev. 46, 2004). All are exact at node hits, and the Lebesgue
function runs in row blocks, so its memory does not grow with the number of
points. It has exactly one local maximum between adjacent nodes and is
monotone outside the node hull (Brutman, J. Inequal. Appl. 1, 1997; the
argument is in `lebesgue_constant`), so the Lebesgue constant comes from one
bracketed Newton search per piece of K cut at the nodes, all pieces at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._search import newton_max
from .compact_set import CompactSet, ValidationError

# point x node entries of one row block of the Lebesgue function or its slope
_BLOCK_ENTRIES = 1 << 20


class InterpolationOperator:
    """Interpolation in Lagrange form on a fixed node set."""

    def __init__(self, nodes):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or len(nodes) == 0:
            raise ValidationError("nodes must be a nonempty 1-d array")
        if not np.all(np.isfinite(nodes)):
            raise ValidationError("nodes must be finite")
        if len(np.unique(nodes)) != len(nodes):
            raise ValidationError("nodes must be distinct")
        self.nodes = nodes
        n = len(nodes)
        self._log_w = np.empty(n)
        rows = max(1, _BLOCK_ENTRIES // n)
        for r0 in range(0, n, rows):
            d = nodes[r0:r0 + rows, None] - nodes
            d[np.arange(len(d)), np.arange(r0, r0 + len(d))] = 1.0
            self._log_w[r0:r0 + rows] = -np.log(np.abs(d, out=d), out=d).sum(axis=1)
        # sign(w_k) = (-1)^(number of nodes above x_k)
        above = n - 1 - np.argsort(np.argsort(nodes))
        self._w = (1 - 2 * (above % 2)) * np.exp(self._log_w - self._log_w.max())

    @classmethod
    def from_sequence(cls, seq, n: int = None) -> "InterpolationOperator":
        pts = np.asarray(seq.points, dtype=float)
        if n is not None and not 1 <= n <= len(pts):
            raise ValidationError(f"prefix length {n} not in [1, {len(pts)}]")
        return cls(pts if n is None else pts[:n])

    @property
    def n(self) -> int:
        return len(self.nodes)

    def _log_basis(self, xs):
        """log|L_k(x)| in product form, one row per point of xs, and the mask
        of node hits x == x_k, whose rows the caller patches."""
        d = xs[:, None] - self.nodes
        hit = d == 0.0
        d[hit] = 1.0
        np.log(np.abs(d, out=d), out=d)
        np.subtract(d.sum(axis=1, keepdims=True), d, out=d)
        d += self._log_w
        return d, hit

    def lagrange_basis(self, k: int, x):
        """L_k(x) in product form, exact Kronecker delta when x hits a node."""
        if not 0 <= k < self.n:
            raise ValidationError("basis index out of range")
        xs = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
        log_l, hit = self._log_basis(xs)
        # sign: that of w_k times (-1)^(number of nodes x_j > x, j != k)
        above = (self.nodes > xs[:, None]).sum(axis=1) - (self.nodes[k] > xs)
        out = np.sign(self._w[k]) * (1 - 2 * (above % 2)) * np.exp(log_l[:, k])
        exact = hit.any(axis=1)
        out[exact] = hit[exact, k]
        return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))

    def interpolate(self, fvals, x):
        """Barycentric second form; exact at the nodes. fvals may be complex."""
        fvals = np.asarray(fvals)
        if fvals.shape != (self.n,):
            raise ValidationError("fvals must match the node count")
        d = np.atleast_1d(np.asarray(x, dtype=float)).ravel()[:, None] - self.nodes
        # node hits produce inf/inf here and are patched right below
        with np.errstate(divide="ignore", invalid="ignore"):
            t = self._w / d
            out = np.asarray((t @ fvals) / t.sum(axis=1),
                             dtype=fvals.dtype if np.iscomplexobj(fvals) else float)
        hit_rows, hit_cols = np.nonzero(d == 0.0)
        out[hit_rows] = fvals[hit_cols]
        return out[0] if np.ndim(x) == 0 else out.reshape(np.shape(x))

    def lebesgue_function(self, x):
        """Sum_k |L_k(x)| in product form; equals 1 at the nodes."""
        xs = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
        vals = np.empty(len(xs))
        rows = max(1, _BLOCK_ENTRIES // self.n)
        for r0 in range(0, len(xs), rows):
            log_l, hit = self._log_basis(xs[r0:r0 + rows])
            vals[r0:r0 + rows] = np.where(hit.any(axis=1), 1.0,
                                          np.exp(log_l, out=log_l).sum(axis=1))
        return float(vals[0]) if np.ndim(x) == 0 else vals.reshape(np.shape(x))

    def _log_slope(self, x):
        """(log Lambda)' and (log Lambda)'' at the points x, off the nodes.

        Lambda = A / |B| with A = sum |t_k| and B = sum t_k. With
        u_k = 1 / (x_k - x), t_k' = t_k u_k and the j-th derivative of t_k is
        j! t_k u_k^j; the signs of the t_k are fixed between nodes, so the
        same holds for |t_k|. B needs no sum of the t_k, which cancels near
        clustered nodes: by the barycentric identity sum_k w_k / (x - x_k) =
        c / prod_k (x - x_k) (Berrut & Trefethen, SIAM Rev. 46, 2004), so
        (log|B|)' = sum u_k and (log|B|)'' = sum u_k^2. Both tracks come from
        one row block of u.
        """
        g, gp = np.empty(len(x)), np.empty(len(x))
        rows = max(1, _BLOCK_ENTRIES // self.n)
        for r0 in range(0, len(x), rows):
            u = 1.0 / (self.nodes - x[r0:r0 + rows, None])
            c = np.abs(self._w * u)
            a0 = c.sum(axis=1)
            c *= u
            a1 = c.sum(axis=1) / a0
            c *= u
            g[r0:r0 + rows] = a1 - u.sum(axis=1)
            gp[r0:r0 + rows] = (2.0 * c.sum(axis=1) / a0 - a1 * a1
                                - np.square(u, out=u).sum(axis=1))
        return g, gp

    def lebesgue_constant(self, K: CompactSet) -> "LebesgueReport":
        """Max of the Lebesgue function over K by one Newton search per piece.

        Every component of K is cut at the nodes inside it into pieces, and
        Lambda has at most one critical point on each, a maximum:
          - between adjacent nodes x_i < x_{i+1}, Lambda equals
            p = sum_k s_k L_k with the fixed signs s_k of L_k there. p has
            degree n - 1, is 1 at both nodes, and alternates in sign at the
            other nodes going outward, so each of the other n - 2 node gaps
            holds a zero of p. Between consecutive zeros p' has an odd number
            of zeros and deg p' = n - 2, so the interval between the zeros
            around [x_i, x_{i+1}] holds exactly one critical point, which
            Rolle puts inside the piece (for n = 2, p = 1 there);
          - outside the node hull p alternates at all n nodes, so all zeros
            of p and of p' lie inside the hull and |p| is monotone;
          - a piece cut by a component end is a sub-interval of one of these.
        So a piece peaks at a free end (a component end that is not a node)
        where the slope of log Lambda points out of the piece, and otherwise
        at its one interior critical point, found by `newton_max` on
        (log Lambda)'. Node ends never are candidates, since Lambda = 1 there.
        lambda_n is the largest Lebesgue function value at the candidates, so
        lebesgue_function(argmax_x) == lambda_n; ties go to the smaller
        abscissa.
        """
        nodes = np.sort(self.nodes)
        cuts = [np.concatenate(([lo], nodes[(nodes > lo) & (nodes < hi)], [hi]))
                for lo, hi in K.intervals]
        lo = np.concatenate([c[:-1] for c in cuts])
        hi = np.concatenate([c[1:] for c in cuts])
        # slopes at the piece ends; a node end counts as pointing inward
        ends = np.concatenate((lo, hi))
        free = ~np.isin(ends, nodes)
        g = np.concatenate((np.full(len(lo), np.inf), np.full(len(hi), -np.inf)))
        g[free] = self._log_slope(ends[free])[0]
        inner = (g[:len(lo)] > 0.0) & (g[len(lo):] < 0.0)
        xs = np.concatenate((ends[free], newton_max(self._log_slope, lo[inner], hi[inner])))
        vals = self.lebesgue_function(xs)
        i = np.lexsort((xs, -vals))[0]
        return LebesgueReport(n=self.n, lambda_n=float(vals[i]), argmax_x=float(xs[i]))


@dataclass
class LebesgueReport:
    n: int
    lambda_n: float
    argmax_x: float
