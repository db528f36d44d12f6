"""Polynomial interpolation operators: Lagrange basis, barycentric
evaluation, Lebesgue function and constant.

The weights w_k = 1 / prod_{j != k} (x_k - x_j) are formed from logs and
signs, so hundreds of nodes neither under- nor overflow. The basis and the
Lebesgue function sum_k |L_k| take the product form |L_k(x)| =
exp(sum_{j != k} log|x - x_j| + log|w_k|), which is backward stable (Higham,
IMA J. Numer. Anal. 24, 2004) where a sum of the terms w_k / (x - x_k)
cancels; the interpolant keeps the barycentric second form (Berrut &
Trefethen, SIAM Rev. 46, 2004). All of them, the weights included, are exact
at node hits and run in row blocks, so memory does not grow with the number
of points. The Lebesgue function has exactly one local maximum between
adjacent nodes and is monotone outside the node hull (Brutman, J. Inequal.
Appl. 1, 1997; the argument is in `lebesgue_constant`), so the Lebesgue
constant comes from one bracketed Newton search per piece of K cut at the
nodes, all pieces at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._search import newton_max
from .compact_set import CompactSet, ValidationError, _check_int

# point x node entries of one row block
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
        self._log_w = self._rows(nodes, lambda d: -np.log(np.abs(d, out=d), out=d).sum(axis=1))
        # sign(w_k) = (-1)^(number of nodes above x_k)
        above = len(nodes) - 1 - np.argsort(np.argsort(nodes))
        self._w = (1 - 2 * (above % 2)) * np.exp(self._log_w - self._log_w.max())

    @classmethod
    def from_sequence(cls, seq, n: int = None) -> "InterpolationOperator":
        pts = np.asarray(seq.points, dtype=float)
        if n is not None:
            n = _check_int(n, "prefix length must be an integer")
            if not 1 <= n <= len(pts):
                raise ValidationError(f"prefix length {n} not in [1, {len(pts)}]")
        return cls(pts[:n])

    @property
    def n(self) -> int:
        return len(self.nodes)

    def _rows(self, x, row, at_node=None, dtype=float):
        """row(d) on row blocks of d = x - x_k (node hits set to 1, then valued at_node[k]
        unless at_node is None); shaped like x, a Python scalar for a scalar x."""
        xs = np.asarray(x, dtype=float).ravel()
        out = np.empty(len(xs), dtype=dtype)
        rows = max(1, _BLOCK_ENTRIES // self.n)
        for r0 in range(0, len(xs), rows):
            d = xs[r0:r0 + rows, None] - self.nodes
            hits = np.flatnonzero(d == 0.0)
            d.flat[hits] = 1.0
            out[r0:r0 + rows] = row(d)
            if at_node is not None:
                out[r0 + hits // self.n] = at_node[hits % self.n]
        return out.item() if np.ndim(x) == 0 else out.reshape(np.shape(x))

    def _log_basis(self, d):
        """log|L_k(x)| in product form, in place on a block d of `_rows`."""
        np.log(np.abs(d, out=d), out=d)
        np.subtract(d.sum(axis=1, keepdims=True), d, out=d)
        d += self._log_w
        return d

    def lagrange_basis(self, k: int, x):
        """L_k(x) in product form, exact Kronecker delta when x hits a node."""
        k = _check_int(k, "basis index must be an integer")
        if not 0 <= k < self.n:
            raise ValidationError("basis index out of range")

        def row(d):
            # sign: that of w_k times (-1)^(number of nodes x_j > x, j != k)
            above = (d < 0.0).sum(axis=1) - (d[:, k] < 0.0)
            return np.sign(self._w[k]) * (1 - 2 * (above % 2)) * np.exp(self._log_basis(d)[:, k])
        return self._rows(x, row, np.arange(self.n) == k)

    def interpolate(self, fvals, x):
        """Barycentric second form; exact at the nodes. fvals may be complex."""
        fvals = np.asarray(fvals)
        if fvals.shape != (self.n,):
            raise ValidationError("fvals must match the node count")

        def row(d):
            t = np.divide(self._w, d, out=d)
            # a node-hit row can sum to 0 (nodes -1, 0 at x = 0); _rows replaces it
            with np.errstate(divide="ignore", invalid="ignore"):
                return (t @ fvals) / t.sum(axis=1)
        return self._rows(x, row, fvals, fvals.dtype if np.iscomplexobj(fvals) else float)

    def lebesgue_function(self, x):
        """Sum_k |L_k(x)| in product form; equals 1 at the nodes."""
        return self._rows(x, lambda d: np.exp(self._log_basis(d), out=d).sum(axis=1),
                          np.ones(self.n))

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
