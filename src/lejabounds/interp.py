"""Polynomial interpolation operators: Lagrange basis, barycentric
evaluation, Lebesgue function and constant.

The weights w_k = 1 / prod_{j != k} (x_k - x_j) are formed from logs and
signs and scaled by their largest modulus, so hundreds of nodes neither
under- nor overflow. Every evaluation goes through the terms
t_k(x) = w_k / (x - x_k) (Berrut & Trefethen, SIAM Rev. 46, 2004):
interpolant sum t_k f_k / sum t, basis L_k = t_k / sum t, Lebesgue function
sum |t| / |sum t|, each exact at node hits; the Lebesgue function runs in
row blocks, so its memory does not grow with the number of points. The
Lebesgue constant comes from one batched zoom over the pieces of K cut at
the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._search import zoom_max
from .compact_set import CompactSet, ValidationError

# samples per bracket (ends included) in each of the 13 rounds of the scan
_SCAN_COUNTS = (10,) * 13
# point x node entries of one row block of the Lebesgue function
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
        diff = nodes[:, None] - nodes[None, :]
        np.fill_diagonal(diff, 1.0)
        log_w = -np.log(np.abs(diff)).sum(axis=1)
        self._w = np.sign(diff).prod(axis=1) * np.exp(log_w - log_w.max())

    @classmethod
    def from_sequence(cls, seq, n: int = None) -> "InterpolationOperator":
        pts = np.asarray(seq.points, dtype=float)
        if n is not None and not 1 <= n <= len(pts):
            raise ValidationError(f"prefix length {n} not in [1, {len(pts)}]")
        return cls(pts if n is None else pts[:n])

    @property
    def n(self) -> int:
        return len(self.nodes)

    def _terms(self, x):
        """Terms w_k / (x - x_k) for the flattened points x, one row per
        point, and the mask of node hits x == x_k (those terms are inf)."""
        xs = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
        d = xs[:, None] - self.nodes[None, :]
        with np.errstate(divide="ignore"):
            return self._w / d, d == 0.0

    def lagrange_basis(self, k: int, x):
        """L_k(x), exact Kronecker delta when x hits a node."""
        if not 0 <= k < self.n:
            raise ValidationError("basis index out of range")
        t, hit = self._terms(x)
        with np.errstate(invalid="ignore"):
            out = t[:, k] / t.sum(axis=1)
        exact = hit.any(axis=1)
        out[exact] = hit[exact, k]
        return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))

    def interpolate(self, fvals, x):
        """Barycentric second form; exact at the nodes. fvals may be complex."""
        fvals = np.asarray(fvals)
        if fvals.shape != (self.n,):
            raise ValidationError("fvals must match the node count")
        t, hit = self._terms(x)
        # node hits produce inf/inf here and are patched right below
        with np.errstate(invalid="ignore"):
            out = np.asarray((t @ fvals) / t.sum(axis=1),
                             dtype=fvals.dtype if np.iscomplexobj(fvals) else float)
        hit_rows, hit_cols = np.nonzero(hit)
        out[hit_rows] = fvals[hit_cols]
        return out[0] if np.ndim(x) == 0 else out.reshape(np.shape(x))

    def lebesgue_function(self, x):
        """Sum_k |L_k(x)|; equals 1 at the nodes."""
        xs = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
        vals = np.empty(len(xs))
        rows = max(1, _BLOCK_ENTRIES // self.n)
        for r0 in range(0, len(xs), rows):
            t, hit = self._terms(xs[r0:r0 + rows])
            with np.errstate(invalid="ignore"):
                v = np.abs(t).sum(axis=1) / np.abs(t.sum(axis=1))
            v[hit.any(axis=1)] = 1.0
            vals[r0:r0 + rows] = v
        return float(vals[0]) if np.ndim(x) == 0 else vals.reshape(np.shape(x))

    def lebesgue_constant(self, K: CompactSet) -> "LebesgueReport":
        """Max of the Lebesgue function over K by a batched zoom.

        Every component of K is cut at the nodes inside it; the pieces
        (node gaps, end pieces and node-free components) are sampled at 10
        points each, ends included. Then, 12 times, each piece's bracket
        shrinks to the one or two sample cells around its best sample and
        is sampled again at 10 points. No piece is dropped, since the
        Lebesgue function is not known to be unimodal on a piece (Brutman,
        1997). lambda_n is the best value seen; ties go to the smaller
        abscissa.
        """
        nodes = np.sort(self.nodes)
        cuts = [np.concatenate(([lo], nodes[(nodes > lo) & (nodes < hi)], [hi]))
                for lo, hi in K.intervals]
        x, lam = zoom_max(self.lebesgue_function,
                          np.concatenate([c[:-1] for c in cuts]),
                          np.concatenate([c[1:] for c in cuts]), _SCAN_COUNTS)
        return LebesgueReport(n=self.n, lambda_n=lam, argmax_x=x)


@dataclass
class LebesgueReport:
    n: int
    lambda_n: float
    argmax_x: float
