"""Polynomial interpolation operators: Lagrange basis, barycentric
evaluation, Lebesgue function and constant.

Weights and basis polynomials are handled in log space with separate sign
tracking; only weight ratios enter the barycentric second form, so the log
weights are normalized by their maximum before exponentiation and the
operator stays usable for a hundred or more nodes without under/overflow.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._search import refine_grid_max
from .compact_set import CompactSet, ValidationError


class InterpolationOperator:
    """Interpolation in Lagrange form on a fixed node set."""

    def __init__(self, nodes):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or len(nodes) == 0:
            raise ValidationError("nodes must be a nonempty 1-d array")
        if len(np.unique(nodes)) != len(nodes):
            raise ValidationError("nodes must be distinct")
        self.nodes = nodes
        n = len(nodes)
        diff = nodes[:, None] - nodes[None, :]
        off = ~np.eye(n, dtype=bool)
        # w_k = 1 / prod_{j != k} (x_k - x_j), kept as log|w| + sign
        logabs = np.zeros((n, n))
        logabs[off] = np.log(np.abs(diff[off]))
        self.log_w = -logabs.sum(axis=1)
        sgn = np.ones((n, n))
        sgn[off] = np.sign(diff[off])
        self.sign_w = sgn.prod(axis=1)

    @classmethod
    def from_sequence(cls, seq, n: int = None) -> "InterpolationOperator":
        pts = np.asarray(seq.points, dtype=float)
        if n is not None and not 1 <= n <= len(pts):
            raise ValidationError(f"prefix length {n} not in [1, {len(pts)}]")
        return cls(pts if n is None else pts[:n])

    @property
    def n(self) -> int:
        return len(self.nodes)

    def lagrange_basis(self, k: int, x):
        """L_k(x), exact Kronecker delta when x hits a node."""
        if not 0 <= k < self.n:
            raise ValidationError("basis index out of range")
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty(xs.shape)
        d = xs[:, None] - self.nodes[None, :]
        hit = d == 0.0
        exact = hit.any(axis=1)
        with np.errstate(divide="ignore"):
            logs = np.log(np.abs(d))
        logs[:, k] = 0.0
        sgns = np.sign(d)
        sgns[:, k] = 1.0
        out = (self.sign_w[k] * sgns.prod(axis=1)
               * np.exp(logs.sum(axis=1) + self.log_w[k]))
        out[exact] = hit[exact, k].astype(float)
        return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))

    def interpolate(self, fvals, x):
        """Barycentric second form; exact at the nodes. fvals may be complex."""
        fvals = np.asarray(fvals)
        if fvals.shape != (self.n,):
            raise ValidationError("fvals must match the node count")
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        d = xs[:, None] - self.nodes[None, :]
        w = self.sign_w * np.exp(self.log_w - self.log_w.max())
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = w[None, :] / d
        num = ratios @ fvals
        den = ratios.sum(axis=1)
        # node hits produce inf/inf here and are patched right below
        with np.errstate(invalid="ignore"):
            out = np.asarray(num / den,
                             dtype=fvals.dtype if np.iscomplexobj(fvals) else float)
        hit_rows, hit_cols = np.nonzero(d == 0.0)
        out[hit_rows] = fvals[hit_cols]
        return out[0] if np.ndim(x) == 0 else out.reshape(np.shape(x))

    def lebesgue_function(self, x):
        """Sum_k |L_k(x)|; equals 1 at the nodes."""
        xs = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
        d = xs[:, None] - self.nodes[None, :]
        hit = (d == 0.0).any(axis=1)
        with np.errstate(divide="ignore"):
            logs = np.log(np.abs(d))
        S = logs.sum(axis=1)
        # log|L_k(x)| = S - log|x - x_k| + log|w_k|; node rows go NaN here
        # (-inf minus -inf) and are patched to the exact value afterwards
        with np.errstate(invalid="ignore"):
            A = S[:, None] - logs + self.log_w[None, :]
            vals = np.exp(A).sum(axis=1)
        vals[hit] = 1.0
        if np.ndim(x) == 0:
            return float(vals[0])
        return vals.reshape(np.shape(x))

    def lebesgue_constant(self, K: CompactSet, grid_density: float = None,
                          keep_profile: bool = False) -> "LebesgueReport":
        """Max of the Lebesgue function over K by grid scan plus golden
        refinement.

        The scan grid is the union of a base grid on K and 8 interior
        samples between every pair of adjacent nodes, so each potential
        local max between nodes is bracketed. An explicit grid_density
        that undersamples the node gaps triggers a warning.
        """
        nodes_in = np.sort(self.nodes)
        gaps = np.diff(nodes_in)
        min_gap = gaps.min() if len(gaps) else K.diam
        if grid_density is None:
            grid_density = max(64.0 / K.diam, 512.0 / K.diam * self.n / 8.0)
        elif min_gap > 0 and 1.0 / grid_density > 0.5 * min_gap:
            warnings.warn("grid spacing exceeds half the minimal node gap; "
                          "the scan may miss the true maximum", stacklevel=2)
        pieces = [K.grid(grid_density)]
        for a, b in zip(nodes_in[:-1], nodes_in[1:]):
            # only bridge node pairs inside one component; the function is
            # only measured on the set, never across gaps
            if any(lo <= a and b <= hi for lo, hi in K.intervals):
                pieces.append(np.linspace(a, b, 10)[1:-1])
        grid = np.unique(np.concatenate(pieces))
        vals = self.lebesgue_function(grid)
        i = int(np.argmax(vals))
        x_star, lam = refine_grid_max(self.lebesgue_function, grid, vals, i,
                                      *K.component_of(grid[i]), iters=60)
        profile = (grid, vals) if keep_profile else None
        return LebesgueReport(n=self.n, lambda_n=lam, argmax_x=x_star,
                              profile=profile)


@dataclass
class LebesgueReport:
    n: int
    lambda_n: float
    argmax_x: float
    profile: tuple = None

    def write_profile_csv(self, path) -> None:
        if self.profile is None:
            raise ValidationError("report was built without a profile")
        xs, vals = self.profile
        with open(path, "w", newline="") as fh:
            fh.write("x,lambda(x)\n")
            for x, v in zip(xs, vals):
                fh.write(f"{x!r},{v!r}\n")
