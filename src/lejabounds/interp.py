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
adjacent nodes, is monotone outside the node hull, and its log is concave
on every piece of K cut at the nodes (Brutman, J. Inequal. Appl. 1, 1997;
the argument is in `lebesgue_constants`). So the Lebesgue constant comes
from one pass over the free component ends and the piece midpoints, whose
tangents bound log Lambda on each piece, and one bracketed Newton search
over just the pieces whose bound can reach the best value of that pass.
`lebesgue_constants` makes that pass and that search once for many
operators, in row blocks whose size the largest node count sets, and
`lebesgue_constant` is the same scan of one operator or of the prefixes of
its nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._search import newton_max
from .compact_set import CompactSet, ValidationError, _TINY, _check_int

# point x node entries of one row block
_BLOCK_ENTRIES = 1 << 20


def _check_prefix(n, count: int) -> int:
    """A prefix length in [1, count], as an int."""
    n = _check_int(n, "prefix length must be an integer")
    if not 1 <= n <= count:
        raise ValidationError(f"prefix length {n} not in [1, {count}]")
    return n


class InterpolationOperator:
    """Interpolation in Lagrange form on a fixed node set."""

    def __init__(self, nodes):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or len(nodes) == 0:
            raise ValidationError("nodes must be a nonempty 1-d array")
        if not np.all(np.isfinite(nodes)):
            raise ValidationError("nodes must be finite")
        if np.any(np.diff(np.sort(nodes)) < _TINY):     # closer would count as a hit
            raise ValidationError("nodes must be distinct, at least the smallest normal "
                                  "float apart")
        self.nodes = nodes
        self._log_w = self._rows(nodes, lambda d: -np.log(np.abs(d, out=d), out=d).sum(axis=1))
        # sign(w_k) = (-1)^(number of nodes above x_k)
        above = len(nodes) - 1 - np.argsort(np.argsort(nodes))
        self._w = (1 - 2 * (above % 2)) * np.exp(self._log_w - self._log_w.max())

    @classmethod
    def from_sequence(cls, seq, n: int = None) -> "InterpolationOperator":
        n = len(seq.points) if n is None else _check_prefix(n, len(seq.points))
        # the prefix alone: a view would keep the whole sequence's array alive
        return cls(np.array(seq.points[:n], dtype=float))

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
            # |x - x_k| below the smallest normal float is a hit: w_k / (x - x_k) would
            # overflow there. Beside a node of modulus 2^-968 or more, only x = x_k is.
            hit = d < _TINY
            hit &= d > -_TINY
            hits = np.flatnonzero(hit)
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

    def lebesgue_constant(self, K: CompactSet, prefixes=None):
        """Max of the Lebesgue function over K and where it is reached:
        `lebesgue_constants([self], K)[0]`, whose row blocks then hold this
        operator alone and are not padded.

        With prefixes, node counts n in [1, self.n], the list of the
        reports of the operators on the first n nodes of this one, for each
        n in order, from one `lebesgue_constants` scan: for an operator of
        a sequence's first N points these are the operators of its
        prefixes, bitwise as `from_sequence` builds them. `--n-range` scans
        this way, so a tracer that wraps this method, such as the
        `interp.lebesgue` span of `bench/spans.py`, sees one scan per range."""
        if prefixes is None:
            return lebesgue_constants([self], K)[0]
        ns = [_check_prefix(n, self.n) for n in prefixes]
        return lebesgue_constants([self if n == self.n else InterpolationOperator(self.nodes[:n])
                                   for n in ns], K)


@dataclass
class LebesgueReport:
    n: int
    lambda_n: float
    argmax_x: float


class _Batch:
    """Operators in order of node count, with the tracks of log Lambda of
    each at points it owns."""

    def __init__(self, ops):
        self.ops = ops
        self.size = np.array([op.n for op in ops])
        self.start = np.cumsum(self.size) - self.size
        self.nodes = np.concatenate([op.nodes for op in ops])
        self.w = np.concatenate([op._w for op in ops])
        self.log_w_max = np.array([op._log_w.max() for op in ops])

    def track(self, x, owner, second):
        """(log Lambda)' at the points x, off the nodes, and then
        (log Lambda)'' if second, else log Lambda, each of the operator
        owner[i] at x[i]; owner is nondecreasing.

        Lambda = A / |B| with A = sum |t_k| and B = sum t_k. With
        u_k = 1 / (x_k - x), t_k' = t_k u_k and the j-th derivative of t_k is
        j! t_k u_k^j; the signs of the t_k are fixed between nodes, so the
        same holds for |t_k|. B needs no sum of the t_k, which cancels near
        clustered nodes: by the barycentric identity sum_k w_k / (x - x_k) =
        c / prod_k (x - x_k) (Berrut & Trefethen, SIAM Rev. 46, 2004), so
        (log|B|)' = sum u_k and (log|B|)'' = sum u_k^2. In the same terms
        log Lambda = log(sum_k |w~_k u_k|) + max_k log|w_k| - sum_k log|u_k|,
        with w~ the weights scaled by their largest modulus. The rows run in
        blocks of _BLOCK_ENTRIES // (2 * n) points, n the largest node count
        of the batch, each padded to its last row's node count, so a block's
        two tables, u and c, hold at most _BLOCK_ENTRIES entries together.
        """
        rows = max(1, _BLOCK_ENTRIES // (2 * self.size[-1]))
        g, h = np.empty(len(x)), np.empty(len(x))
        for r0 in range(0, len(x), rows):
            g[r0:r0 + rows], h[r0:r0 + rows] = self._block_track(
                x[r0:r0 + rows], owner[r0:r0 + rows], second)
        return g, h

    def _block_track(self, x, owner, second):
        """`track` on one row block, from the table of u = 1 / (x_k - x) and
        c = |w~_k u|. A block of several operators has one row per point,
        gathered and padded to its last row's node count with nodes at
        infinity and weights 0, so u = 0 and c = 0 there, and the padding's
        log is masked out. A block of one operator takes its nodes and
        weights as they are, with no gather and no mask. Both forms give the
        same bits on one operator, but the padded form was slower there: the
        Cantor depth-3 quasi scan (n = 120) of the `cantor-relaxed` workload
        took 1.18 times the time of the one-operator scan this one replaced,
        against 1.01 this way, and the 8 `leja-highdeg` scans 0.96 times
        against 0.85 (medians of 4000 and 300 alternating calls in one
        process, 2 vCPUs, numpy 2.4.6)."""
        o0, o1 = owner[0], owner[-1] + 1
        if o1 - o0 == 1:
            u = self.ops[o0].nodes - x[:, None]
            np.divide(1.0, u, out=u)
            c = self.ops[o0]._w * u
            live = True
        else:
            col = np.arange(self.size[o1 - 1])
            at = np.minimum(self.start[o0:o1, None] + col, len(self.nodes) - 1)
            pad = col >= self.size[o0:o1, None]
            u = np.where(pad, np.inf, self.nodes[at])[owner - o0]
            u -= x[:, None]
            np.divide(1.0, u, out=u)
            c = np.where(pad, 0.0, self.w[at])[owner - o0]
            c *= u
            live = ~pad[owner - o0]
        np.abs(c, out=c)
        a0 = c.sum(axis=1)
        c *= u
        a1 = c.sum(axis=1) / a0
        g = a1 - u.sum(axis=1)
        if second:
            c *= u
            return g, 2.0 * c.sum(axis=1) / a0 - a1 * a1 - np.square(u, out=u).sum(axis=1)
        # log 0 on the padding would be -inf: it keeps its 0
        del c
        return g, (np.log(a0) + self.log_w_max[owner]
                   - np.log(np.abs(u, out=u), out=u, where=live).sum(axis=1))

    def pieces(self, K: CompactSet):
        """Every component of K cut at each operator's nodes inside it: the
        P pieces (lo, hi) and their owners, operator by operator and
        component by component in increasing order; then the free ends (the
        component ends that are not nodes of their operator), their owners,
        and their slots among the piece ends (slot p is the lower end of
        piece p, slot P + p its upper end)."""
        ends = np.array(K.intervals)
        a, b = ends.T
        m, C = len(self.ops), len(ends)
        comp = a.searchsorted(self.nodes, side="right") - 1
        on = comp >= 0
        comp = np.maximum(comp, 0)
        group = np.repeat(np.arange(m), self.size) * C + comp
        inside = on & (self.nodes > a[comp]) & (self.nodes < b[comp])
        # group g = (operator, component) runs from ends[g, 0] to ends[g, 1]
        ends = np.concatenate([ends] * m)
        groups = np.arange(m * C)
        cuts = np.concatenate((ends[:, 0], self.nodes[inside], ends[:, 1]))
        of = np.concatenate((groups, group[inside], groups))
        i = np.lexsort((cuts, of))
        cuts, of = cuts[i], of[i]
        piece = of[1:] == of[:-1]
        last = np.cumsum(np.bincount(group[inside], minlength=m * C) + 1) - 1
        first = np.concatenate(([0], last[:-1] + 1))
        free = np.ones((m * C, 2), dtype=bool)
        free[group[on & (self.nodes == a[comp])], 0] = False
        free[group[on & (self.nodes == b[comp])], 1] = False
        slot = np.array([first, last + last[-1] + 1]).T
        return (cuts[:-1][piece], cuts[1:][piece], of[:-1][piece] // C,
                ends[free], free.ravel().nonzero()[0] // (2 * C), slot[free])


def lebesgue_constants(operators, K: CompactSet) -> list[LebesgueReport]:
    """The LebesgueReport of every operator on K, in input order, from one
    pass and one Newton search over the pieces of all of them.

    Every component of K is cut at the nodes inside it into pieces, and
    Lambda has at most one critical point on each, a maximum:
      - between adjacent nodes x_i < x_{i+1}, Lambda equals
        p = sum_k s_k L_k with the fixed signs s_k of L_k there. p has
        degree n - 1, is 1 at both nodes, and alternates in sign at the
        other nodes going outward, so each of the other n - 2 node gaps
        holds a zero of p. p is positive at both nodes, so the piece
        holds an even number of zeros, hence none, and the last zero is
        real too: all n - 1 zeros of p are real and lie off the piece.
        Between consecutive zeros p' has an odd number of zeros and
        deg p' = n - 2, so the interval between the zeros around
        [x_i, x_{i+1}] holds exactly one critical point, which Rolle
        puts inside the piece (for n = 2, p = 1 there);
      - outside the node hull p alternates at all n nodes, so all zeros
        of p and of p' lie inside the hull and |p| is monotone;
      - a piece cut by a component end is a sub-interval of one of these.
    So on every piece log Lambda = log|p| is a constant plus a sum of
    log|x - z| over real zeros z off the piece: it is concave there, and
    its tangent at the piece's midpoint m bounds it on the whole piece,
    log Lambda <= U = f(m) + max(g(m) (hi - m), g(m) (lo - m)) with
    f = log Lambda and g = f'.

    One pass takes f and g at every free end (a component end that is
    not a node) and at every piece midpoint of every operator, in the row
    blocks of `_Batch.track`; best is the largest f of an operator's rows.
    A piece peaks at a free end where g points out of the piece, and
    otherwise (an inner piece) at its one interior critical point; node
    ends never are candidates, since Lambda = 1 there. Only the inner
    pieces with U >= best - 1e-8 (1 + |g(m)| (hi - lo)), best that of the
    piece's own operator, go to `newton_max` on (log Lambda)', and a piece
    whose U is nan stays in. The margin covers the rounding of f, of the
    tangent term and of the Lebesgue function, a few n eps times the
    largest |log|x - x_k||. So a piece left out peaks below best, while
    the scan finds at least best on best's own piece (at a free end, or on
    an inner piece, which U >= f(m) keeps): the piece can neither win nor
    tie. `newton_max` runs each bracket on its own, so the kept pieces take
    the same iterates as when every inner piece is searched. An operator's
    lambda_n is the largest value of its own Lebesgue function at its free
    ends and searched maxima, so lebesgue_function(argmax_x) == lambda_n;
    ties go to the smaller abscissa. A block of one operator is not
    padded, so an operator scanned alone does not depend on the padding;
    scanned with others, its padded sums round differently, and lambda_n
    may move by about n eps relative.
    """
    ops = list(operators)
    if not ops:
        return []
    order = sorted(range(len(ops)), key=lambda i: ops[i].n)
    batch = _Batch([ops[i] for i in order])
    lo, hi, owner, free, free_owner, slot = batch.pieces(K)
    mid = 0.5 * (lo + hi)
    # the pass takes each operator's free ends, then its midpoints
    row_owner = np.concatenate((free_owner, owner))
    rows = row_owner.argsort(kind="stable")
    row_owner = row_owner[rows]
    g, f = np.empty(len(rows)), np.empty(len(rows))
    # a midpoint can meet a node only on a piece a few ulps wide; its nan bound keeps it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g[rows], f[rows] = batch.track(np.concatenate((free, mid))[rows], row_owner, False)
        best = np.fmax.reduceat(f[rows], row_owner.searchsorted(np.arange(len(ops))))
        # slopes at the piece ends; a node end counts as pointing inward
        g_end = np.concatenate((np.full(len(lo), np.inf), np.full(len(lo), -np.inf)))
        g_end[slot] = g[:len(free)]
        g, f = g[len(free):], f[len(free):]
        inner = (g_end[:len(lo)] > 0.0) & (g_end[len(lo):] < 0.0)
        bound = f + np.maximum(g * (hi - mid), g * (lo - mid))
        keep = inner & ~(bound < best[owner] - 1e-8 * (1.0 + np.abs(g) * (hi - lo)))
    found = newton_max(lambda x, o: batch.track(x, o, True), lo[keep], hi[keep], owner[keep])
    # each operator's candidates: its free ends and its searched maxima
    at_free = free_owner.searchsorted(np.arange(len(ops) + 1))
    at_found = owner[keep].searchsorted(np.arange(len(ops) + 1))
    reports = [None] * len(ops)
    for k, (j, op) in enumerate(zip(order, batch.ops)):
        xs = np.concatenate((free[at_free[k]:at_free[k + 1]], found[at_found[k]:at_found[k + 1]]))
        vals = op.lebesgue_function(xs)
        i = np.lexsort((xs, -vals))[0]
        reports[j] = LebesgueReport(n=op.n, lambda_n=float(vals[i]), argmax_x=float(xs[i]))
    return reports
