"""Green's function of the complement of an interval union, with pole at
infinity, realized through the equilibrium measure.

For K = union of N closed intervals [a_j, b_j] the equilibrium density is

    w(t) = |h(t)| / (pi * sqrt(prod_j |t - a_j| |t - b_j|)),    t in K,

where h(t) = s * prod_g (t - c_g) has one zero c_g in each of the N-1 gaps
and s makes the mass one (Embree & Trefethen, SIAM Rev. 41, 1999). The
zeros solve the gap conditions int_gap h / sqrt|q| = 0 (q the product over
all endpoints), which make the potential constant across components. All
integrals use the cosine substitution t = m + w*cos(theta) on the interval
or gap at hand, which absorbs the endpoint singularities and turns the
midpoint rule in theta into Gauss-Chebyshev quadrature with spectral
accuracy. A gap condition makes c_g the mean of the gap's nodes under the
weights |h(t) / (t - c_g)| / sqrt|q(t)| > 0 (see _solve). Products are sums
of logs, so w >= 0 holds by construction and nothing under- or overflows.

The logarithmic potential is then evaluated through the Chebyshev
coefficients C_{j,k} of the transplanted density v_j(theta): with
zeta the affine image of z in [-1, 1] coordinates of component j and
omega = zeta + sqrt(zeta - 1)*sqrt(zeta + 1) the exterior Joukowski root,

    int log|z - t| dmu_j = C_{j,0} (log w_j + log(|omega|/2))
                           - 2 sum_{k>=1} Re(omega^-k) C_{j,k} / k .

The C_{j,k} of all components come from one FFT of the even extension of
the samples (a DCT-II). Each series is chopped after its last coefficient
above _COEF_TAIL_TOL times its largest, and the sum over k is one Horner
recurrence in omega^-1. The series converges at the rate of the C_{j,k},
so the evaluation stays spectrally accurate on and arbitrarily close to K,
where plain quadrature against the log kernel would lose accuracy. For a
single interval v_j is constant, the chopped series keeps only C_{j,0}, and
the evaluation is the closed form log|omega|. The C_{j,k} are the model's
only copy of the equilibrium measure, `density` included: the zeros of h
exist only inside the solve.

g(z) = potential(z) + Robin constant, clamped at 0; capacity = exp(-Robin).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial import polynomial as _poly

from ._search import zoom_max
from .compact_set import CompactSet, ValidationError, make_union

_COEF_TAIL_TOL = 1e-12
_RESIDUAL_TOL = 1e-9
_MAX_ORDER = 4096
_CURVE_COUNTS = (256, 33, 33, 33, 33)   # samples per zoom round of G(delta)
_TABLE_BLOCK = 1 << 13                  # entries per row block of a node-to-point table


class GreenBuildError(RuntimeError):
    """Equilibrium solve failed to converge or went singular."""


def _exterior_root(zeta: np.ndarray) -> np.ndarray:
    """Joukowski inverse with |omega| >= 1 for all complex zeta."""
    zeta = np.asarray(zeta, dtype=complex)
    return zeta + np.sqrt(zeta - 1.0) * np.sqrt(zeta + 1.0)


def green_interval_analytic(a: float, b: float, z) -> float:
    """Green's function of C \\ [a, b]: log|w + sqrt(w^2 - 1)| with
    w = (2z - a - b)/(b - a) and the branch of modulus >= 1.
    Returns 0 on [a, b] itself.
    """
    if not b > a:
        raise ValidationError("need a < b")
    zeta = (2.0 * np.asarray(z, dtype=complex) - a - b) / (b - a)
    g = np.log(np.abs(_exterior_root(zeta)))
    g = np.maximum(g, 0.0)
    return float(g) if g.ndim == 0 else g


@dataclass
class GreenModel:
    """Solved equilibrium data for one set; immutable after build."""

    set: CompactSet
    robin_constant: float
    cheb_coeffs: list                   # per component, C_{j,k} chopped by _chop
    diagnostics: dict = field(default_factory=dict)

    @property
    def capacity(self) -> float:
        return math.exp(-self.robin_constant)

    def density(self, t):
        """Equilibrium density, read off the series of the component [a, b]
        that holds t: (C_0 + 2 sum_k C_k T_k(zeta)) / (pi sqrt((t-a)(b-t))),
        zeta the image of t in [-1, 1]; 0 off K. Blows up like an inverse
        square root at component endpoints, where it raises.
        """
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(np.isin(ts, self.set.intervals)):
            raise ValidationError("density requested at a component endpoint")
        out = np.zeros(ts.shape)
        for (lo, hi), C in zip(self.set.intervals, self.cheb_coeffs):
            on = (ts > lo) & (ts < hi)
            s = ts[on]
            v = _cheb.chebval((2.0 * s - lo - hi) / (hi - lo), 2.0 * C) - C[0]
            out[on] = v / (math.pi * np.sqrt((s - lo) * (hi - s)))
        return float(out[0]) if np.ndim(t) == 0 else out.reshape(np.shape(t))

    def potential(self, z):
        """Logarithmic potential int log|z - t| dmu(t), scalar or array."""
        scalar = np.ndim(z) == 0
        flat = np.atleast_1d(np.asarray(z, dtype=complex)).ravel()
        U = np.zeros(flat.shape, dtype=float)
        for (lo, hi), C in zip(self.set.intervals, self.cheb_coeffs):
            half = 0.5 * (hi - lo)
            zeta = (2.0 * flat - lo - hi) / (hi - lo)
            om = _exterior_root(zeta)
            # sum_{k>=1} (C_k / k) omega^-k as one Horner recurrence
            c = np.concatenate(([0.0], C[1:] / np.arange(1, len(C))))
            U += C[0] * (math.log(half) + np.log(0.5 * np.abs(om)))
            U -= 2.0 * _poly.polyval(1.0 / om, c).real
        return float(U[0]) if scalar else U.reshape(np.shape(z))

    def value(self, z):
        """g(z) = potential + Robin constant, clamped at 0 (so exactly 0 on K
        up to quadrature accuracy)."""
        g = np.asarray(self.potential(z)) + self.robin_constant
        g = np.maximum(g, 0.0)
        return float(g) if g.ndim == 0 else g

    def neighborhood_max(self, delta: float) -> float:
        """G(delta): max of g over {z : dist(z, K) <= 2 delta}, sampled.

        g is harmonic off K, so the max sits on the outer boundary of the
        fattened set. With r = 2 delta the boundary over each merged group of
        fattened components is the curve x + i*sqrt(r^2 - d(x)^2) (d = real
        distance to K) together with the two real tips. The curves of all
        groups are sampled at 256 points each and then zoomed together in 4
        rounds of 33 points, one evaluation of g per round. Nothing is
        stored: a caller that needs G at one delta twice keeps the value
        itself.
        """
        if not delta > 0:
            raise ValidationError("delta must be positive")
        r = 2.0 * delta
        fat = make_union([(lo - r, hi + r) for lo, hi in self.set.intervals])

        def on_curve(x):
            d = self.set._real_dist(x)
            return self.value(x + 1j * np.sqrt(np.maximum(r * r - d * d, 0.0)))

        lo, hi = np.array(fat.intervals).T
        return zoom_max(on_curve, lo, hi, _CURVE_COUNTS)[1]


def _diff_blocks(t, pts, skip):
    """Row blocks (rows, D) of D[r, i, m] = t[r, i] - pts[m], with the pairs (r, m)
    in skip (index arrays sorted by r) set to 1: _TABLE_BLOCK entries, or one row."""
    step = max(1, _TABLE_BLOCK // max(t.shape[1] * len(pts), 1))
    for r0 in range(0, len(t), step):
        D = t[r0:r0 + step, :, None] - pts
        a, b = np.searchsorted(skip[0], (r0, r0 + step))
        D[skip[0][a:b] - r0, :, skip[1][a:b]] = 1.0
        yield slice(r0, r0 + step), D


def _log_dist(t, pts, skip):
    """sum_m log|t[r, i] - pts[m]| over the pairs (r, m) not in skip."""
    out = np.empty(t.shape)
    for rows, D in _diff_blocks(t, pts, skip):
        out[rows] = np.log(np.abs(D, out=D), out=D).sum(axis=2)
    return out


def _nodes(ends, order: int):
    """Cosine nodes t of every piece at one order and -log sqrt(prod |t - e|)
    over the ends e that do not bound the piece. Piece p (a component for
    even p, a gap for odd p) spans the endpoints ends[p], ends[p + 1]."""
    t = 0.5 * (ends[:-1, None] + ends[1:, None]) + 0.5 * np.diff(ends)[:, None] * np.cos(
        (np.arange(order) + 0.5) * math.pi / order)
    p = np.repeat(np.arange(len(t)), 2)
    return t, -0.5 * _log_dist(t, ends, (p, p + np.tile([0, 1], len(t))))


def _solve(ends, nodes, c):
    """One solve on the nodes of one order, from the zeros c: the zeros, the
    (components x order) array of the C_{j,k} and log s (mass one). Newton
    steps on c_g = weighted mean of gap g's nodes t, whose Jacobian in c_k is
    -cov_w(t, 1/(t - c_k)); a step that leaves its gap falls back to the mean.
    They stop once no zero moves by 1e-12 of its gap, or at the rounding
    floor: the largest move, below 1e-9 of its gap, no longer halves."""
    lo, hi = ends[1:-1].reshape(-1, 2).T
    t, logw = nodes[0][1::2], nodes[1][1::2]
    g = np.arange(len(c))
    mean, J = np.empty(len(c)), np.empty((len(c), len(c)))   # J = I + cov_w(t, 1/(t - c))
    last = math.inf
    for _ in range(50 if len(c) else 0):          # at most 50 Newton steps
        for rows, D in _diff_blocks(t, c, (g, g)):
            inv = np.divide(1.0, D)
            lw = np.log(np.abs(D, out=D), out=D).sum(axis=2) + logw[rows]
            w = np.exp(lw - lw.max(axis=1, keepdims=True))
            w /= w.sum(axis=1, keepdims=True)
            mean[rows] = np.einsum("gi,gi->g", w, t[rows])
            J[rows] = np.einsum("gi,gik->gk", w * (t[rows] - mean[rows, None]), inv)
        J[g, g] = 1.0
        try:
            new = c + np.linalg.solve(J, mean - c)
        except np.linalg.LinAlgError:           # a singular Jacobian: the fixed-point step
            new = mean
        new = np.where((lo < new) & (new < hi), new, mean)
        c, rel = new, float(np.max(np.abs(new - c) / (hi - lo)))
        if rel <= 1e-12 or 1e-9 >= rel > 0.5 * last:
            break
        last = rel
    lv = _log_dist(nodes[0][0::2], c, (g[:0], g[:0])) + nodes[1][0::2]
    order = lv.shape[1]
    V = np.exp(lv - lv.max())
    mass = V.sum() / order
    V /= math.pi * mass
    # Chebyshev coefficients (pi/order) sum_i v_i cos(k theta_i) as a DCT-II by one FFT
    F = np.fft.rfft(np.hstack([V, V[:, ::-1]]), axis=1)[:, :order]
    C = (0.5 * math.pi / order) * (F * np.exp(-0.5j * math.pi * np.arange(order) / order)).real
    return c, C, -lv.max() - math.log(mass)


def _chop(C) -> np.ndarray:
    """Series length of each row of C: up to its last coefficient above
    _COEF_TAIL_TOL times its largest. A row with none (all NaN, say) keeps
    its full length. A solve has converged iff every row leaves at least 3
    coefficients beyond its cut."""
    A = np.abs(C)
    big = A > _COEF_TAIL_TOL * A.max(axis=1, keepdims=True)
    return np.where(big.any(axis=1), C.shape[1] - np.argmax(big[:, ::-1], axis=1), C.shape[1])


def build_green_model(K: CompactSet) -> GreenModel:
    """Solve the equilibrium problem for K, doubling the quadrature order
    from 256 until every density series ends (see _chop) at least 3
    coefficients before the order and the independently remeasured mass/gap
    residuals are below tolerance (or the order cap is hit). The model keeps
    each series only up to its chop.

    Each order's solve starts from the last one's zeros. At the order cap a
    series that has not ended is refused at once: the residuals at twice the
    cap could not change the verdict, so those nodes are never built, and
    the message gives the residuals of the previous solve (measured on the
    cap's own nodes) and says so.
    """
    order = 256
    history = []
    ends = np.ravel(K.intervals) - 0.5 * (K.lo + K.hi)   # hull-centred: c keeps its digits
    c = ends[1:-1].reshape(-1, 2).mean(axis=1)     # gap midpoints
    nodes = _nodes(ends, order)
    while True:
        c, C, log_scale = _solve(ends, nodes, c)
        lengths = _chop(C)
        ended = bool(np.all(lengths <= order - 3))
        if ended or order < _MAX_ORDER:
            # residuals at twice the order; on doubling, those nodes are the next ones
            nodes, g = _nodes(ends, 2 * order), np.arange(len(c))
            f = np.exp(_log_dist(nodes[0], c, (2 * g + 1, g)) + nodes[1] + log_scale)
            f[1::2] *= nodes[0][1::2] - c[:, None]            # h / sqrt|q| on the gaps
            mass_err = abs(float(f[0::2].sum()) / (2 * order) - 1.0)
            gap_err = float(np.abs(f[1::2].sum(axis=1)).max(initial=0.0)) * math.pi / (2 * order)
            history.append({"order": order, "series_length": int(lengths.max()),
                            "mass_residual": mass_err, "gap_residual": gap_err})
            if ended and mass_err <= 1e-10 and gap_err <= _RESIDUAL_TOL:
                break
        if order >= _MAX_ORDER:
            last = history[-1]
            note = "" if ended else f" (residuals of the order-{last['order']} solve)"
            raise GreenBuildError(
                f"no convergence at order cap {order}: series_length={lengths.max()} "
                f"mass_err={last['mass_residual']:.2e} gap_err={last['gap_residual']:.2e}{note}")
        order *= 2

    model = GreenModel(K, 0.0, [row[:n].copy() for row, n in zip(C, lengths)])
    z0 = 0.5 * (K.intervals[0][0] + K.intervals[0][1])
    model.robin_constant = -model.potential(z0)

    mids = np.array([0.5 * (lo + hi) for lo, hi in K.intervals])
    bres = float(np.max(np.abs(model.potential(mids) + model.robin_constant)))
    if bres > 1e-8:
        raise GreenBuildError(f"potential not constant across components: {bres:.2e}")
    # order, series_length, mass_residual and gap_residual of the last solve
    model.diagnostics = {**history[-1], "boundary_residual": bres,
                         "doubling_history": history}
    return model
