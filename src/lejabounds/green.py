"""Green's function of the complement of an interval union, with pole at
infinity, realized through the equilibrium measure.

For K = union of N closed intervals [a_j, b_j] the equilibrium density is

    w(t) = |h(t)| / (pi * sqrt(prod_j |t - a_j| |t - b_j|)),    t in K,

where h is a real polynomial of degree N-1. Its N coefficients solve an
N x N linear system: one vanishing-integral condition per gap (which makes
the potential constant across components) and total mass one. All integrals
use the cosine substitution t = m + w*cos(theta) on the interval or gap at
hand, which absorbs the endpoint singularities and turns the midpoint rule
in theta into Gauss-Chebyshev quadrature with spectral accuracy.

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
only copy of the equilibrium measure, `density` included: h exists only
inside the solve.

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
_NODE_BLOCK = 1 << 15                   # nodes per row block of _system
_VANDER_BLOCK = 1 << 18                 # Chebyshev values per Vandermonde block


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
    quadrature_order: int
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


def _hull_coord(K: CompactSet, t):
    """Affine image of t in [-1, 1] coordinates of the hull of K."""
    return (2.0 * np.asarray(t, dtype=float) - K.lo - K.hi) / (K.hi - K.lo)


def _system(K: CompactSet, order: int):
    """Equilibrium system at one per-interval quadrature order: the matrix
    on the Chebyshev coefficients of h (one unscaled row per gap, whose right
    side is 0, then the mass row), the sign of h on each component, and
    each component's nodes and weights.

    Piece p (a component for even p, a gap for odd p) spans the endpoints
    ends[p], ends[p + 1] of K. The pieces run in row blocks of at most
    _NODE_BLOCK nodes: a block holds the cosine nodes t of its pieces and
    multiplies in the endpoint weights sqrt(prod |t - e|) one end e at a
    time, in place, with the factor exactly 1.0 on the two pieces that e
    bounds. Each piece's row, sum_t T_k(t) / weight, is then one product
    with its Chebyshev Vandermonde matrix, built _VANDER_BLOCK values at a
    time. Only the components' nodes and weights outlive their block.
    """
    iv = K.intervals
    N = len(iv)
    ends = np.array([e for pair in iv for e in pair])
    ct = np.cos((np.arange(order) + 0.5) * math.pi / order)
    # sign of h on component j: + on the rightmost, alternating leftward
    signs = np.array([(-1.0) ** (N - 1 - j) for j in range(N)])
    pieces = 2 * N - 1
    sums = np.empty((pieces, N))
    comps = []
    rows = max(1, _NODE_BLOCK // order)
    sub = max(1, _VANDER_BLOCK // (order * N))
    for p0 in range(0, pieces, rows):
        p1 = min(p0 + rows, pieces)
        lo, hi = ends[p0:p1, None], ends[p0 + 1:p1 + 1, None]
        t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * ct
        root, factor = np.ones_like(t), np.empty_like(t)
        for k, e in enumerate(ends):
            np.abs(np.subtract(t, e, out=factor), out=factor)
            factor[max(k - 1 - p0, 0):max(k + 1 - p0, 0)] = 1.0   # pieces k - 1, k
            root *= factor
        np.sqrt(root, out=root)
        inv = np.divide(1.0, root, out=factor)
        x = _hull_coord(K, t)
        for s0 in range(0, len(t), sub):
            V = _cheb.chebvander(x[s0:s0 + sub], N - 1)
            for r, Vr in enumerate(V, s0):
                sums[p0 + r] = Vr.T @ inv[r]
        comps += [(t[r].copy(), root[r].copy()) for r in range(p0 % 2, len(t), 2)]
    mass_row = np.zeros(N)
    for sign, row in zip(signs, sums[0::2]):
        mass_row += sign * row / order  # (1/pi)*(pi/order)
    return np.vstack([sums[1::2], mass_row]), signs, comps


def _solve(K: CompactSet, order: int, system):
    """One equilibrium solve of the system built by _system(K, order):
    h's coefficients, the full (components x order) array of the C_{j,k}
    and the least transplanted density sample."""
    A, signs, comps = system
    rhs = np.zeros(len(A))
    rhs[-1] = 1.0
    try:
        coef = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise GreenBuildError(f"equilibrium system singular at order {order}") from exc

    # transplanted densities, one row per component, and their Chebyshev
    # coefficients (pi/order) sum_i v_i cos(k theta_i) as a DCT-II by one FFT
    V = np.array([signs[j] * _cheb.chebval(_hull_coord(K, t), coef) / (math.pi * root)
                  for j, (t, root) in enumerate(comps)])
    F = np.fft.rfft(np.hstack([V, V[:, ::-1]]), axis=1)[:, :order]
    C = (0.5 * math.pi / order) * (F * np.exp(-0.5j * math.pi * np.arange(order) / order)).real
    return coef, C, float(V.min())


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

    At the order cap a series that has not ended is refused at once: the
    residuals at twice the cap could not change the verdict, so that system
    is never built, and the message gives the residuals of the previous
    solve (measured on the cap's own system) and says so.
    """
    order = 256
    history = []
    system = _system(K, order)
    while True:
        coef, C, vmin = _solve(K, order, system)
        lengths = _chop(C)
        ended = bool(np.all(lengths <= order - 3))
        if ended or order < _MAX_ORDER:
            # residuals at twice the order; on doubling, that system is the next one
            system = _system(K, 2 * order)
            res = system[0] @ coef
            mass_err = abs(float(res[-1]) - 1.0)
            gap_err = float(np.max(np.abs(res[:-1]), initial=0.0)) * math.pi / (2 * order)
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

    model = GreenModel(K, order, 0.0, [row[:n].copy() for row, n in zip(C, lengths)])
    z0 = 0.5 * (K.intervals[0][0] + K.intervals[0][1])
    model.robin_constant = -model.potential(z0)

    mids = np.array([0.5 * (lo + hi) for lo, hi in K.intervals])
    bres = float(np.max(np.abs(model.potential(mids) + model.robin_constant)))
    if bres > 1e-8:
        raise GreenBuildError(f"potential not constant across components: {bres:.2e}")
    if vmin < -1e-10:
        raise GreenBuildError(f"equilibrium density went negative: {vmin:.2e}")
    # order, series_length, mass_residual and gap_residual of the last solve
    model.diagnostics = {**history[-1], "boundary_residual": bres,
                         "density_min": vmin, "doubling_history": history}
    return model
