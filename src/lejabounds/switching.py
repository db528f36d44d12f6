"""Switched distance-product functionals over finite point sequences.

Given points x_0, ..., x_q (pairwise distinct) and tau in (0, 1], a chain of
breakpoints 0 = n_0 < n_1 < ... < n_m = q has value

    tau^-m * prod_l prod_{n_l <= j < n_{l+1}} |x_{n_{l+1}} - x_j|
           / prod_{j=1..q} |x_0 - x_j| .

The functional is the minimum over all chains. It upper-bounds Lagrange
basis values at the tail of a tau-quasi-Leja sequence, which is what makes
it worth computing exactly: the minimum is a shortest path on the DAG of
breakpoints (edge a -> b costs log(1/tau) + sum_{a <= j < b} log|x_b - x_j|).
The dynamic program runs right to left, one running row per start, with
the logs taken in blocks of 64 starts: O(q^2) time and O(64 q) memory.

Equivalently, a chain is a rule assigning each j < q a reference point
X_j = x_{n_{l+1}} for n_l <= j < n_{l+1}, and

    value = tau^-m * prod_{j=0..q-1} |X_j - x_j| / |x_0 - x_{j+1}| .

Every value here is that product: the DP and the two explicit rules only
choose breakpoints, the rules after recentering x_0 = 0. The naive rule
switches whenever the new point is closer to the origin; its value never
exceeds tau^-q 2^(q-1). The two-track rule keeps a negative and a positive
candidate reference (-a_s, b_s), switches only when a point lands inside
(-e^-lam * a_s, e^-lam * b_s), and takes the cheapest admissible path
through those states by a two-state dynamic program; lam is the switching
constant. Its value obeys the spread bound

    (2 / tau^2) * (D / Delta)^(9/8 + 2 log(1/tau) / lam)

whenever D bounds |x_0 - x_j| from above for all j and Delta bounds it from
below for j < q.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import _exp, _log_spread, switching_constant
from .compact_set import ValidationError, _check_int, _check_tau

_DP_ROWS = 64     # starts per block of optimal_switching's log table


def _check_chain(pts: np.ndarray, tau: float) -> None:
    """The preconditions of a switching instance, on its points as an array."""
    if len(pts) < 2:
        raise ValidationError("need at least x_0 and x_1")
    _check_tau(tau)
    if not np.all(np.isfinite(pts)):
        raise ValidationError("points must be finite")
    s = np.sort(pts)
    if np.any(s[1:] == s[:-1]):
        raise ValidationError("points must be pairwise distinct")


@dataclass(frozen=True)
class SwitchingInstance:
    points: tuple
    tau: float

    def __post_init__(self):
        _check_chain(np.asarray(self.points, dtype=float), self.tau)

    @property
    def q(self) -> int:
        return len(self.points) - 1

    def to_json(self) -> dict:
        return {"points": list(map(float, self.points)), "tau": self.tau}

    @classmethod
    def from_json(cls, obj: dict) -> "SwitchingInstance":
        try:
            points, tau = tuple(map(float, obj["points"])), float(obj["tau"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError("a switching instance is a JSON object with "
                                  f"numeric 'points' and 'tau' ({exc!r})") from exc
        return cls(points=points, tau=tau)


@dataclass(frozen=True)
class SwitchingResult:
    log_value: float
    breakpoints: tuple
    m: int

    @property
    def value(self) -> float:
        return _exp(self.log_value)


def _chain_value(pts: np.ndarray, breakpoints, tau: float) -> float:
    """Log value of a valid chain on the points (x_0, ..., x_q): the sum over
    j < q of log|X_j - x_j| - log|x_0 - x_{j+1}|, X_j the point that ends j's
    segment, plus log(1/tau) per segment. math.fsum adds the paired terms
    with one rounding, so no two large log sums cancel."""
    bp = np.asarray(breakpoints)
    refs = np.repeat(pts[bp[1:]], np.diff(bp))
    logs = np.log(np.abs(refs - pts[:-1])) - np.log(np.abs(pts[0] - pts[1:]))
    logs[bp[1:] - 1] -= math.log(tau)
    return math.fsum(logs.tolist())


def chain_log_value(inst: SwitchingInstance, breakpoints) -> float:
    """Objective of one explicit breakpoint chain, in log space."""
    bp = list(breakpoints)
    if bp[0] != 0 or bp[-1] != inst.q or any(u >= v for u, v in zip(bp, bp[1:])):
        raise ValidationError("breakpoints must increase from 0 to q")
    return _chain_value(np.asarray(inst.points), bp, inst.tau)


def optimal_switching(inst: SwitchingInstance) -> SwitchingResult:
    """Exact minimum over all chains (shortest path over breakpoints).

    Backward induction from E[q] = 0: E[a] = log(1/tau) + min_{b > a}
    (S[a, b] + E[b]), S[a, b] = sum_{a <= j < b} log|x_b - x_j|. The one
    array cost[b] = E[b] + S[a, b] gains start a's row of logs in place and
    its argmin is a's next breakpoint; the rows come in blocks of _DP_ROWS
    starts, so O(q^2) time and O(_DP_ROWS q) memory.
    """
    return _optimal_chain(np.asarray(inst.points), inst.tau)


def _optimal_chain(pts: np.ndarray, tau: float) -> SwitchingResult:
    """optimal_switching on the points (x_0, ..., x_q) of a valid instance."""
    q = len(pts) - 1
    lt = math.log(1.0 / tau)
    cost = np.zeros(q + 1)                 # E[q] = 0; cost[a] = E[a] once a is done
    nxt = np.empty(q, dtype=int)
    for a1 in range(q, 0, -_DP_ROWS):
        a0 = max(a1 - _DP_ROWS, 0)
        with np.errstate(divide="ignore"):         # b = a cells, never read
            logs = np.log(np.abs(pts[a0 + 1:] - pts[a0:a1, None]))
        for a in range(a1 - 1, a0 - 1, -1):
            row = cost[a + 1:]
            row += logs[a - a0, a - a0:]
            i = row.argmin()
            cost[a] = row[i] + lt
            nxt[a] = a + 1 + i
    bp = [0]
    while bp[-1] != q:
        bp.append(int(nxt[bp[-1]]))
    return SwitchingResult(log_value=_chain_value(pts, bp, tau),
                           breakpoints=tuple(bp), m=len(bp) - 1)


def brute_force_log_min(inst: SwitchingInstance) -> float:
    """Enumerate all 2^(q-1) chains; oracle for the DP, q <= 20 only."""
    q = inst.q
    if q > 20:
        raise ValidationError("enumeration limited to q <= 20")
    best = math.inf
    inner = range(1, q)
    for r in range(q):
        for mids in itertools.combinations(inner, r):
            best = min(best, chain_log_value(inst, (0, *mids, q)))
    return best


def worst_case_instance(tau: float, q: int) -> SwitchingInstance:
    """Geometric alternating sequence x_0 = 0, x_j = (-L)^(j-1) with
    L = 1 + 1/tau, built to defeat greedy switching rules."""
    q = _check_int(q, "q must be an integer")
    if q < 1:
        raise ValidationError("q must be at least 1")
    _check_tau(tau)
    L = 1.0 + 1.0 / tau
    try:
        pts = [0.0] + [(-L) ** (j - 1) for j in range(1, q + 1)]
    except OverflowError:
        raise ValidationError(f"(-L)^(q-1) overflows a double at q = {q}") from None
    return SwitchingInstance(points=tuple(pts), tau=tau)


@dataclass(frozen=True)
class StageInfo:
    """One two-track stage: candidate references (-a, b) with the
    weighted-mean exponents and the within-stage track products."""
    a: float
    b: float
    alpha: float
    beta: float
    log_p: float
    log_q: float


@dataclass(frozen=True)
class StrategyTrace:
    kind: str
    log_value: float
    m: int
    switches: tuple          # positions j where the reference changed
    references: tuple        # X_j for j = 0..q-1, recentered (and sign-normalized) frame
    stages: tuple = ()       # two-track only
    flipped: bool = False

    @property
    def value(self) -> float:
        return _exp(self.log_value)

    def breakpoints(self) -> tuple:
        return (0, *sorted(self.switches), len(self.references))


def _trace(kind: str, pts: np.ndarray, refs: np.ndarray, tau: float, **extra) -> StrategyTrace:
    """The trace of a reference assignment: it switches at each j where
    refs[j-1] != refs[j], and is valued by that chain."""
    sw = tuple(j for j in range(1, len(refs)) if refs[j - 1] != refs[j])
    return StrategyTrace(kind=kind, log_value=_chain_value(pts, (0, *sw, len(refs)), tau),
                         m=len(sw) + 1, switches=sw, references=tuple(refs), **extra)


def _one_track(y: np.ndarray, refs: np.ndarray, js, shrink: float) -> None:
    """Single-reference rule over the descending steps js, starting from
    X = refs[js[0]]: switch X to y_j when |y_j| < shrink * |X| and set
    refs[j-1] = X."""
    for j in js:
        X = refs[j]
        if abs(y[j]) < shrink * abs(X):
            X = y[j]
        refs[j - 1] = X


def naive_strategy(inst: SwitchingInstance) -> StrategyTrace:
    """Right-to-left greedy rule: switch whenever the new point is closer
    to the recentered origin than the current reference; valued by its
    chain."""
    pts = np.asarray(inst.points)
    y = pts - pts[0]
    refs = np.empty(inst.q)
    refs[-1] = y[-1]
    _one_track(y, refs, range(inst.q - 1, 0, -1), 1.0)
    return _trace("naive", pts, refs, inst.tau)


def two_track_strategy(inst: SwitchingInstance) -> StrategyTrace:
    """Reference-pair rule with shrink threshold e^-lam (lam is the switching
    constant): a two-state DP picks its cheapest admissible path, which is
    then valued by its chain.

    After recentering and flipping signs so x_q > 0, points are consumed
    right to left. While everything is positive a single reference is kept,
    switching only when the new point is more than e^lam times smaller. From
    the last negative point on, a negative and a positive candidate (-a, b)
    evolve: a point inside (-e^-lam a, e^-lam b) forces the matching-sign
    track to switch to it and lets the opposite track switch optionally;
    points outside never switch. The DP compares the two tracks' costs up
    to the offset they share.
    """
    es = math.exp(-switching_constant())
    pts = np.asarray(inst.points)
    q = inst.q
    y = pts - pts[0]
    flipped = bool(y[q] < 0)
    if flipped:
        y = -y
    lt = math.log(1.0 / inst.tau)
    neg = np.flatnonzero(y[1:q] < 0)
    qprime = int(neg[-1]) + 1 if len(neg) else 0

    refs = np.empty(q)
    refs[q - 1] = y[q]
    _one_track(y, refs, range(q - 1, qprime, -1), es)
    stages = []                    # [a, b, within-stage log_p, log_q] per stage
    if qprime > 0:
        # from j = qprime on, track P references -a (entering it is a switch)
        # and Q references b; steps[k] = (j, a, b after step j, parent of P,
        # parent of Q) with 0 = P and 1 = Q
        a, b = float(-y[qprime]), float(refs[qprime])
        cost_p, cost_q = lt, 0.0
        stages.append([a, b, 0.0, 0.0])
        steps = [(qprime, a, b, 0, 1)]
        for j in range(qprime - 1, 0, -1):
            yj = float(y[j])
            rp = math.log(abs(-a - yj)) - math.log(abs(yj))
            rq = math.log(abs(b - yj)) - math.log(abs(yj))
            pp, pq = 0, 1
            if not -es * a < yj < es * b:
                cost_p, cost_q = cost_p + rp, cost_q + rq
                stages[-1][2] += rp
                stages[-1][3] += rq
            else:
                from_p, from_q = cost_p + rp + lt, cost_q + rq + lt
                best, parent = min(from_p, from_q), 0 if from_p <= from_q else 1
                if yj > 0:         # Q switches to yj (from P or Q), P keeps -a
                    cost_p, cost_q, b, pq = cost_p + rp, best, yj, parent
                else:              # P switches to yj (from P or Q), Q keeps b
                    cost_p, cost_q, a, pp = best, cost_q + rq, -yj, parent
                stages.append([a, b, 0.0, 0.0])
            steps.append((j, a, b, pp, pq))
        track = 0 if cost_p + math.log(a) <= cost_q + math.log(b) else 1
        for j, a, b, pp, pq in reversed(steps):
            refs[j - 1] = -a if track == 0 else b
            track = (pp, pq)[track]

    return _trace("two_track", pts, refs, inst.tau, flipped=flipped,
                  stages=tuple(StageInfo(a=sa, b=sb, alpha=sb / (sa + sb), beta=sa / (sa + sb),
                                         log_p=lp, log_q=lq) for sa, sb, lp, lq in stages))


def spread_log_bound(d_max: float, d_min: float, tau: float) -> float:
    if not (d_max > 0 and d_min > 0 and d_max >= d_min):
        raise ValidationError("need 0 < d_min <= d_max")
    _check_tau(tau)
    return _log_spread(math.log(d_max) - math.log(d_min), tau)


def spread_bound(d_max: float, d_min: float, tau: float) -> float:
    """(2/tau^2) (d_max/d_min)^(9/8 + 2 log(1/tau)/lam), lam the switching
    constant; +inf on overflow."""
    return _exp(spread_log_bound(d_max, d_min, tau))


@dataclass(frozen=True)
class SpreadReport:
    holds: bool
    log_exact: float
    log_bound: float
    d_max: float
    d_min: float
    breakpoints: tuple


def check_spread_bound(inst: SwitchingInstance) -> SpreadReport:
    """Exact functional against the spread bound with D, Delta read off the
    instance itself (D = max_j |x_0 - x_j|, Delta = min_{j<q}, Delta = D
    when q = 1); holds allows a relative excess of 1e-9."""
    pts = np.asarray(inst.points)
    gaps = np.abs(pts[1:] - pts[0])
    d_max = float(gaps.max())
    d_min = float(gaps[:-1].min()) if inst.q > 1 else d_max
    res = optimal_switching(inst)
    lb = spread_log_bound(d_max, d_min, inst.tau)
    return SpreadReport(holds=bool(res.log_value <= lb + math.log1p(1e-9)),
                        log_exact=res.log_value, log_bound=lb,
                        d_max=d_max, d_min=d_min, breakpoints=res.breakpoints)


@dataclass(frozen=True)
class BasisSwitchReport:
    ok: bool
    skipped: bool
    k: int
    x: float
    log_basis: float
    log_switching: float


def basis_vs_switching(seq, k: int, x: float) -> BasisSwitchReport:
    """|L_k(x)| on the first n sequence points against the switching
    functional of (x_k, ..., x_{n-1}, x) at the sequence's tau; the bound
    direction holds when the sequence is tau-quasi-Leja (ok allows a
    relative excess of 1e-9). Skips (ok vacuously) when x hits a node."""
    pts = np.asarray(seq.points, dtype=float)
    n = len(pts)
    k = _check_int(k, "k must be an integer")
    if not 0 <= k < n:
        raise ValidationError("k out of range")
    if np.any(pts == x):
        return BasisSwitchReport(ok=True, skipped=True, k=k, x=x,
                                 log_basis=math.nan, log_switching=math.nan)
    chain = np.append(pts[k:], float(x))
    _check_chain(chain, seq.tau)
    others = np.concatenate((pts[:k], pts[k + 1:]))
    log_basis = math.fsum((np.log(np.abs(x - others))
                           - np.log(np.abs(pts[k] - others))).tolist())
    res = _optimal_chain(chain, seq.tau)
    ok = log_basis <= res.log_value + math.log1p(1e-9)
    return BasisSwitchReport(ok=bool(ok), skipped=False, k=k, x=float(x),
                             log_basis=log_basis, log_switching=res.log_value)
