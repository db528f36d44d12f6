"""Switched distance-product functionals over finite point sequences.

Given points x_0, ..., x_q (pairwise distinct) and tau in (0, 1], a chain of
breakpoints 0 = n_0 < n_1 < ... < n_m = q has value

    tau^-m * prod_l prod_{n_l <= j < n_{l+1}} |x_{n_{l+1}} - x_j|
           / prod_{j=1..q} |x_0 - x_j| .

The functional is the minimum over all chains. It upper-bounds Lagrange
basis values at the tail of a tau-quasi-Leja sequence, which is what makes
it worth computing exactly: the minimum is a shortest path on the DAG of
breakpoints (edge a -> b costs log(1/tau) + sum_{a <= j < b} log|x_b - x_j|)
and costs O(q^2) with running suffix sums.

Equivalently, after recentering x_0 = 0, a chain is a rule assigning each
j < q a reference point X_j = x_{n_{l+1}} for n_l <= j < n_{l+1}, and

    value = tau^-m * |X_0| / |x_q| * prod_{j=1..q-1} |X_j - x_j| / |x_j| .

Two explicit rules are implemented in that frame. The naive rule switches
whenever the new point is closer to the origin; its value never exceeds
tau^-q 2^(q-1). The two-track rule keeps a negative and a positive
candidate reference (-a_s, b_s), switches only when a point lands inside
(-e^-lam * a_s, e^-lam * b_s), and evaluates the cheapest admissible path
through those states exactly by a two-state dynamic program; lam defaults
to the switching constant. Its value obeys the spread bound

    (2 / tau^2) * (D / Delta)^(9/8 + 2 log(1/tau) / lam)

whenever D bounds |x_0 - x_j| from above for all j and Delta bounds it from
below for j < q.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import _LOG_HUGE, _exponent, switching_constant
from .compact_set import ValidationError


@dataclass(frozen=True)
class SwitchingInstance:
    points: tuple
    tau: float

    def __post_init__(self):
        if len(self.points) < 2:
            raise ValidationError("need at least x_0 and x_1")
        if not 0.0 < self.tau <= 1.0:
            raise ValidationError("tau must lie in (0, 1]")
        if not all(map(math.isfinite, self.points)):
            raise ValidationError("points must be finite")
        if len(set(self.points)) != len(self.points):
            raise ValidationError("points must be pairwise distinct")

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
        return math.exp(self.log_value) if self.log_value <= _LOG_HUGE else math.inf


def chain_log_value(inst: SwitchingInstance, breakpoints) -> float:
    """Objective of one explicit breakpoint chain, in log space."""
    bp = list(breakpoints)
    q = inst.q
    if bp[0] != 0 or bp[-1] != q or any(u >= v for u, v in zip(bp, bp[1:])):
        raise ValidationError("breakpoints must increase from 0 to q")
    pts = np.asarray(inst.points)
    num = 0.0
    for u, v in zip(bp, bp[1:]):
        num += float(np.sum(np.log(np.abs(pts[v] - pts[u:v]))))
    den = float(np.sum(np.log(np.abs(pts[0] - pts[1:]))))
    return (len(bp) - 1) * math.log(1.0 / inst.tau) + num - den


def optimal_switching(inst: SwitchingInstance) -> SwitchingResult:
    """Exact minimum over all chains (shortest path over breakpoints)."""
    pts = np.asarray(inst.points)
    q = inst.q
    lt = math.log(1.0 / inst.tau)
    dist = np.full(q + 1, np.inf)
    dist[0] = 0.0
    pred = np.zeros(q + 1, dtype=int)
    for b in range(1, q + 1):
        logs = np.log(np.abs(pts[b] - pts[:b]))
        suffix = np.cumsum(logs[::-1])[::-1]  # suffix[a] = sum_{j=a..b-1}
        cand = dist[:b] + lt + suffix
        i = int(np.argmin(cand))
        dist[b] = cand[i]
        pred[b] = i
    bp = [q]
    while bp[-1] != 0:
        bp.append(int(pred[bp[-1]]))
    bp.reverse()
    den = float(np.sum(np.log(np.abs(pts[0] - pts[1:]))))
    return SwitchingResult(log_value=float(dist[q]) - den,
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
    if q < 1:
        raise ValidationError("q must be at least 1")
    L = 1.0 + 1.0 / tau
    pts = [0.0] + [(-L) ** (j - 1) for j in range(1, q + 1)]
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
    ratios: tuple            # log(|X_j - x_j| / |x_j|) for j = 1..q-1
    stages: tuple = ()       # two-track only
    flipped: bool = False
    shrink: float = None

    @property
    def value(self) -> float:
        return math.exp(self.log_value) if self.log_value <= _LOG_HUGE else math.inf

    def breakpoints(self) -> tuple:
        return (0, *sorted(self.switches), len(self.references))


def _trace_log_value(y: np.ndarray, refs, switches, tau: float) -> float:
    """Value of an explicit reference assignment in the recentered frame."""
    q = len(y) - 1
    m = len(switches) + 1
    total = m * math.log(1.0 / tau) + math.log(abs(refs[0]))
    for j in range(1, q):
        total += math.log(abs(refs[j] - y[j])) - math.log(abs(y[j]))
    total -= math.log(abs(y[q]))
    return total


def naive_strategy(inst: SwitchingInstance) -> StrategyTrace:
    """Right-to-left greedy rule: switch whenever the new point is closer
    to the recentered origin than the current reference."""
    pts = np.asarray(inst.points)
    q = inst.q
    y = pts - pts[0]
    refs = np.empty(q)
    refs[q - 1] = y[q]
    switches = []
    ratios = []
    for j in range(q - 1, 0, -1):
        X = refs[j]
        ratios.append(math.log(abs(X - y[j])) - math.log(abs(y[j])))
        if abs(y[j]) < abs(X):
            refs[j - 1] = y[j]
            switches.append(j)
        else:
            refs[j - 1] = X
    switches.sort()
    ratios.reverse()
    lv = _trace_log_value(y, refs, switches, inst.tau)
    return StrategyTrace(kind="naive", log_value=lv, m=len(switches) + 1,
                         switches=tuple(switches), references=tuple(refs),
                         ratios=tuple(ratios))


def two_track_strategy(inst: SwitchingInstance, shrink: float = None) -> StrategyTrace:
    """Reference-pair rule with shrink threshold e^-lam, evaluated exactly
    over its admissible paths by a two-state DP.

    After recentering and flipping signs so x_q > 0, points are consumed
    right to left. While everything is positive a single reference is kept,
    switching only when the new point is more than e^lam times smaller. From
    the last negative point on, a negative and a positive candidate (-a, b)
    evolve: a point inside (-e^-lam a, e^-lam b) forces the matching-sign
    track to switch to it and lets the opposite track switch optionally;
    points outside never switch. The cheapest path through these states is
    the trace value.
    """
    lam = switching_constant() if shrink is None else float(shrink)
    if not lam > 0:
        raise ValidationError("shrink rate must be positive")
    es = math.exp(-lam)
    pts = np.asarray(inst.points)
    q = inst.q
    y = pts - pts[0]
    flipped = y[q] < 0
    if flipped:
        y = -y
    lt = math.log(1.0 / inst.tau)

    neg = np.flatnonzero(y[1:q] < 0)
    qprime = int(neg[-1]) + 1 if len(neg) else 0

    refs = np.empty(q)
    ratios_head = {}
    switches = []
    # phase 1: positive tail, single track
    X = y[q]
    refs[q - 1] = X
    cost_head = 0.0
    for j in range(q - 1, qprime, -1):
        ratios_head[j] = math.log(abs(X - y[j])) - math.log(abs(y[j]))
        cost_head += ratios_head[j]
        if y[j] < es * X:
            X = y[j]
            switches.append(j)
            cost_head += lt
        refs[j - 1] = X

    if qprime == 0:
        lv = cost_head + lt + math.log(refs[0]) - math.log(y[q])
        ratios = [ratios_head[j] for j in range(1, q)]
        return StrategyTrace(kind="two_track", log_value=lv, m=len(switches) + 1,
                             switches=tuple(sorted(switches)),
                             references=tuple(refs), ratios=tuple(ratios),
                             flipped=bool(flipped), shrink=lam)

    # entering the two-track phase at j = qprime
    b = float(X)
    a = float(-y[qprime])
    ratio_qp = math.log(a + b) - math.log(a)
    cost_head += ratio_qp
    ratios_head[qprime] = ratio_qp
    cost_p, cost_q = lt, 0.0       # relative to cost_head
    # per-stage bookkeeping: (a, b, within-stage sums, trigger info, parents)
    stages_raw = [{"a": a, "b": b, "lp": 0.0, "lq": 0.0, "start": qprime}]
    parents = []                   # (winner_for_P, winner_for_Q, trigger_j, sign)
    trig_ratio = {}
    for j in range(qprime - 1, 0, -1):
        yj = float(y[j])
        inside = -es * a < yj < es * b
        rp = math.log(abs(-a - yj)) - math.log(abs(yj))
        rq = math.log(abs(b - yj)) - math.log(abs(yj))
        if not inside:
            cost_p += rp
            cost_q += rq
            stages_raw[-1]["lp"] += rp
            stages_raw[-1]["lq"] += rq
            continue
        trig_ratio[j] = (rp, rq)
        if yj > 0:
            new_p = cost_p + rp
            from_p, from_q = cost_p + rp + lt, cost_q + rq + lt
            new_q = min(from_p, from_q)
            parents.append(("P", "P" if from_p <= from_q else "Q", j, +1))
            b = yj
        else:
            new_q = cost_q + rq
            from_p, from_q = cost_p + rp + lt, cost_q + rq + lt
            new_p = min(from_p, from_q)
            parents.append(("P" if from_p <= from_q else "Q", "Q", j, -1))
            a = -yj
        cost_p, cost_q = new_p, new_q
        stages_raw.append({"a": a, "b": b, "lp": 0.0, "lq": 0.0, "start": j})

    end_p = cost_p + math.log(a)
    end_q = cost_q + math.log(b)
    final = "P" if end_p <= end_q else "Q"
    lv = cost_head + min(end_p, end_q) + lt - math.log(y[q])

    # walk the parents backwards to recover the chosen track per stage
    track = [final]
    for (win_p, win_q, _j, _s) in reversed(parents):
        track.append(win_p if track[-1] == "P" else win_q)
    track.reverse()               # track[s] = side during stage s

    # expand to per-step references and switch positions
    for s, st in enumerate(stages_raw):
        ref = -st["a"] if track[s] == "P" else st["b"]
        stop = stages_raw[s + 1]["start"] if s + 1 < len(stages_raw) else 0
        for j in range(st["start"] - 1, stop - 1, -1):
            refs[j] = ref
    if track[0] == "P":
        switches.append(qprime)
    for s, (win_p, win_q, j, sign) in enumerate(parents, start=1):
        came = track[s - 1]
        goes = track[s]
        if goes == "Q" and sign > 0:
            switches.append(j)     # switched to the new positive point
        elif goes == "P" and sign < 0:
            switches.append(j)     # switched to the new negative point
        elif came != goes:
            raise AssertionError("illegal transition reconstructed")

    ratios = []
    for j in range(1, q):
        if j in ratios_head:
            ratios.append(ratios_head[j])
        elif j in trig_ratio:
            ratios.append(trig_ratio[j][0] if refs[j] < 0 else trig_ratio[j][1])
        else:
            ratios.append(math.log(abs(refs[j] - y[j])) - math.log(abs(y[j])))

    stages = []
    for s, st in enumerate(stages_raw):
        asz, bsz = st["a"], st["b"]
        stages.append(StageInfo(a=asz, b=bsz, alpha=bsz / (asz + bsz),
                                beta=asz / (asz + bsz),
                                log_p=st["lp"], log_q=st["lq"]))
    return StrategyTrace(kind="two_track", log_value=lv, m=len(switches) + 1,
                         switches=tuple(sorted(switches)), references=tuple(refs),
                         ratios=tuple(ratios), stages=tuple(stages),
                         flipped=bool(flipped), shrink=lam)


def spread_log_bound(d_max: float, d_min: float, tau: float, lam: float = None) -> float:
    if not (d_max > 0 and d_min > 0 and d_max >= d_min):
        raise ValidationError("need 0 < d_min <= d_max")
    if not 0.0 < tau <= 1.0:
        raise ValidationError("tau must lie in (0, 1]")
    return (math.log(2.0) - 2.0 * math.log(tau)
            + _exponent(tau, lam) * (math.log(d_max) - math.log(d_min)))


def spread_bound(d_max: float, d_min: float, tau: float, lam: float = None) -> float:
    """(2/tau^2) (d_max/d_min)^(9/8 + 2 log(1/tau)/lam); +inf on overflow."""
    lv = spread_log_bound(d_max, d_min, tau, lam)
    return math.exp(lv) if lv <= _LOG_HUGE else math.inf


@dataclass(frozen=True)
class SpreadReport:
    holds: bool
    log_exact: float
    log_bound: float
    d_max: float
    d_min: float
    breakpoints: tuple


def check_spread_bound(inst: SwitchingInstance, tol: float = 1e-9) -> SpreadReport:
    """Exact functional against the spread bound with D, Delta read off the
    instance itself (D = max_j |x_0 - x_j|, Delta = min_{j<q}, Delta = D
    when q = 1)."""
    pts = np.asarray(inst.points)
    gaps = np.abs(pts[1:] - pts[0])
    d_max = float(gaps.max())
    d_min = float(gaps[:-1].min()) if inst.q > 1 else d_max
    res = optimal_switching(inst)
    lb = spread_log_bound(d_max, d_min, inst.tau)
    return SpreadReport(holds=bool(res.log_value <= lb + math.log1p(tol)),
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


def basis_vs_switching(seq, k: int, x: float, tau: float = None,
                       tol: float = 1e-9) -> BasisSwitchReport:
    """|L_k(x)| on the first n sequence points against the switching
    functional of (x_k, ..., x_{n-1}, x); the bound direction holds when the
    sequence is tau-quasi-Leja. Skips (ok vacuously) when x hits a node."""
    pts = np.asarray(seq.points, dtype=float)
    n = len(pts)
    if not 0 <= k < n:
        raise ValidationError("k out of range")
    tau = seq.tau if tau is None else float(tau)
    if np.any(pts == x):
        return BasisSwitchReport(ok=True, skipped=True, k=k, x=x,
                                 log_basis=math.nan, log_switching=math.nan)
    others = np.delete(np.arange(n), k)
    log_basis = float(np.sum(np.log(np.abs(x - pts[others])))
                      - np.sum(np.log(np.abs(pts[k] - pts[others]))))
    inst = SwitchingInstance(points=tuple(pts[k:]) + (float(x),), tau=tau)
    res = optimal_switching(inst)
    ok = log_basis <= res.log_value + math.log1p(tol)
    return BasisSwitchReport(ok=bool(ok), skipped=False, k=k, x=float(x),
                             log_basis=log_basis, log_switching=res.log_value)
