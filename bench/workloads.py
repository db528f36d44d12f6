"""The benchmark's workloads.

Each workload makes its inputs from the seed (outside the timed region),
runs one job through the public API and the in-process CLI, and checks
the job's outputs afterwards. Every name is looked up on the package at
call time, so the tracer's wrappers see every call. Each job builds its
own sets and Green models: ``GreenModel`` caches G(delta) per model, and a
model carried over from an earlier job would make later jobs faster.

Why these three (the shares are from traced runs on a 2-core box):

* ``bound-sweep``: ``lejabounds bound --set "0,1;2,3" --n-range 2:30``,
  the certified-bound use case with one model reused over every n.
  ``green.neighborhood_max`` does about 98% of the work, so a cheaper or
  tabulated G(delta) shows here.
* ``leja-highdeg``: exact Leja on [-1, 1] to n = 400 and the Lebesgue
  constants of eight prefixes. It runs past step 140, where the exact
  grid search stops finding the true greedy maximum, and it makes no Green
  calls: work on the Green layer must leave it unchanged.
* ``cantor-relaxed``: capacities of Cantor approximants (two of the sets
  fail to build today), the relaxed tau = 0.9 pipeline on a depth-3
  Cantor set, and an ``itau`` batch. Many components and few deltas load
  ``green`` differently, ``leja`` runs in quasi mode, and it is the only
  real load on ``switching``.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, replace

import numpy as np

import oracle

# Ransford & Rostand (Math. Comp. 76, 2007): capacity of the middle-third
# Cantor set, which every finite approximant must stay above
CANTOR_CAPACITY_LIMIT = 0.2209


@dataclass(frozen=True)
class Check:
    """One checked operation. A refused operation (the program raised its
    documented error instead of answering) is failed but not wrong."""

    name: str
    ok: bool
    refused: bool = False


def _run_cli(lb, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = lb.cli.main(list(argv))
    return rc, buf.getvalue()


def _csv_rows(text, header):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return None
    return [line.split(",") for line in lines[1:]]


class Workload:
    name = ""
    expected_spans = frozenset()
    forbidden_prefixes = ()

    def __init__(self, size):
        self.size = size

    def inputs(self, lb, seed):
        return {"seed": seed}

    def job(self, lb, inp):
        raise NotImplementedError

    def check(self, lb, inp, out, first):
        """Checks of one job's outputs; ``first`` is the run's first job."""
        raise NotImplementedError

    def quality(self, lb, inp, out):
        """Workload-specific end-to-end metrics, from one job's outputs."""
        return {}


@dataclass(frozen=True)
class BoundSweepSize:
    n_lo: int = 2
    n_hi: int = 30


class BoundSweep(Workload):
    name = "bound-sweep"
    expected_spans = frozenset({"cli", "green.build", "green.G", "bounds.optimize",
                                "leja.sequence", "interp.operator", "interp.lebesgue"})

    def argv(self):
        return ["bound", "--set", "0,1;2,3",
                "--n-range", "%d:%d" % (self.size.n_lo, self.size.n_hi)]

    def job(self, lb, inp):
        rc, text = _run_cli(lb, self.argv())
        return {"rc": rc, "text": text}

    def _table(self, out):
        rows = _csv_rows(out["text"], "n,lambda,bound,best_delta")
        if rows is None or [r[0] for r in rows] != [
                str(n) for n in range(self.size.n_lo, self.size.n_hi + 1)]:
            return None
        if any(len(r) != 4 for r in rows):
            return None
        table = np.array([[float(v) for v in r] for r in rows])
        return table if np.all(np.isfinite(table)) else None

    def check(self, lb, inp, out, first):
        table = self._table(out)
        return [
            Check("cli exit code 0", out["rc"] == 0),
            Check("csv has one row per n", table is not None),
            Check("every lambda below its bound", table is not None
                  and bool(np.all((1.0 <= table[:, 1]) & (table[:, 1] <= table[:, 2])))),
            Check("cli output byte-identical across jobs", out["text"] == first["text"]),
        ]

    def quality(self, lb, inp, out):
        table = self._table(out)
        return {"bound_log10_slack": float(np.median(np.log10(table[:, 2] / table[:, 1])))}


@dataclass(frozen=True)
class LejaHighdegSize:
    n: int = 400
    step: int = 50


class LejaHighdeg(Workload):
    name = "leja-highdeg"
    expected_spans = frozenset({"leja.sequence", "interp.operator", "interp.lebesgue"})
    forbidden_prefixes = ("green.", "bounds.", "switching.", "cli")

    def inputs(self, lb, seed):
        return {"seed": seed, "K": lb.make_union([(-1.0, 1.0)])}

    def job(self, lb, inp):
        K = inp["K"]
        seq = lb.leja_sequence(K, self.size.n)
        reps = [lb.InterpolationOperator.from_sequence(seq, n).lebesgue_constant(K)
                for n in range(self.size.step, self.size.n + 1, self.size.step)]
        return {"seq": seq, "reps": reps}

    def check(self, lb, inp, out, first):
        K = inp["K"]
        pts = np.asarray(out["seq"].points)
        checks = [Check("sequence has n distinct points in K",
                        len(pts) == self.size.n and len(np.unique(pts)) == len(pts)
                        and bool(np.all(np.abs(pts) <= 1.0)))]
        for rep in out["reps"]:
            op = lb.InterpolationOperator.from_sequence(out["seq"], rep.n)
            nodes = np.sort(op.nodes)
            # five interior samples per node gap, independent of the scan grid
            samples = (nodes[:-1, None] + np.diff(nodes)[:, None]
                       * np.arange(1, 6)[None, :] / 6.0).ravel()
            samples = np.concatenate([samples, [-1.0, 1.0]])
            sampled = float(np.max(op.lebesgue_function(samples)))
            at_arg = op.lebesgue_function(rep.argmax_x)
            checks.append(Check(
                "lambda_%d is the max of the Lebesgue function" % rep.n,
                math.isfinite(rep.lambda_n) and -1.0 <= rep.argmax_x <= 1.0
                and rep.lambda_n >= sampled * (1.0 - 1e-12)
                and abs(at_arg - rep.lambda_n) <= 1e-12 * rep.lambda_n))
        checks.append(Check(
            "outputs identical across jobs",
            out["seq"].points == first["seq"].points
            and [r.lambda_n for r in out["reps"]] == [r.lambda_n for r in first["reps"]]))
        return checks

    def quality(self, lb, inp, out):
        ratios = oracle.step_ratios(out["seq"].points, inp["K"].intervals)
        return {"leja_exact_ratio_min": min(ratios)}


@dataclass(frozen=True)
class CantorRelaxedSize:
    depths: tuple = (0, 1, 2, 3, 4, 5, 6)
    narrow: int = 30
    relaxed_depth: int = 3
    n: int = 120
    tau: float = 0.9
    n_x: int = 7
    itau_q: int = 40
    itau_count: int = 100


class CantorRelaxed(Workload):
    name = "cantor-relaxed"
    expected_spans = frozenset({"cli", "green.build", "green.G", "leja.sequence",
                                "leja.audit", "leja.separation", "interp.operator",
                                "interp.lebesgue", "switching.dp", "switching.basis",
                                "switching.strategy"})

    def inputs(self, lb, seed):
        s = self.size
        sets = [("cantor depth %d" % d, lb.cantor_approx(d, 1.0 / 3.0)) for d in s.depths]
        if s.narrow:
            sets.append(("%d intervals of width 0.01" % s.narrow, lb.make_union(
                [(k / s.narrow, k / s.narrow + 0.01) for k in range(s.narrow)])))
        K = lb.cantor_approx(s.relaxed_depth, 1.0 / 3.0)
        rng = np.random.default_rng(seed)
        xs = []
        for _ in range(s.n_x):
            lo, hi = K.intervals[int(rng.integers(K.n_components))]
            xs.append(float(rng.uniform(lo, hi)))
        return {"seed": seed, "sets": sets, "K": K, "xs": xs,
                "relaxed_index": s.depths.index(s.relaxed_depth)}

    def job(self, lb, inp):
        s = self.size
        models = []
        for _, K in inp["sets"]:
            try:
                models.append(lb.build_green_model(K))
            except lb.GreenBuildError as exc:
                models.append(exc)
        K = inp["K"]
        seq = lb.quasi_leja_sequence(K, s.n, s.tau, rng_seed=inp["seed"])
        audit = lb.verify_quasi_leja(seq, K)
        separation = lb.check_separation(seq, models[inp["relaxed_index"]])
        rep = lb.InterpolationOperator.from_sequence(seq).lebesgue_constant(K)
        basis = [[lb.basis_vs_switching(seq, k, x) for k in range(s.n)]
                 for x in [rep.argmax_x] + inp["xs"]]
        rc, text = _run_cli(lb, ["itau", "--tau", repr(s.tau), "--q", str(s.itau_q),
                                 "--count", str(s.itau_count), "--seed", str(inp["seed"])])
        return {"models": models, "seq": seq, "audit": audit, "separation": separation,
                "basis": basis, "rc": rc, "text": text}

    def check(self, lb, inp, out, first):
        checks = []
        caps = []
        for (label, _), m in zip(inp["sets"], out["models"]):
            refused = isinstance(m, lb.GreenBuildError)
            checks.append(Check("green model builds: " + label, not refused, refused))
            if not refused and label.startswith("cantor"):
                caps.append(m.capacity)
        checks.append(Check(
            "cantor capacities decrease and stay above %g" % CANTOR_CAPACITY_LIMIT,
            all(a > b for a, b in zip(caps, caps[1:]))
            and all(c > CANTOR_CAPACITY_LIMIT for c in caps)))
        checks.append(Check("quasi-Leja audit ok", out["audit"].ok))
        checks.append(Check("separation floor holds", out["separation"].ok))
        for row in out["basis"]:
            checks.append(Check("basis values below switching at x = %r" % row[0].x,
                                all(r.ok for r in row)))
        s = self.size
        rows = _csv_rows(out["text"], "i,q,log_exact,log_naive,log_two_track,"
                                      "log_spread_bound,holds")
        checks.append(Check("itau exit code 0", out["rc"] == 0))
        checks.append(Check("itau csv has the expected rows", rows is not None
                            and [r[0] for r in rows] == [str(i) for i in range(s.itau_count)]
                            and all(r[1] == str(s.itau_q) and r[6] == "1" for r in rows)))
        checks.append(Check("itau output byte-identical across jobs",
                            out["text"] == first["text"]))
        return checks


WORKLOADS = {w.name: w for w in (BoundSweep, LejaHighdeg, CantorRelaxed)}

FULL = {"bound-sweep": BoundSweepSize(),
        "leja-highdeg": LejaHighdegSize(),
        "cantor-relaxed": CantorRelaxedSize()}

TINY = {"bound-sweep": BoundSweepSize(n_lo=2, n_hi=6),
        "leja-highdeg": LejaHighdegSize(n=60, step=20),
        "cantor-relaxed": replace(CantorRelaxedSize(), depths=(0, 1, 2), narrow=3,
                                  relaxed_depth=2, n=24, n_x=2, itau_q=8, itau_count=5)}


def make(name, tiny=False):
    return WORKLOADS[name]((TINY if tiny else FULL)[name])
