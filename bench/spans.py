"""Outside-in layer tracing for the benchmark.

The tracer wraps public functions and methods of the package at the places
where callers look them up: a function is replaced in every
``lejabounds`` module namespace that binds it (``cli`` binds most of them
at import time), a method is replaced on its class. Nothing in the package
itself changes, and with tracing off nothing is wrapped at all.

Each wrapped call records a span [name, start, end, parent, job, raised].
A few hot inner calls (``GreenModel.value``, ``CompactSet.grid``,
``lebesgue_function``) only add to counters, because a span per call would
cost more than the call. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# name, unit of every per-layer metric, in report order
LAYER_METRICS = (
    ("cli.self_s", "s"),
    ("compact_set.grid.points", "count"),
    ("green.build.calls", "count"),
    ("green.build.failed", "count"),
    ("green.build.order", "count"),
    ("green.build.s", "s"),
    ("green.G.calls", "count"),
    ("green.G.distinct", "count"),
    ("green.G.s", "s"),
    ("green.value.points", "count"),
    ("bounds.optimize.calls", "count"),
    ("bounds.optimize.self_s", "s"),
    ("bounds.optimize.G_per_call", "count/call"),
    ("leja.sequence.steps", "count"),
    ("leja.sequence.s", "s"),
    ("leja.audit.s", "s"),
    ("leja.separation.self_s", "s"),
    ("interp.operator.s", "s"),
    ("interp.lebesgue.calls", "count"),
    ("interp.lebesgue.points", "count"),
    ("interp.lebesgue.s", "s"),
    ("switching.dp.calls", "count"),
    ("switching.dp.q2", "count"),
    ("switching.dp.s", "s"),
    ("switching.basis.self_s", "s"),
    ("switching.strategy.s", "s"),
    ("trace.job_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, lb):
        self.lb = lb
        self.spans = []
        self.counts = defaultdict(Counter)   # job -> counter name -> value
        self.job = 0
        self._stack = []
        self._patches = []
        self._g_keys = set()
        self._alive = []

    # -- recording -------------------------------------------------------

    def _span(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None,
                   tracer.job, False]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(tracer.counts[tracer.job], args, result)
            return result
        return wrapper

    def _counter(self, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(tracer.counts[tracer.job], args, result)
            return result
        return wrapper

    def _g_span(self, fn):
        span = self._span("green.G", fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(model, delta, *args, **kwargs):
            key = (id(model), float(delta), args, tuple(sorted(kwargs.items())))
            if key not in tracer._g_keys:
                tracer._g_keys.add(key)
                tracer._alive.append(model)   # keeps id(model) unique for the job
                tracer.counts[tracer.job]["green.G.distinct"] += 1
            return span(model, delta, *args, **kwargs)
        return wrapper

    # -- installing ------------------------------------------------------

    def _patch_function(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "lejabounds" and not modname.startswith("lejabounds."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr, wrapper):
        self._patches.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        lb = self.lb
        green, bounds, leja, switching = lb.green, lb.bounds, lb.leja, lb.switching

        def build_done(c, args, model):
            c["green.build.order"] += int(model.diagnostics["order"])

        def seq_done(c, args, seq):
            c["leja.sequence.steps"] += len(seq) - 1

        def dp_done(c, args, res):
            c["switching.dp.q2"] += args[0].q ** 2

        functions = (
            (green.build_green_model, "green.build", build_done),
            (bounds.optimize_bound, "bounds.optimize", None),
            (leja.leja_sequence, "leja.sequence", seq_done),
            (leja.quasi_leja_sequence, "leja.sequence", seq_done),
            (leja.verify_quasi_leja, "leja.audit", None),
            (leja.check_separation, "leja.separation", None),
            (switching.optimal_switching, "switching.dp", dp_done),
            (switching.basis_vs_switching, "switching.basis", None),
            (switching.naive_strategy, "switching.strategy", None),
            (switching.two_track_strategy, "switching.strategy", None),
            (lb.cli.main, "cli", None),
        )
        for fn, name, after in functions:
            self._patch_function(fn, self._span(name, fn, after))

        GM, CS, IO = green.GreenModel, lb.compact_set.CompactSet, lb.interp.InterpolationOperator
        self._patch_method(GM, "neighborhood_max", self._g_span(GM.neighborhood_max))
        self._patch_method(GM, "value", self._counter(
            GM.value, lambda c, a, r: c.update({"green.value.points": int(np.size(a[1]))})))
        self._patch_method(CS, "grid", self._counter(
            CS.grid, lambda c, a, r: c.update({"compact_set.grid.points": len(r)})))
        self._patch_method(IO, "__init__", self._span("interp.operator", IO.__init__))
        self._patch_method(IO, "lebesgue_constant",
                           self._span("interp.lebesgue", IO.lebesgue_constant))
        self._patch_method(IO, "lebesgue_function", self._counter(
            IO.lebesgue_function,
            lambda c, a, r: c.update({"interp.lebesgue.points": int(np.size(a[1]))})))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._alive.clear()
        self._g_keys.clear()

    # -- reading ---------------------------------------------------------

    def names(self, job):
        return {rec[0] for rec in self.spans if rec[4] == job}

    def job_metrics(self, job):
        """Per-layer totals of one traced job (times in seconds)."""
        idx = [i for i, rec in enumerate(self.spans) if rec[4] == job]
        child = Counter()
        calls = Counter()
        total = Counter()
        g_under_opt = 0
        for i in idx:
            name, t0, t1, parent = self.spans[i][:4]
            calls[name] += 1
            total[name] += t1 - t0
            if parent is not None:
                child[parent] += t1 - t0
                if name == "green.G" and self.spans[parent][0] == "bounds.optimize":
                    g_under_opt += 1
        self_time = Counter()
        for i in idx:
            name, t0, t1 = self.spans[i][:3]
            self_time[name] += (t1 - t0) - child[i]
        failed = sum(1 for i in idx
                     if self.spans[i][0] == "green.build" and self.spans[i][5])
        c = self.counts[job]
        return {
            "cli.self_s": self_time["cli"],
            "compact_set.grid.points": c["compact_set.grid.points"],
            "green.build.calls": calls["green.build"],
            "green.build.failed": failed,
            "green.build.order": c["green.build.order"],
            "green.build.s": total["green.build"],
            "green.G.calls": calls["green.G"],
            "green.G.distinct": c["green.G.distinct"],
            "green.G.s": total["green.G"],
            "green.value.points": c["green.value.points"],
            "bounds.optimize.calls": calls["bounds.optimize"],
            "bounds.optimize.self_s": self_time["bounds.optimize"],
            "bounds.optimize.G_per_call": (g_under_opt / calls["bounds.optimize"]
                                           if calls["bounds.optimize"] else 0.0),
            "leja.sequence.steps": c["leja.sequence.steps"],
            "leja.sequence.s": total["leja.sequence"],
            "leja.audit.s": total["leja.audit"],
            "leja.separation.self_s": self_time["leja.separation"],
            "interp.operator.s": total["interp.operator"],
            "interp.lebesgue.calls": calls["interp.lebesgue"],
            "interp.lebesgue.points": c["interp.lebesgue.points"],
            "interp.lebesgue.s": total["interp.lebesgue"],
            "switching.dp.calls": calls["switching.dp"],
            "switching.dp.q2": c["switching.dp.q2"],
            "switching.dp.s": total["switching.dp"],
            "switching.basis.self_s": self_time["switching.basis"],
            "switching.strategy.s": total["switching.strategy"],
        }

    def records(self):
        """Spans as JSON-ready dicts, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"id": i, "name": r[0], "start": r[1] - t0, "end": r[2] - t0,
                 "parent": r[3], "job": r[4], "raised": r[5]}
                for i, r in enumerate(self.spans)]
