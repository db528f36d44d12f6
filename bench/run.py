"""Benchmark of the lejabounds package: one workload, one run.

    python3 bench/run.py --workload bound-sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/`` there. With ``--trace 0`` the run reports the end-to-end metrics:

* ``job_s``: median wall seconds of one complete job, over the jobs that
  fit in ``--seconds`` (at least three);
* ``setup_s``: median wall seconds of a fresh interpreter that imports the
  package and builds the CLI parser, the cold start of every CLI call;
* ``peak_mem_mb``: peak RSS of the run's process after its first job:
  interpreter, package and one job;
* ``ok_ratio``: checked operations that did not fail, over those attempted;
* ``bound_log10_slack``: median over n of log10(bound / measured lambda_n);
* ``leja_exact_ratio_min``: smallest ratio over all exact Leja steps of the
  chosen point's product to the true maximum, from ``oracle``.

The last two belong to one workload each and read 1.0 on the others.
With ``--trace 1`` the run alternates untraced and traced jobs and
reports the per-layer metrics of ``spans.LAYER_METRICS`` (medians over
traced jobs), and writes the spans to ``.bench_out/``.

The last line of stdout is the result object; the line before it records
the machine, the raw samples and every failed check.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from spans import LAYER_METRICS, Tracer

MIN_JOBS = 3
MIN_TRACED_JOBS = 2
SETUP_REPEATS = 7
NOT_APPLICABLE = 1.0
END_TO_END = (("job_s", "s"), ("setup_s", "s"), ("peak_mem_mb", "MB"),
              ("ok_ratio", "ratio"), ("bound_log10_slack", "log10"),
              ("leja_exact_ratio_min", "ratio"))
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); "
              "import lejabounds, lejabounds.cli; lejabounds.cli.build_parser()")


def _import_package(root: Path):
    init = root / "src" / "lejabounds" / "__init__.py"
    if not init.is_file():
        raise SystemExit("error: no package source at %s; run from the root of "
                         "a lejabounds checkout" % init.parent)
    sys.path.insert(0, str(root / "src"))
    import lejabounds
    import lejabounds.cli
    if Path(lejabounds.__file__).resolve() != init.resolve():
        raise SystemExit("error: imported %s instead of %s" % (lejabounds.__file__, init))
    return lejabounds


def _blas_threads():
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _machine(lb):
    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                  "MKL_NUM_THREADS") if k in os.environ},
        "lejabounds": lb.__version__,
    }


def _setup_samples(root: Path, repeats: int):
    cmd = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(cmd, cwd=root, check=True)   # warm the file cache and .pyc files
    out = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run(cmd, cwd=root, check=True)
        out.append(perf_counter() - t0)
    return out


def _timed_job(wl, lb, inp):
    t0 = perf_counter()
    out = wl.job(lb, inp)
    return perf_counter() - t0, out


def main(argv=None, tiny=False) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    lb = _import_package(root)
    wl = workloads.make(args.workload, tiny=tiny)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": tiny, "machine": _machine(lb)}

    # with tracing on, untraced and traced jobs alternate; the first job's
    # outputs are the reference the later ones must repeat
    min_jobs = MIN_TRACED_JOBS if args.trace else MIN_JOBS
    tracer = Tracer(lb) if args.trace else None
    plain, traced, checks = [], [], []
    first = None
    start = perf_counter()
    while True:
        inp = wl.inputs(lb, args.seed)
        if tracer is not None and len(traced) < len(plain):
            tracer.job = len(traced)
            tracer.install()
            try:
                wall, out = _timed_job(wl, lb, inp)
            finally:
                tracer.uninstall()
            traced.append(wall)
        else:
            wall, out = _timed_job(wl, lb, inp)
            plain.append(wall)
        if first is None:
            # nothing before the first job allocates much, so the high-water
            # mark now is that of a process that imported the package and
            # ran one job
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            first = out
        checks += wl.check(lb, inp, out, first)
        done = min(len(plain), len(traced)) if tracer is not None else len(plain)
        # stop before a job that would end past --seconds
        if done >= min_jobs and perf_counter() - start + wall > args.seconds:
            break

    attempted = len(checks)
    failed = [c for c in checks if not c.ok]
    correct = all(c.refused for c in failed)
    record["failed_checks"] = sorted({(c.name, c.refused) for c in failed})
    record["samples"] = {"job_s": plain}

    if tracer is not None:
        record["samples"]["trace.job_s"] = traced
        for job in range(len(traced)):
            names = tracer.names(job)
            missing = sorted(wl.expected_spans - names)
            stray = sorted(n for n in names if n.startswith(wl.forbidden_prefixes))
            if missing or stray:
                correct = False
                record.setdefault("span_errors", []).append(
                    {"job": job, "missing": missing, "unexpected": stray})
        per_job = [tracer.job_metrics(job) for job in range(len(traced))]
        values = {name: statistics.median(m[name] for m in per_job)
                  for name, _ in LAYER_METRICS if not name.startswith("trace.")}
        values["trace.job_s"] = statistics.median(traced)
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / ("%s-seed%d.spans.jsonl" % (args.workload, args.seed)), "w") as fh:
            for rec in tracer.records():
                fh.write(json.dumps(rec) + "\n")
    else:
        setup = _setup_samples(root, 2 if tiny else SETUP_REPEATS)
        record["samples"]["setup_s"] = setup
        quality = wl.quality(lb, inp, first) if correct else {}
        values = {
            "job_s": statistics.median(plain),
            "setup_s": statistics.median(setup),
            "peak_mem_mb": peak_mb,
            "ok_ratio": (attempted - len(failed)) / attempted,
            "bound_log10_slack": quality.get("bound_log10_slack", NOT_APPLICABLE),
            "leja_exact_ratio_min": quality.get("leja_exact_ratio_min", NOT_APPLICABLE),
        }
        record["not_applicable"] = sorted(
            k for k in ("bound_log10_slack", "leja_exact_ratio_min") if k not in quality)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print(json.dumps({"record": record}, default=str))
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
