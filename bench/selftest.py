"""Self-test of the benchmark harness: every workload at a tiny size.

    python3 bench/selftest.py      # from the root of a checkout; about 20 s

Each workload runs once untraced and once traced. The result line must
have exactly the contract's keys and the metrics named in BENCHMARK.json,
every check must pass apart from documented refusals, and the traced run
must fire the spans the workload expects (run.py marks the result wrong
otherwise).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import run
import workloads


def _result(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(argv, tiny=True)
    lines = buf.getvalue().splitlines()
    return rc, json.loads(lines[-2])["record"], json.loads(lines[-1])


def main() -> int:
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    want = {0: [m["name"] for m in spec["end_to_end"]],
            1: [m["name"] for m in spec["per_layer"]]}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    bad = 0
    for name in sorted(workloads.WORKLOADS):
        for trace in (0, 1):
            rc, record, res = _result(["--workload", name, "--seed", "3",
                                       "--seconds", "0", "--trace", str(trace)])
            problems = []
            if rc != 0:
                problems.append("exit code %d" % rc)
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("result keys %s" % sorted(res))
            if not res["correct"]:
                problems.append("not correct: %s" % record)
            if sorted(res["metrics"]) != sorted(want[trace]):
                problems.append("metrics %s" % sorted(res["metrics"]))
            if not 0 <= res["failed"] < res["attempted"]:
                problems.append("attempted %d, failed %d" % (res["attempted"], res["failed"]))
            print("%-15s trace=%d %s" % (name, trace, "; ".join(problems) or "ok"))
            bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
