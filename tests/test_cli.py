import json
import math

import numpy as np
import pytest

from lejabounds import GreenBuildError, SwitchingInstance, optimal_switching
from lejabounds.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_points_csv_stdout(capsys):
    code, out, _ = run(capsys, "points", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,x"
    assert lines[1] == "0,1.0"
    assert lines[2] == "1,-1.0"
    assert lines[3] == "2,0.0"


def test_points_json(capsys):
    code, out, _ = run(capsys, "points", "--n", "4", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["tau"] == 1.0
    assert len(obj["points"]) == 4
    assert obj["points"][:3] == [1.0, -1.0, 0.0]


def test_points_deterministic_reruns(tmp_path, capsys):
    out = tmp_path / "p.csv"
    assert run(capsys, "points", "--n", "6", "--tau", "0.8", "--out", str(out))[0] == 0
    first = out.read_bytes()
    meta_first = (tmp_path / "p.meta.json").read_bytes()
    assert run(capsys, "points", "--n", "6", "--tau", "0.8", "--out", str(out))[0] == 0
    assert out.read_bytes() == first
    assert (tmp_path / "p.meta.json").read_bytes() == meta_first
    meta = json.loads(meta_first)
    assert meta["command"] == "points"
    assert meta["params"]["tau"] == 0.8
    assert meta["summary"]["min_separation"] > 0


@pytest.mark.parametrize("argv,summary_keys", [
    (("points", "--n", "4", "--tau", "0.9"), {"n", "min_separation", "worst_ratio"}),
    (("lebesgue", "--n-range", "2:4"), {"max_lambda"}),
    (("bound", "--n", "3", "--deltas", "4"), {"best_delta", "best_bound"}),
    (("bound", "--n-range", "2:3"), {"all_below_bound"}),
    (("itau", "--q", "4", "--count", "3"), {"violations"}),
    (("itau", "--worst", "--q", "4"), {"log_exact"}),
    (("verify",), {"failed"}),
])
def test_out_file_holds_stdout_and_sidecar(tmp_path, capsys, argv, summary_keys):
    code, stdout, _ = run(capsys, *argv)
    out = tmp_path / "result.txt"
    code_out, echoed, _ = run(capsys, *argv, "--out", str(out))
    assert code == code_out == 0
    assert out.read_text() == stdout
    assert echoed == (stdout if argv[0] == "verify" else "")
    meta = json.loads((tmp_path / "result.meta.json").read_text())
    assert meta["command"] == argv[0]
    assert set(meta["summary"]) == summary_keys


def test_points_quasi_seeded(capsys):
    code, out1, _ = run(capsys, "points", "--n", "8", "--tau", "0.7", "--seed", "4")
    code2, out2, _ = run(capsys, "points", "--n", "8", "--tau", "0.7", "--seed", "4")
    code3, out3, _ = run(capsys, "points", "--n", "8", "--tau", "0.7", "--seed", "5")
    assert code == code2 == code3 == 0
    assert out1 == out2
    assert out1 != out3


def test_points_csv_format(capsys):
    code, out, _ = run(capsys, "points", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,x"
    assert lines[1] == "0,1.0"
    assert len(lines) == 4


def test_lebesgue_range(capsys):
    code, out, _ = run(capsys, "lebesgue", "--n-range", "1:4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,lambda,argmax"
    assert len(lines) == 5
    assert float(lines[1].split(",")[1]) == 1.0


def test_lebesgue_range_step(capsys):
    code, out, _ = run(capsys, "lebesgue", "--n-range", "2:10:2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,lambda,argmax"
    assert [line.split(",")[0] for line in lines[1:]] == ["2", "4", "6", "8", "10"]
    # the same prefixes as in the unit-step range, up to the rounding of the padded sums
    every = {line.split(",")[0]: float(line.split(",")[1])
             for line in run(capsys, "lebesgue", "--n-range", "2:10")[1].splitlines()[1:]}
    for line in lines[1:]:
        n, lam, _ = line.split(",")
        assert float(lam) == pytest.approx(every[n], rel=1e-13, abs=0)
    # a step that overshoots hi stops below it
    assert [line.split(",")[0] for line in
            run(capsys, "lebesgue", "--n-range", "2:9:4")[1].splitlines()[1:]] == ["2", "6"]


@pytest.mark.parametrize("spec", ["2:10:0", "2:10:-1", "2:10:1.5", "2:10:", "2:10:2:1"])
def test_bad_range_step_is_a_usage_error(capsys, spec):
    for command in ("lebesgue", "bound"):
        assert run(capsys, command, "--n-range", spec) == (2, "", "error: bad range %r\n" % spec)


@pytest.mark.parametrize("command", ["lebesgue", "bound"])
def test_n_range_makes_one_newton_search(monkeypatch, capsys, command):
    # every prefix of the range is scanned in one pass and one Newton search,
    # and each prefix's pieces are pruned against its own best value; the
    # scan is one call of the lebesgue_constant method
    from lejabounds import interp
    calls, scans = [], []
    original, method = interp.newton_max, interp.InterpolationOperator.lebesgue_constant

    def counted(slope, lo, hi, owner):
        calls.append(len(lo))
        return original(slope, lo, hi, owner)

    def scan(op, K, prefixes=None):
        scans.append(list(prefixes))
        return method(op, K, prefixes)

    monkeypatch.setattr(interp, "newton_max", counted)
    monkeypatch.setattr(interp.InterpolationOperator, "lebesgue_constant", scan)
    code, out, _ = run(capsys, command, "--n-range", "2:30")
    assert code == 0 and out.count("\n") == 30
    assert len(calls) == 1 and 29 <= calls[0] < 0.25 * sum(n - 1 for n in range(2, 31))
    assert scans == [list(range(2, 31))]


def test_bound_single_n(capsys):
    code, out, _ = run(capsys, "bound", "--n", "5", "--deltas", "6", "--tau", "0.9")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "delta,G,bound_tau1,bound_tau"
    assert len(lines) == 7
    d, g, b1, bt = map(float, lines[3].split(","))
    assert 0 < d and 0 < g
    assert bt > b1   # relaxed admissibility always costs
    code, out, _ = run(capsys, "bound", "--n", "5", "--deltas", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2 and float(lines[1].split(",")[0]) == 2e-4


@pytest.mark.parametrize("argv", [("points", "--n", "6"), ("bound", "--n-range", "2:4")])
def test_set_starting_with_a_minus_sign_parses_as_in_the_help(argv, capsys):
    spaced = run(capsys, *argv, "--set", "-1,-0.3;0.3,1")
    assert spaced == run(capsys, *argv, "--set=-1,-0.3;0.3,1")
    assert spaced[0] == 0 and spaced[1].count("\n") > 3


def test_bound_single_n_evaluates_G_once_per_delta(G_calls, tmp_path, capsys):
    # each of the 6 deltas once, all in one call
    assert run(capsys, "bound", "--n", "5", "--deltas", "6")[0] == 0
    assert [len(c) for c in G_calls] == [6] and len(set(G_calls[0])) == 6
    # the sidecar's minimum is read off the same table: no second one
    G_calls.clear()
    out = tmp_path / "f.csv"
    assert run(capsys, "bound", "--n", "5", "--deltas", "6", "--out", str(out))[0] == 0
    assert [len(c) for c in G_calls] == [6] and len(set(G_calls[0])) == 6
    rows = [list(map(float, r.split(","))) for r in out.read_text().splitlines()[1:]]
    best = min(rows, key=lambda r: r[3])
    summary = json.loads((tmp_path / "f.meta.json").read_text())["summary"]
    assert (summary["best_delta"], summary["best_bound"]) == (best[0], best[3])
    assert run(capsys, "bound", "--n", "5", "--deltas", "6", "--tau", "1.5")[0] == 2


def test_bound_range_table(tmp_path, capsys, model_unit):
    from lejabounds import optimize_bound
    sweeps = tmp_path / "sweeps"
    code, out, _ = run(capsys, "bound", "--n-range", "2:3",
                       "--out-dir", str(sweeps))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,lambda,bound,best_delta"
    assert len(lines) == 3
    # each sweep file is its degree's report, in plain floats
    for rep in optimize_bound(model_unit, [2, 3]):
        sweep = (sweeps / f"sweep_n{rep.n}.csv").read_text().splitlines()
        assert sweep[0] == "delta,G,bound"
        rows = np.array([list(map(float, line.split(","))) for line in sweep[1:]])
        assert np.array_equal(rows, np.column_stack(
            [rep.delta_grid, rep.g_values, rep.bound_values]))
    # the table certifies lambda <= bound, exit 0 already implies it
    for row in lines[1:]:
        _, lam, bound, _ = row.split(",")
        assert float(lam) <= float(bound)


def test_itau_worst(capsys):
    code, out, _ = run(capsys, "itau", "--worst", "--tau", "0.5", "--q", "6")
    assert code == 0
    obj = json.loads(out)
    assert obj["q"] == 6
    assert obj["log_every_step"] == pytest.approx(
        obj["log_every_step_closed_form"], rel=1e-12)
    assert obj["log_exact"] <= obj["log_every_step"] + 1e-9
    assert obj["log_exact"] <= obj["log_naive"] + 1e-9
    assert obj["log_exact"] <= obj["log_two_track"] + 1e-9
    assert obj["log_exact"] <= obj["log_spread_bound"] + 1e-9


def test_itau_random_batch(capsys):
    code, out, _ = run(capsys, "itau", "--count", "20", "--q", "7",
                       "--tau", "0.8", "--seed", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("i,q,log_exact")
    assert len(lines) == 21
    assert all(row.rsplit(",", 1)[1] == "1" for row in lines[1:])


def test_itau_points_file(tmp_path, capsys):
    inst = SwitchingInstance((0.0, 1.0, -2.0, 4.0), 0.9)
    f = tmp_path / "inst.json"
    f.write_text(json.dumps(inst.to_json()))
    code, out, _ = run(capsys, "itau", "--points-file", str(f))
    assert code == 0
    obj = json.loads(out)
    assert obj["log_exact"] == pytest.approx(
        optimal_switching(inst).log_value, rel=1e-12)


@pytest.mark.parametrize("text", [
    '{"points": [Infinity, 0.0, 1.0], "tau": 0.9}',   # non-finite points
    '{"points": [0.0, NaN, 2.0], "tau": 0.9}',
    '{"tau": 0.9}',                                   # no points
    '[1, 2]',                                         # not an object
    '{"points": [0, 1, 2]}',                          # no tau
])
def test_itau_points_file_rejects_bad_instance(tmp_path, capsys, text):
    f = tmp_path / "inst.json"
    f.write_text(text)
    code, out, err = run(capsys, "itau", "--points-file", str(f))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau": 0.7, "seed": 3, "n": 5}))
    code, out, _ = run(capsys, "--config", str(cfg), "points", "--n", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5            # explicit --n wins over config
    code2, out2, _ = run(capsys, "points", "--n", "4", "--tau", "0.7", "--seed", "3")
    assert out == out2                # config tau/seed applied


def test_config_structured_set(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"set": {"intervals": [[0.0, 1.0], [2.0, 3.0]]}}))
    code, out, _ = run(capsys, "--config", str(cfg), "points", "--n", "2")
    assert code == 0
    assert out.splitlines()[1] == "0,3.0"


def test_config_loses_to_explicit_equals_form(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"set": "0,1;2,3"}))
    code, out, _ = run(capsys, "--config", str(cfg), "points", "--n", "3",
                       "--set=-1,-0.3;0.3,1")
    assert code == 0
    assert out == run(capsys, "points", "--n", "3", "--set=-1,-0.3;0.3,1")[1]
    cfg.write_text(json.dumps({"tau": 0.7, "seed": 3, "func": 1, "command": "bound"}))
    code, out, _ = run(capsys, "--config", str(cfg), "points", "--n", "4", "--tau=0.5")
    assert code == 0
    assert out == run(capsys, "points", "--n", "4", "--tau", "0.5", "--seed", "3")[1]
    assert out != run(capsys, "points", "--n", "4", "--tau", "0.7", "--seed", "3")[1]


def test_usage_errors(tmp_path, capsys):
    assert run(capsys, "points", "--n", "0")[0] == 2
    assert run(capsys, "points", "--n", "3", "--set", "nonsense")[0] == 2
    assert run(capsys, "points", "--n", "3", "--x0", "1.5",
               "--set=0,1;2,3")[0] == 2
    assert run(capsys, "itau", "--points-file", str(tmp_path / "missing.json"))[0] == 2
    assert run(capsys, "lebesgue", "--n-range", "x:5") == (2, "", "error: bad range 'x:5'\n")
    assert run(capsys, "points", "--n", "3", "--set", "a,b") == (
        2, "", "error: interval 'a,b' is not 'lo,hi'\n")
    for q in ("0", "-1"):
        assert run(capsys, "itau", "--q", q) == (2, "", "error: q must be at least 1\n")
    assert run(capsys, "itau", "--worst", "--tau", "0") == (
        2, "", "error: tau must lie in (0, 1]\n")
    assert run(capsys, "itau", "--worst", "--q", "2000", "--tau", "0.5") == (
        2, "", "error: (-L)^(q-1) overflows a double at q = 2000\n")
    with pytest.raises(SystemExit) as exc:
        main(["lebesgue", "--n-range", "1:4", "--bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,message", [
    (("points", "--n", "3", "--tau", "0.5", "--seed", "-1"), "seed must be nonnegative"),
    (("itau", "--seed", "-1"), "seed must be nonnegative"),
    (("points", "--n", "3", "--set=0,1e308"), "grid of inf points exceeds cap 5000000"),
    (("verify", "--audit-tau", "nan"), "tau must lie in (0, 1]"),
    (("verify", "--audit-tau", "2"), "tau must lie in (0, 1]"),
    (("bound", "--n", "5", "--deltas", "-1"), "deltas must be at least 1"),
    (("bound", "--n", "5", "--deltas", "0"), "deltas must be at least 1"),
    (("itau", "--count", "-1"), "count must be at least 1"),
    (("itau", "--count", "0"), "count must be at least 1"),
    (("points", "--n", "3", "--tau", "1.5"), "tau must lie in (0, 1]"),
    (("points", "--n", "3", "--tau", "inf"), "tau must lie in (0, 1]"),
    (("lebesgue", "--n", "3", "--tau", "1.5"), "tau must lie in (0, 1]"),
    (("verify", "--tau", "1.5"), "tau must lie in (0, 1]"),
    (("verify", "--tau", "0"), "tau must lie in (0, 1]"),
    (("points", "--n", "3", "--seed", "-1"), "seed must be nonnegative"),
    (("points", "--n", "3", "--set", ""), "empty set"),
])
def test_bad_seed_huge_set_and_audit_tau_are_usage_errors(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", "error: %s\n" % message)


def test_nonfinite_grid_density_is_usage_error(capsys):
    for density in ("inf", "nan"):
        code, out, err = run(capsys, "points", "--n", "5", "--grid-density", density)
        assert code == 2
        assert out == ""
        assert err == "error: density must be positive and finite\n"


def test_missing_n_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lebesgue"])
    assert exc.value.code == 2


def test_cantor_set_flag(capsys):
    code, out, _ = run(capsys, "points", "--n", "4", "--cantor-depth", "2",
                       "--cantor-ratio", "0.25")
    assert code == 0
    pts = [float(r.split(",")[1]) for r in out.splitlines()[1:]]
    assert pts[0] == 1.0
    assert len(set(pts)) == 4


def test_verify_suite_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("[verify]")]
    assert len(lines) == 8
    assert all(": OK" in l for l in lines)


def test_verify_reads_x0_and_grid_density(capsys):
    assert run(capsys, "verify", "--x0", "5") == (
        2, "", "error: x0 = 5.0 lies outside the set\n")
    code, out, _ = run(capsys, "verify", "--set", "0,1;2,3", "--tau", "0.9",
                       "--x0", "left", "--grid-density", "5000")
    assert code == 0
    assert run(capsys, "verify", "--set", "0,1;2,3", "--tau", "0.9")[1] != out


def test_verify_audit_injection_fails(capsys):
    code, out, _ = run(capsys, "verify", "--tau", "0.7", "--audit-tau", "0.99")
    assert code == 1
    assert any("sequence-audit: FAIL" in l for l in out.splitlines())


def test_green_build_failure_exit_code(monkeypatch, capsys):
    def fail(K, *args, **kwargs):
        raise GreenBuildError("no convergence at order cap 4096")

    monkeypatch.setattr("lejabounds.cli.build_green_model", fail)
    code, out, err = run(capsys, "bound", "--n", "3")
    assert code == 3
    assert out == ""
    assert err == "error: no convergence at order cap 4096\n"


def test_green_build_refusal_exit_code(capsys):
    # a gap of 1e-6 leaves the density series unended at the order cap
    code, out, err = run(capsys, "bound", "--n", "3", "--set", "0,1;1.000001,2")
    assert code == 3
    assert out == ""
    assert err.startswith("error: no convergence at order cap 4096: series_length=")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("argv,message", [
    (("bound", "--n", "0"), "n must be at least 1"),
    (("bound", "--n", "3", "--tau", "1.5"), "tau must lie in (0, 1]"),
    (("bound", "--n-range", "2:3", "--tau", "0"), "tau must lie in (0, 1]"),
    (("bound", "--n-range", "0:3"), "bad range '0:3'"),
    (("bound", "--n-range", "2:10:0"), "bad range '2:10:0'"),
])
def test_bound_usage_errors_come_before_the_green_build(monkeypatch, capsys, argv, message):
    def fail(K, *args, **kwargs):
        raise GreenBuildError("the Green build must not start")

    monkeypatch.setattr("lejabounds.cli.build_green_model", fail)
    assert run(capsys, *argv) == (2, "", "error: %s\n" % message)
