"""Invalid inputs across the package: the library raises ValidationError
and the CLI exits 2 with one error line."""

import math

import pytest

from lejabounds import (CompactSet, InterpolationOperator, PointSequence, ValidationError,
                        basis_vs_switching, brute_force_log_min, cantor_approx,
                        from_spec, green_interval_analytic, ineq1, ineq3,
                        lebesgue_bound, leja_sequence, make_union, optimize_bound,
                        quasi_lebesgue_bound, separation_floor, spread_log_bound,
                        worst_case_instance)
from lejabounds.cli import main

_UNIT = make_union([(-1.0, 1.0)])
_OP3 = InterpolationOperator([-1.0, 0.0, 1.0])

# name -> (call taking the Green model of [-1, 1], message)
LIBRARY = {
    "optimize_bound-empty-grid": (lambda m: optimize_bound(m, 3, delta_grid=[]),
                                  "delta grid must be 1-d"),
    "optimize_bound-nonpositive-grid": (lambda m: optimize_bound(m, 3, delta_grid=[0.1, 0.0]),
                                        "delta grid must be 1-d"),
    "CompactSet-empty": (lambda m: CompactSet(()), "empty set"),
    "CompactSet-infinite": (lambda m: CompactSet(((0.0, math.inf),)), "must be finite"),
    "make_union-inverted": (lambda m: make_union([(1.0, 0.0)]), "inverted interval"),
    "make_union-too-many": (lambda m: make_union([(2 * i, 2 * i + 1)
                                                  for i in range((1 << 14) + 1)]),
                            "too many components"),
    "cantor-negative-depth": (lambda m: cantor_approx(-1, 1.0 / 3.0), "nonnegative integer"),
    "cantor-depth-15": (lambda m: cantor_approx(15, 1.0 / 3.0), "exceed cap"),
    "cantor-depth-1e30": (lambda m: cantor_approx(10 ** 30, 1.0 / 3.0), "exceed cap"),
    "cantor-fractional-depth": (lambda m: cantor_approx(2.5, 1.0 / 3.0), "nonnegative integer"),
    "from_spec-cantor-fractional-depth": (
        lambda m: from_spec({"cantor": {"depth": 2.5, "ratio": 1.0 / 3.0}}),
        "nonnegative integer"),
    "from_spec-not-dict": (lambda m: from_spec([[0.0, 1.0]]), "JSON object"),
    "from_spec-cantor-without-depth": (lambda m: from_spec({"cantor": {"ratio": 0.3}}),
                                       "bad cantor spec"),
    "from_spec-no-key": (lambda m: from_spec({}), "'intervals' or 'cantor'"),
    "green-analytic-degenerate": (lambda m: green_interval_analytic(1.0, 1.0, 0.0), "a < b"),
    "ineq1-a-nonpositive": (lambda m: ineq1(0.0, 1.0, 2.0), "must be positive"),
    "ineq3-a-nonpositive": (lambda m: ineq3(0.0, 1.0), "a, b > 0"),
    "operator-empty-nodes": (lambda m: InterpolationOperator([]), "nonempty 1-d"),
    "operator-2d-nodes": (lambda m: InterpolationOperator([[0.0, 1.0]]), "nonempty 1-d"),
    "basis-index-out-of-range": (lambda m: _OP3.lagrange_basis(3, 0.5), "out of range"),
    "fvals-wrong-shape": (lambda m: _OP3.interpolate([1.0, 2.0], 0.5), "node count"),
    "x0-middle": (lambda m: leja_sequence(_UNIT, 3, x0="middle"), "x0 must be"),
    "n-beyond-grid": (lambda m: leja_sequence(_UNIT, 50, grid_density=10.0),
                      "exceeds the 21-point grid"),
    "brute-force-q-21": (lambda m: brute_force_log_min(worst_case_instance(0.9, 21)),
                         "q <= 20"),
    "worst-case-q-0": (lambda m: worst_case_instance(0.9, 0), "q must be at least 1"),
    "spread-bound-inverted": (lambda m: spread_log_bound(1.0, 2.0, 0.9), "d_min <= d_max"),
    "basis-vs-switching-k-n": (lambda m: basis_vs_switching(leja_sequence(_UNIT, 5), 5, 0.3),
                               "k out of range"),
    # a count or an index is an integer, or an integral real such as 3.0
    "optimize_bound-fractional-n": (lambda m: optimize_bound(m, 2.5), "n must be an integer"),
    "optimize_bound-fractional-n-in-list": (lambda m: optimize_bound(m, [3, 2.5]),
                                            "n must be an integer"),
    "lebesgue_bound-fractional-n": (lambda m: lebesgue_bound(m, 2.5, 0.1),
                                    "n must be an integer"),
    "quasi_lebesgue_bound-fractional-n": (lambda m: quasi_lebesgue_bound(m, 2.5, 0.9, 0.1),
                                          "n must be an integer"),
    "separation_floor-tau-7": (lambda m: separation_floor(m, 7.0, 3, 0.1),
                               r"tau must lie in \(0, 1\]"),
    "separation_floor-negative-n": (lambda m: separation_floor(m, 0.9, -3, 0.1),
                                    "n must be at least 1"),
    "leja_sequence-fractional-n": (lambda m: leja_sequence(_UNIT, 2.5), "n must be an integer"),
    "from_sequence-fractional-n": (
        lambda m: InterpolationOperator.from_sequence(leja_sequence(_UNIT, 5), 2.5),
        "prefix length must be an integer"),
    "basis-fractional-index": (lambda m: _OP3.lagrange_basis(1.5, 0.5),
                               "basis index must be an integer"),
    "worst-case-fractional-q": (lambda m: worst_case_instance(0.5, 2.5), "q must be an integer"),
    "basis-vs-switching-fractional-k": (
        lambda m: basis_vs_switching(leja_sequence(_UNIT, 5), 1.5, 0.3), "k must be an integer"),
    # a point sequence read from JSON is checked as SwitchingInstance.from_json checks
    "sequence-json-string-point": (lambda m: _sequence_json(points=[0.0, "a"]),
                                   "numeric 'points'"),
    "sequence-json-tau-7": (lambda m: _sequence_json(tau=7), r"tau must lie in \(0, 1\]"),
    "sequence-json-negative-density": (lambda m: _sequence_json(grid_density=-1),
                                       "grid_density must be positive"),
    "sequence-json-infinite-density": (lambda m: _sequence_json(grid_density=math.inf),
                                       "grid_density must be positive"),
    "sequence-json-missing-key": (lambda m: _sequence_json(drop="grid_density"),
                                  "numeric 'points'"),
    "sequence-json-list": (lambda m: PointSequence.from_json([0.0, 1.0]), "JSON object"),
    "sequence-json-scalar-points": (lambda m: _sequence_json(points=3), "numeric 'points'"),
    "sequence-json-string-tau": (lambda m: _sequence_json(tau="x"), "numeric 'points'"),
}


def _sequence_json(drop=None, **fields):
    obj = {"points": [0.0, 1.0], "tau": 1.0, "grid_density": 10, **fields}
    obj.pop(drop, None)
    return PointSequence.from_json(obj)


# name -> (argv taking a scratch directory, message)
CLI = {
    "config-json-list": (lambda d: ["--config", str(_write(d, "[1, 2]")), "points", "--n", "3"],
                         "config must be a JSON object"),
    "config-flag-not-bool": (lambda d: ["--config", str(_write(d, '{"json": "false"}')),
                                        "points", "--n", "3"],
                             "on/off options in a config take true, false or null"),
    "itau-q-2500": (lambda d: ["itau", "--q", "2500"], "could not draw a separated instance"),
}


def _write(d, text):
    path = d / "config.json"
    path.write_text(text)
    return path


@pytest.mark.parametrize("name", sorted(LIBRARY) + sorted(CLI))
def test_invalid_input_is_rejected(name, model_unit, tmp_path, capsys):
    if name in CLI:
        argv, message = CLI[name]
        assert main(argv(tmp_path)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    else:
        call, message = LIBRARY[name]
        with pytest.raises(ValidationError, match=message):
            call(model_unit)


@pytest.mark.parametrize("cfg, message", [
    ('{"cantor_depth": 3.0}', "argument --cantor-depth: invalid int value: '3.0'"),
    ('{"seed": 1.5}', "argument --seed: invalid int value: '1.5'"),
    ('{"grid_density": true}', "argument --grid-density: invalid float value: 'True'"),
    ('{"set": {"cantor": {"depth": 2.5, "ratio": 0.3}}}', "depth must be a nonnegative integer"),
], ids=["cantor-depth-float", "seed-float", "grid-density-bool", "set-fractional-depth"])
def test_config_values_are_checked_as_flags(cfg, message, tmp_path, capsys):
    # a config value passes the same conversion as the flag, so exits 2
    argv = ["--config", str(_write(tmp_path, cfg)), "points", "--n", "3"]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


def test_integral_real_counts_are_accepted():
    assert leja_sequence(_UNIT, 3.0) == leja_sequence(_UNIT, 3)


def test_config_null_keeps_the_default(tmp_path, capsys):
    assert main(["--config", str(_write(tmp_path, '{"seed": null, "tau": null}')),
                 "points", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert main(["points", "--n", "4"]) == 0
    assert capsys.readouterr().out == out
