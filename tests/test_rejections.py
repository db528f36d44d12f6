"""Invalid inputs across the package: the library raises ValidationError
and the CLI exits 2 with one error line."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lejabounds import (CompactSet, InterpolationOperator, PointSequence, SwitchingInstance,
                        ValidationError,
                        basis_vs_switching, brute_force_log_min, cantor_approx,
                        from_spec, green_interval_analytic, ineq1, ineq3,
                        lebesgue_bound, leja_sequence, make_union, optimize_bound,
                        quasi_lebesgue_bound, quasi_leja_sequence, separation_floor,
                        spread_log_bound, worst_case_instance)
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
    # relaxed mode draws from a grid; exact mode builds none
    # (test_leja.test_exact_mode_runs_past_the_grid_size)
    "n-beyond-grid": (lambda m: quasi_leja_sequence(_UNIT, 50, 0.5, grid_density=10.0),
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
    # a boolean is not an integer
    "cantor-bool-depth": (lambda m: cantor_approx(True, 1.0 / 3.0), "nonnegative integer"),
    "worst-case-bool-q": (lambda m: worst_case_instance(0.5, True), "q must be an integer"),
    "basis-vs-switching-bool-k": (
        lambda m: basis_vs_switching(leja_sequence(_UNIT, 5), True, 0.3), "k must be an integer"),
    "from_sequence-bool-n": (
        lambda m: InterpolationOperator.from_sequence(leja_sequence(_UNIT, 5), True),
        "prefix length must be an integer"),
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
    "sequence-json-string-points": (lambda m: _sequence_json(points="12"), "numeric 'points'"),
    "sequence-json-fractional-seed": (lambda m: _sequence_json(rng_seed=1.5),
                                      "rng_seed must be a nonnegative integer"),
    "sequence-json-negative-seed": (lambda m: _sequence_json(rng_seed=-4),
                                    "rng_seed must be a nonnegative integer"),
    "sequence-json-string-seed": (lambda m: _sequence_json(rng_seed="3"),
                                  "rng_seed must be a nonnegative integer"),
    "sequence-json-bool-seed": (lambda m: _sequence_json(rng_seed=True),
                                "rng_seed must be a nonnegative integer"),
    "sequence-json-bool-tau": (lambda m: _sequence_json(tau=True), "numeric 'points'"),
    "sequence-json-bool-point": (lambda m: _sequence_json(points=[0.0, True]),
                                 "numeric 'points'"),
    "sequence-json-bool-ratio": (lambda m: _sequence_json(achieved_ratios=[True]),
                                 "achieved_ratios must be a list of finite numbers"),
    "sequence-json-string-ratios": (lambda m: _sequence_json(achieved_ratios="abc"),
                                    "achieved_ratios must be a list of finite numbers"),
    "sequence-json-nan-ratio": (lambda m: _sequence_json(achieved_ratios=[1.0, math.nan]),
                                "achieved_ratios must be a list of finite numbers"),
    "sequence-json-numeric-policy": (lambda m: _sequence_json(x0_policy=7), "x0_policy must be"),
    "sequence-json-unknown-policy": (lambda m: _sequence_json(x0_policy="middle"),
                                     "x0_policy must be"),
    "sequence-json-given-nan-policy": (lambda m: _sequence_json(x0_policy="given:nan"),
                                       "x0_policy must be"),
    "sequence-json-given-abc-policy": (lambda m: _sequence_json(x0_policy="given:abc"),
                                       "x0_policy must be"),
    # a point sequence checks its points when it is made, whether built directly or
    # read from JSON: every consumer then gets at least one finite, distinct point
    "sequence-empty": (lambda m: _sequence(()), "need at least x_0$"),
    "sequence-duplicate-point": (lambda m: _sequence((0.5, 0.5)), "pairwise distinct"),
    # closer than the smallest normal float is one point, as for the interpolation operator
    "sequence-subnormal-gap": (lambda m: _sequence((0.0, 5e-324)),
                               "at least the smallest normal float apart"),
    "sequence-nan-point": (lambda m: _sequence((0.0, math.nan)), "points must be finite"),
    "sequence-inf-point": (lambda m: _sequence((0.0, math.inf)), "points must be finite"),
    "sequence-minus-inf-point": (lambda m: _sequence((-math.inf, 0.0)), "points must be finite"),
    "sequence-json-empty": (lambda m: _sequence_json(points=[]), "need at least x_0$"),
    "sequence-json-duplicate-point": (lambda m: _sequence_json(points=[0.5, 0.5]),
                                      "pairwise distinct"),
    "sequence-json-nan-point": (lambda m: _sequence_json(points=[0.0, math.nan]),
                                "points must be finite"),
    "sequence-json-inf-point": (lambda m: _sequence_json(points=[0.0, math.inf]),
                                "points must be finite"),
    "sequence-json-minus-inf-point": (lambda m: _sequence_json(points=[-math.inf, 0.0]),
                                      "points must be finite"),
    "switching-instance-one-point": (lambda m: SwitchingInstance((0.0,), 0.9),
                                     "need at least x_0 and x_1"),
    "basis-vs-switching-not-a-sequence": (
        lambda m: basis_vs_switching(SwitchingInstance((0.0, 1.0), 0.9), 0, 0.3),
        "seq must be a PointSequence"),
    "basis-vs-switching-nan-x": (
        lambda m: basis_vs_switching(leja_sequence(_UNIT, 5), 1, math.nan), "x must be finite"),
    # from_sequence and lebesgue_constant read a prefix length by one rule
    "from_sequence-prefix-0": (
        lambda m: InterpolationOperator.from_sequence(leja_sequence(_UNIT, 5), 0),
        r"prefix length 0 not in \[1, 5\]"),
    "lebesgue_constant-prefix-4": (lambda m: _OP3.lebesgue_constant(_UNIT, [2, 4]),
                                   r"prefix length 4 not in \[1, 3\]"),
    "lebesgue_constant-fractional-prefix": (lambda m: _OP3.lebesgue_constant(_UNIT, [1.5]),
                                            "prefix length must be an integer"),
}


def _sequence(points):
    return PointSequence(points=points, tau=1.0, grid_density=10.0, rng_seed=None,
                         x0_policy="right", achieved_ratios=())


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


# JSON values: null, booleans, integers (one past the largest double), floats
# with nan and inf, strings, and lists and objects of these
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10 ** 400) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=12)
_SEQUENCE = {"points": [0.0, 1.0], "tau": 0.9, "grid_density": 10.0, "rng_seed": 0,
             "x0_policy": "right", "achieved_ratios": [1.0]}


@given(_JSON, _JSON)
@settings(max_examples=300, deadline=None)
def test_json_readers_return_a_value_or_raise_validation_error(a, b):
    calls = [
        (from_spec, a), (from_spec, {"intervals": a}), (from_spec, {"intervals": [[0, 1], a]}),
        (from_spec, {"cantor": a}), (from_spec, {"cantor": {"depth": a, "ratio": b}}),
        (from_spec, {"cantor": {"depth": 2, "ratio": a}}),
        (SwitchingInstance.from_json, a), (SwitchingInstance.from_json, {"points": a, "tau": b}),
        (SwitchingInstance.from_json, {"points": [0, 1, 2], "tau": a}),
        (PointSequence.from_json, a),
    ] + [(PointSequence.from_json, {**_SEQUENCE, key: a}) for key in _SEQUENCE]
    for read, obj in calls:
        try:
            read(obj)
        except ValidationError:
            pass
