"""Invalid inputs across the package: the library raises ValidationError
and the CLI exits 2 with one error line."""

import math

import pytest

from lejabounds import (CompactSet, InterpolationOperator, ValidationError,
                        basis_vs_switching, brute_force_log_min, cantor_approx,
                        from_spec, green_interval_analytic, ineq1, ineq3,
                        leja_sequence, make_union, optimize_bound,
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
}

# name -> (argv taking a scratch directory, message)
CLI = {
    "config-json-list": (lambda d: ["--config", str(_write(d, "[1, 2]")), "points", "--n", "3"],
                         "config must be a JSON object"),
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
