"""Greedy interpolation nodes on compact unions of real intervals.

The package builds exact and relaxed greedy point sequences, measures the
interpolation operators they induce, and certifies growth bounds through
the exterior Green's function of the set. A switched distance-product
functional ties the two together: it dominates Lagrange basis values on
relaxed sequences and is computed exactly here by dynamic programming.
"""

from .bounds import (BoundReport, lebesgue_bound, optimize_bound,
                     quasi_lebesgue_bound, switching_constant)
from .compact_set import (CompactSet, ValidationError, cantor_approx,
                          from_spec, make_union)
from .green import GreenBuildError, GreenModel, build_green_model, green_interval_analytic
from .inequalities import (IneqReport, ineq1, ineq2, ineq2_tightness_scan,
                           ineq3, ineq4)
from .interp import InterpolationOperator, LebesgueReport, lebesgue_constants
from .leja import (AuditReport, PointSequence, SeparationReport,
                   check_separation, leja_sequence, quasi_leja_sequence,
                   separation_floor, verify_quasi_leja)
from .switching import (BasisSwitchReport, SpreadReport, StrategyTrace,
                        SwitchingInstance, SwitchingResult, basis_vs_switching,
                        brute_force_log_min, chain_log_value, naive_strategy,
                        optimal_switching, spread_bound, spread_log_bound,
                        check_spread_bound, two_track_strategy,
                        worst_case_instance)

__version__ = "0.1.0"

__all__ = [
    "AuditReport", "BasisSwitchReport", "BoundReport", "CompactSet",
    "GreenBuildError", "GreenModel", "IneqReport", "InterpolationOperator",
    "LebesgueReport", "PointSequence", "SeparationReport", "SpreadReport",
    "StrategyTrace", "SwitchingInstance", "SwitchingResult",
    "ValidationError", "basis_vs_switching", "brute_force_log_min",
    "build_green_model", "cantor_approx", "chain_log_value",
    "check_separation", "check_spread_bound", "from_spec",
    "green_interval_analytic", "ineq1", "ineq2", "ineq2_tightness_scan",
    "ineq3", "ineq4", "lebesgue_bound", "lebesgue_constants", "leja_sequence",
    "make_union", "naive_strategy", "optimal_switching", "optimize_bound",
    "quasi_lebesgue_bound", "quasi_leja_sequence",
    "separation_floor", "spread_bound", "spread_log_bound",
    "switching_constant", "two_track_strategy", "verify_quasi_leja",
    "worst_case_instance", "__version__",
]
