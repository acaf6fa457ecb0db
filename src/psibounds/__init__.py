"""Digamma and gamma inequality bounds, with a rigorous oracle and verifier.

The package has four layers:

* :mod:`psibounds.specfun` -- cancellation-safe evaluation of log-gamma,
  digamma, polygamma, the Stirling ratio and the underlying kernels;
* :mod:`psibounds.bounds` -- the twelve two-sided bound families and the
  proof-auxiliary functions;
* :mod:`psibounds.oracle` -- slow series-based reference values carrying
  rigorous absolute-error radii;
* :mod:`psibounds.verifier` -- grid sweeps that certify every inequality,
  monotonicity, sign and limit claim, plus tightness comparisons.

``psibounds.cli`` exposes all of it as the ``psibounds`` command.
"""

from .bounds import (
    BoundFamily,
    Interval,
    alpha,
    aux_eval,
    beta,
    beta_refined,
    delta_star,
    digamma_gap_bounds,
    g_c,
    gamma_arg_bounds,
    gamma_bounds,
    gamma_bounds_log,
    gap_via_tau_series,
    stirling_arg_upper,
    stirling_ratio_bounds,
    tau,
)
from .errors import DomainError, ToleranceError, UndecidedComparisonError
from .kernels import kernel_r, kernel_s
from .oracle import (
    EPS_FLOOR,
    ErrorBoundedValue,
    ref_binet_mu,
    ref_digamma,
    ref_digamma_gap,
    ref_euler_gamma,
    ref_log_gamma,
    ref_stirling_target,
    ref_trigamma,
)
from .specfun import (
    EULER_GAMMA,
    HALF_LOG_TWO_PI,
    LOG_TWO_PI,
    digamma,
    digamma_gap,
    log_gamma,
    polygamma,
    stirling_ratio,
    trigamma,
)
from .verifier import (
    GridSpec,
    InequalityReport,
    compare,
    identity_check,
    limit_check,
    limit_schedule_check,
    monotonicity_check,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BoundFamily",
    "DomainError",
    "EPS_FLOOR",
    "ErrorBoundedValue",
    "EULER_GAMMA",
    "GridSpec",
    "HALF_LOG_TWO_PI",
    "InequalityReport",
    "Interval",
    "LOG_TWO_PI",
    "ToleranceError",
    "UndecidedComparisonError",
    "alpha",
    "aux_eval",
    "beta",
    "beta_refined",
    "compare",
    "delta_star",
    "digamma",
    "digamma_gap",
    "digamma_gap_bounds",
    "g_c",
    "gamma_arg_bounds",
    "gamma_bounds",
    "gamma_bounds_log",
    "gap_via_tau_series",
    "identity_check",
    "kernel_r",
    "kernel_s",
    "limit_check",
    "limit_schedule_check",
    "log_gamma",
    "monotonicity_check",
    "polygamma",
    "ref_binet_mu",
    "ref_digamma",
    "ref_digamma_gap",
    "ref_euler_gamma",
    "ref_log_gamma",
    "ref_stirling_target",
    "ref_trigamma",
    "stirling_arg_upper",
    "stirling_ratio",
    "stirling_ratio_bounds",
    "sweep",
    "tau",
    "trigamma",
]
