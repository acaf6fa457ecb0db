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

Each layer loads on first use (PEP 562): ``import psibounds`` imports none of
them, and ``psibounds.sweep`` imports the verifier, and with it the layers
below, the first time it is looked up.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_NAMES = {
    "bounds": "BoundFamily Interval alpha beta beta_refined delta_star "
              "digamma_gap_bounds g_c gamma_arg_bounds gamma_bounds gamma_bounds_log "
              "gap_via_tau_series stirling_arg_upper stirling_ratio_bounds tau",
    "errors": "DomainError ToleranceError UndecidedComparisonError",
    "kernels": "kernel_r kernel_s",
    "oracle": "ErrorBoundedValue ref_binet_mu ref_digamma ref_digamma_gap ref_euler_gamma "
              "ref_log_gamma ref_stirling_target ref_trigamma",
    "specfun": "EULER_GAMMA HALF_LOG_TWO_PI LOG_TWO_PI digamma digamma_gap log_gamma "
               "polygamma stirling_ratio trigamma",
    "verifier": "GridSpec InequalityReport compare identity_check limit_check "
                "limit_schedule_check monotonicity_check sweep",
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
