import importlib

import pytest

import psibounds

# The public names by defining submodule, as the package exported them when
# it imported every layer eagerly.
_PUBLIC = {
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


def test_public_names_are_the_submodules_objects():
    names = {name: module for module, listed in _PUBLIC.items() for name in listed.split()}
    assert len(names) == 45
    assert set(psibounds.__all__) == set(names)
    assert set(psibounds.__all__) <= set(dir(psibounds))
    for name, module in names.items():
        submodule = importlib.import_module(f"psibounds.{module}")
        assert getattr(psibounds, name) is getattr(submodule, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        psibounds.no_such_name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from psibounds import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(psibounds.__all__)
