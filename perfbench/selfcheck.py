"""Checks of the benchmark's own machinery; takes a few seconds.

    python3 perfbench/selfcheck.py

Kept out of the ``test_*.py`` naming so that the repository's pytest run
neither collects nor waits for it.
"""

from __future__ import annotations

import json
import math
import sys
import time
import types

import numpy as np

import run
import reference
import tracer


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def check_self_time() -> None:
    """A layer's self time excludes its wrapped callees, of any layer."""
    mods = {name: types.ModuleType(f"toy_{name}") for name in tracer.LAYERS}

    def leaf():
        _spin(0.02)

    def outer():
        _spin(0.01)
        mods["kernels"].leaf()
        mods["kernels"].leaf()

    leaf.__module__, outer.__module__ = "toy_kernels", "toy_specfun"
    mods["kernels"].leaf, mods["specfun"].outer = leaf, outer
    tr = tracer.Tracer(mods)
    with tr:
        mods["specfun"].outer()
    m = tr.layer_metrics()
    assert mods["specfun"].outer is outer, "uninstall did not restore"
    assert m["specfun.calls"] == 1 and m["kernels.calls"] == 2
    assert abs(m["kernels.time_s"] - 0.04) < 0.01, m
    assert abs(m["specfun.self_s"] - 0.01) < 0.005, m
    assert math.isclose(m["specfun.time_s"],
                        m["specfun.self_s"] + m["kernels.time_s"], rel_tol=1e-9)
    assert len(tr.spans) == 1 and tr.spans[0][3] == -1


def check_package_tracing(pkg) -> None:
    """Wrapped oracle caches still clear, and traced values are identical."""
    oracle, specfun = pkg["oracle"], pkg["specfun"]
    xs = [1e-3, 0.7, 7.66, 123.0]
    plain = [specfun.digamma_gap(x) for x in xs] + [oracle.ref_binet_mu(2.5).value]
    tr = tracer.Tracer(pkg)
    with tr:
        oracle.clear_caches()
        traced = [specfun.digamma_gap(x) for x in xs] + [oracle.ref_binet_mu(2.5).value]
        assert oracle.ref_binet_mu.cache_info().currsize == 1
        oracle.clear_caches()
        assert oracle.ref_binet_mu.cache_info().currsize == 0
    assert plain == traced
    assert tr.calls("kernels.kernel_r") > 0 and tr.calls("specfun.digamma_gap") == 4
    assert not hasattr(specfun.digamma_gap, "__wrapped__"), "uninstall did not restore"


def check_classification() -> None:
    ref = reference.reference("digamma_gap", 2.0)
    assert reference.check_value(float(ref), "digamma_gap", ref) is None
    assert reference.check_value(math.nan, "digamma_gap", ref) == "nan"
    assert reference.check_value(float(ref) * (1 + 1e-11), "digamma_gap", ref) == "beyond_tolerance"
    assert reference.check_interval(0.0, 1.0, ref) is None
    assert reference.check_interval(float(ref), 1.0, ref) in (None, "not_enclosed")
    assert reference.check_interval(math.nan, 1.0, ref) == "not_enclosed"
    assert reference.check_radius(float(ref), 1e-15, ref) is None
    huge = reference.reference("log_gamma", 1.7e308)
    assert reference.check_value(math.inf, "log_gamma", huge) is None


def check_inputs(pkg) -> None:
    """Same seed, same inputs; all inside each kind's range."""
    a, audit_a = run.op_inputs(pkg, "pointwise", np.random.default_rng(5))
    b, audit_b = run.op_inputs(pkg, "pointwise", np.random.default_rng(5))
    assert a == b and audit_a == audit_b
    fams = {f.value: f for f in pkg["bounds"].BoundFamily}
    for kind, x in a:
        hi = run.FAMILY_RANGE[1] if kind in fams else run.SPECFUN_RANGE[1]
        lo = max(run.SPECFUN_RANGE[0], fams[kind].domain_min if kind in fams else 0.0)
        assert lo <= x <= hi and type(x) is float, (kind, x)
    assert len(a) == run.PER_KIND["pointwise"] * (len(run.SPECFUN_KINDS) + len(fams))


def check_certified_floor(pkg) -> None:
    """Each point a family certifies below its parent count is a failed op."""
    def outcomes(eq6_certified):
        codes, blobs = [], []
        for fam, _, _ in run.certify_grids(pkg):
            n = eq6_certified if fam == "eq6" else run.CERTIFIED_AT_PARENT.get(
                fam, run.CERTIFY_POINTS)
            rows = [{"pass": i < n} for i in range(run.CERTIFY_POINTS)]
            codes.append(0 if n == run.CERTIFY_POINTS else 1)
            blobs.append(json.dumps({"rows": rows}).encode())
        checker = run.Checker(pkg["bounds"].BoundFamily)
        spot, run.SPOT_PER_FAMILY = run.SPOT_PER_FAMILY, 0
        try:
            certified = run.check_certify(pkg, np.random.default_rng(1), codes, blobs, checker)
        finally:
            run.SPOT_PER_FAMILY = spot
        return sum(certified.values()), checker.attempted, checker.outcomes["failed"]

    assert outcomes(337) == (5762, 6000, 0)
    assert outcomes(330) == (5755, 6000, 7)
    assert outcomes(400) == (5825, 6000, 0)


def main() -> int:
    pkg = run.load_package()
    for check in (check_self_time, lambda: check_package_tracing(pkg),
                  check_classification, lambda: check_inputs(pkg),
                  lambda: check_certified_floor(pkg)):
        check()
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
