import math

import pytest

from psibounds import bounds, oracle, verifier
from psibounds.bounds import BoundFamily
from psibounds.errors import DomainError, UndecidedComparisonError
from psibounds.verifier import GridSpec


def test_gridspec_validation():
    with pytest.raises(DomainError):
        GridSpec(0.0, 1.0)
    with pytest.raises(DomainError):
        GridSpec(2.0, 1.0)
    with pytest.raises(DomainError):
        GridSpec(1.0, 2.0, points=1)
    with pytest.raises(DomainError):
        GridSpec(1.0, 2.0, spacing="cubic")
    xs = GridSpec(1e-2, 1e2, 41, "log").abscissae()
    assert len(xs) == 41
    assert xs[0] == 1e-2 and xs[-1] == 1e2
    assert all(b > a for a, b in zip(xs, xs[1:]))
    lin = GridSpec(1.0, 2.0, 11, "linear").abscissae()
    assert lin[5] == pytest.approx(1.5, rel=1e-15)
    # Three points between adjacent doubles cannot increase strictly.
    with pytest.raises(DomainError):
        GridSpec(1.0, math.nextafter(1.0, 2.0), 3, "linear").abscissae()


def test_sweep_thm22_op_example():
    rep = verifier.sweep(GridSpec(1e-2, 1e3, 200), BoundFamily.THM22)
    assert rep.all_pass
    assert rep.scale == "abs"
    assert len(rep.records) == 200


def test_sweep_eq6_op_example():
    rep = verifier.sweep(GridSpec(2.0, 1e2, 100), BoundFamily.EQ6)
    assert rep.all_pass


def test_sweep_rejects_out_of_domain_grid():
    with pytest.raises(DomainError):
        verifier.sweep(GridSpec(1.0, 1e2, 50), BoundFamily.EQ6)


def test_sweep_gamma_family_uses_log_scale():
    rep = verifier.sweep(GridSpec(0.5, 2e3, 40), BoundFamily.THM24)
    assert rep.scale == "log"
    assert rep.all_pass
    assert all(math.isfinite(r.interval.upper) for r in rep.records)
    assert rep.notes


def test_sweep_determinism():
    grid = GridSpec(0.1, 50.0, 30)
    a = verifier.sweep(grid, BoundFamily.THM21)
    oracle.clear_caches()
    b = verifier.sweep(grid, BoundFamily.THM21)
    assert a == b


def test_report_summary_fields():
    rep = verifier.sweep(GridSpec(0.5, 10.0, 25), BoundFamily.EQ9)
    s = rep.summary()
    assert s["all_pass"] is True
    assert s["points"] == 25
    assert s["failures"] == 0
    assert s["min_margin"] > 0.0
    assert 0.5 <= s["argmin_x"] <= 10.0


def test_compare_consistent_with_sweep():
    grid = GridSpec(0.5, 20.0, 15)
    rows = verifier.compare(grid, [BoundFamily.EQ5, BoundFamily.THM21,
                                   BoundFamily.THM22], "width")
    rep = verifier.sweep(grid, BoundFamily.THM21)
    for row, rec in zip(rows, rep.records):
        assert row.gap_by_family[BoundFamily.THM21] == pytest.approx(
            rec.interval.width, rel=1e-15
        )


#: Per target: the oracle value and the interval of a family at x, taken
#: directly, as ``compare`` took them before it read its rows off sweeps.
_DIRECT = {
    "gap": (lambda x: oracle.ref_digamma_gap(x, math.inf).value, bounds.digamma_gap_bounds),
    "ratio": (lambda x: oracle.ref_stirling_target(x, math.inf).value,
              bounds.stirling_ratio_bounds),
    "gamma": (lambda x: verifier._log_gamma_plus_one(x).value, bounds.gamma_bounds_log),
}


_COMPARE_GRIDS = [
    ("eq6,thm23", GridSpec(2.0, 100.0, 40)),
    ("eq5,thm21,thm22,eq9,eq9r1,eq9r2", GridSpec(1e-3, 1e4, 40)),
    ("eq4,eq7,thm23", GridSpec(1e-2, 1e3, 40)),
    ("eq8,thm24", GridSpec(1e-3, 1e6, 40, "linear")),
]


@pytest.mark.parametrize("families, grid, side", [
    ("eq6,thm23", GridSpec(2.0, 100.0, 500), "upper"),   # criterion 8
    *[(*row, side) for row in _COMPARE_GRIDS for side in ("lower", "upper", "width")],
])
def test_compare_rows_are_the_sweeps_margins(families, grid, side):
    # |lower - target|, |upper - target| or the width, bit for bit as
    # computed from the oracle and the bounds directly at each x.
    families = [BoundFamily.parse(tag) for tag in families.split(",")]
    target, interval = _DIRECT[families[0].target]
    rows = verifier.compare(grid, families, side)
    assert [row.x for row in rows] == grid.abscissae()
    for row in rows:
        t = target(row.x)
        for f in families:
            iv = interval(row.x, f)
            want = {"lower": abs(iv.lower - t), "upper": abs(iv.upper - t),
                    "width": iv.upper - iv.lower}[side]
            assert row.gap_by_family[f].hex() == want.hex(), (f, row.x)


def test_compare_upper_ordering_observed():
    grid = GridSpec(0.5, 100.0, 20)
    rows = verifier.compare(grid, [BoundFamily.EQ5, BoundFamily.THM21,
                                   BoundFamily.THM22], "upper")
    for row in rows:
        g = row.gap_by_family
        assert g[BoundFamily.THM21] <= g[BoundFamily.THM22] < g[BoundFamily.EQ5]


def test_compare_sweeps_the_latest_domain_start_first(monkeypatch):
    # eq6 starts at 2: asked after eq4 on a grid from 1e-3, it fails before any
    # eq4 interval is evaluated.  On its domain the columns keep the order asked.
    calls, stirling_ratio_bounds = [], bounds.stirling_ratio_bounds

    def counting(x, family):
        calls.append(family)
        return stirling_ratio_bounds(x, family)

    monkeypatch.setattr(bounds, "stirling_ratio_bounds", counting)
    families = [BoundFamily.EQ4, BoundFamily.EQ6]
    with pytest.raises(DomainError, match="eq6 requires"):
        verifier.compare(GridSpec(1e-3, 1e4, 50), families, "upper")
    assert calls == []
    rows = verifier.compare(GridSpec(2.0, 10.0, 5), families, "upper")
    assert [list(row.gap_by_family) for row in rows] == [families] * 5
    assert calls == [BoundFamily.EQ6] * 5 + [BoundFamily.EQ4] * 5


def test_compare_rejects_mixed_targets():
    with pytest.raises(DomainError):
        verifier.compare(GridSpec(1.0, 2.0, 5), [BoundFamily.EQ5, BoundFamily.EQ8],
                         "upper")
    with pytest.raises(DomainError):
        verifier.compare(GridSpec(1.0, 2.0, 5), [BoundFamily.EQ5], "sideways")


@pytest.mark.parametrize("families", [[BoundFamily.EQ5], [BoundFamily.EQ5, BoundFamily.EQ5],
                                      [BoundFamily.EQ5, BoundFamily.THM21, BoundFamily.EQ5]])
def test_compare_needs_two_distinct_families(families):
    with pytest.raises(DomainError, match="two distinct families"):
        verifier.compare(GridSpec(1.0, 2.0, 5), families, "upper")


def test_monotonicity_checks():
    assert verifier.monotonicity_check("f", GridSpec(1e-2, 1e6, 300), "increasing")
    assert verifier.monotonicity_check("trigamma", GridSpec(0.1, 100.0, 300),
                                       "decreasing")
    assert verifier.monotonicity_check("digamma", GridSpec(0.1, 100.0, 300),
                                       "increasing")
    # H is decreasing, so the increasing claim must come back false
    assert not verifier.monotonicity_check("H", GridSpec(1e-2, 1e4, 300),
                                           "increasing")
    with pytest.raises(KeyError):
        verifier.monotonicity_check("nope", GridSpec(1.0, 2.0, 5), "increasing")
    with pytest.raises(DomainError):
        verifier.monotonicity_check("f", GridSpec(1.0, 2.0, 5), "sideways")


def test_monotonicity_undecided_inside_noise_floor():
    # stirling_ratio changes by ~1e-22 over this interval: pure noise
    grid = GridSpec(1e6, 1e6 + 1e-8, 3, "linear")
    with pytest.raises(UndecidedComparisonError):
        verifier.monotonicity_check("stirling_ratio", grid, "decreasing")


def test_sign_checks():
    grid = GridSpec(1e-2, 1e4, 120)
    assert verifier.sign_check("H", grid, "positive")
    assert verifier.sign_check("P", grid, "negative")
    assert verifier.sign_check("p", grid, "negative")
    assert verifier.sign_check("theta", grid, "negative")
    assert not verifier.sign_check("H", grid, "negative")
    with pytest.raises(DomainError):
        verifier.sign_check("H", grid, "nonzero")


def test_unknown_function_names_list_the_choices():
    grid = GridSpec(1.0, 2.0, 5)
    calls = [
        lambda: bounds.FUNCTIONS["Q"](1.0),
        lambda: verifier.monotonicity_check("Q", grid, "increasing"),
        lambda: verifier.sign_check("Q", grid, "positive"),
    ]
    for call in calls:
        with pytest.raises(KeyError) as info:
            call()
        message = info.value.args[0]
        assert "'Q'" in message
        assert all(repr(name) in message for name in bounds.FUNCTIONS)


def test_limit_checks():
    for name, probe in (("beta_offset", 1e3), ("delta_offset", 1e3),
                        ("gap_leading", 1e4), ("stirling_limit", 1e3),
                        ("tau_limit", 1e3)):
        observed, expected, ok = verifier.limit_check(name, probe)
        assert ok, (name, observed, expected)
    observed, expected, ok = verifier.limit_check("f_limit", 1e6)
    assert ok and abs(observed - expected) < 1e-6
    with pytest.raises(KeyError):
        verifier.limit_check("nope", 1e3)


def test_limit_schedules_improve_monotonically():
    for name in ("beta_offset", "delta_offset", "f_limit", "stirling_limit",
                 "gap_leading", "tau_limit"):
        assert verifier.limit_schedule_check(name), name


def test_limit_schedule_fails_where_a_probe_misses(monkeypatch):
    # f observed a constant 1/3 + 0.1 misses the limit at every probe.
    monkeypatch.setitem(verifier._LIMITS, "f_limit", (lambda x: 0.1 + 1 / 3, 1 / 3))
    assert not verifier.limit_schedule_check("f_limit")


def test_identity_check(monkeypatch):
    assert verifier.identity_check(GridSpec(0.5, 50.0, 12))
    # The gap is asked at eps = inf, as sweep asks it: near 0 its radius
    # (1.3e-12 at 3e-4) passes the default eps, and the enclosure judges it.
    assert verifier.identity_check(GridSpec(3e-4, 3.1e-4, 2))
    with pytest.raises(DomainError):
        verifier.identity_check(GridSpec(1.0, 2.0, 1))
    # Near 0 psi' ~ 1/x^2 ~ 1e7: its recurrence's residual is an ulp or so of
    # that, far above an absolute 1e-10 and far below 1e-10 of psi'.
    grid = GridSpec(3e-4, 1e-3, 8)
    assert verifier.identity_check(grid)
    trigamma = verifier.specfun.trigamma
    monkeypatch.setattr(verifier.specfun, "trigamma", lambda x: trigamma(x) * (1.0 + 1e-9))
    assert not verifier.identity_check(grid)
    # With the recurrences whole, a tau-series enclosure of [1, 2] misses the
    # gap (under 0.6 from x = 1).
    monkeypatch.undo()
    monkeypatch.setattr(verifier.bounds, "gap_via_tau_series",
                        lambda x, terms: bounds.Interval(1.0, 2.0))
    assert not verifier.identity_check(GridSpec(1.0, 2.0, 3))


def test_identity_check_single_point_tau_interval():
    grid = GridSpec(1.0, 1.0 + 1e-9, 2, "linear")
    assert verifier.identity_check(grid)


def test_aux_property_report():
    report = verifier.aux_property_report(GridSpec(1e-2, 1e3, 60))
    assert report["f"]["sign_ok"] and report["f"]["monotonicity_ok"]
    assert report["f"]["below_one_third"]
    assert report["H"]["sign_ok"] and report["H"]["monotonicity_ok"]
    assert report["P"]["sign_ok"] and report["P"]["monotonicity_ok"]
    assert report["p"]["sign_ok"] and report["p"]["monotonicity_ok"]
    assert report["theta"]["sign_ok"]
    assert "note" in report["p"]  # the sign-convention flag


def test_gap_families_margins_scale_with_radius_rule():
    # spot-check the strictness rule arithmetic on one record
    rep = verifier.sweep(GridSpec(1.0, 2.0, 3), BoundFamily.EQ9)
    r = rep.records[0]
    expected = verifier.STRICTNESS_FACTOR * (
        r.target.error_radius + verifier.BOUND_ULPS * math.ulp(abs(r.interval.lower))
    )
    assert r.lower_threshold == pytest.approx(expected, rel=1e-12)
    assert r.rel_lower_margin == pytest.approx(r.lower_margin / r.target.value)


def test_gamma_target_encloses_log_gamma_at_x_plus_one():
    # The oracle sums log Gamma at the rounded s = x + 1; the target's radius
    # also charges that rounding, so on the criterion-1 grid every eq8 target
    # encloses 60-digit log Gamma(x + 1), where x + 1 is exact.
    mpmath = pytest.importorskip("mpmath")
    rep = verifier.sweep(GridSpec(1e-3, 1e4, 500), BoundFamily.EQ8)
    assert rep.all_pass
    misses = []
    with mpmath.workdps(60):
        for r in rep.records:
            truth = mpmath.loggamma(mpmath.mpf(r.x) + 1)
            if abs(mpmath.mpf(r.target.value) - truth) > mpmath.mpf(r.target.error_radius):
                misses.append(r.x)
    assert not misses, misses


def test_sweep_sums_each_series_once_per_point():
    # A sweep takes each oracle radius as it is, so it asks once per point:
    # on the criterion-1 grid eq4's target sums mu once at each of 500 x.
    oracle.clear_caches()
    verifier.sweep(GridSpec(1e-3, 1e4, 500), BoundFamily.EQ4)
    assert oracle.ref_binet_mu.cache_info().misses == 500
    # compare sweeps each family, and the cache sums the target once per
    # point, whatever the number of families.
    oracle.clear_caches()
    verifier.compare(GridSpec(1e-3, 1e4, 50), [BoundFamily.EQ4, BoundFamily.EQ7,
                                              BoundFamily.THM23], "upper")
    assert oracle.ref_stirling_target.cache_info()[:2] == (100, 50)
    oracle.clear_caches()


@pytest.mark.parametrize("family, x_min, x_max", [
    (BoundFamily.EQ8, 1e10, 1e13), (BoundFamily.THM24, 1e10, 1e13),
    (BoundFamily.EQ5, 1e-20, 1e-13), (BoundFamily.EQ9R1, 1e-20, 1e-13),
])
def test_sweep_certifies_where_the_radius_is_large(family, x_min, x_max):
    # log Gamma(1e12 + 1) ~ 2.7e13 has a radius of 2e-3 and the gap at 1e-20
    # one of 4e3: no absolute tolerance bounds them, and the strictness rule
    # still certifies every point, each target enclosing the truth.
    mpmath = pytest.importorskip("mpmath")
    truth = {"gap": lambda m: mpmath.log(m) - mpmath.digamma(m),
             "gamma": lambda m: mpmath.loggamma(m + 1)}[family.target]
    rep = verifier.sweep(GridSpec(x_min, x_max, 4), family)
    assert [r.passed for r in rep.records] == [True] * 4
    for r in rep.records:
        with mpmath.workdps(60 + 2 * math.ceil(abs(math.log10(r.x)))):
            error = abs(mpmath.mpf(r.target.value) - truth(mpmath.mpf(r.x)))
            assert error <= r.target.error_radius, r.x
