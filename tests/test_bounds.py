import functools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import refs_frozen as refs
from psibounds import bounds, oracle, specfun
from psibounds.bounds import BoundFamily, Interval
from psibounds.errors import DomainError

GRID = [10.0 ** (-2 + 6 * i / 79) for i in range(80)]

_MAX = 1.7976931348623157e308


def _log_points(lo: float, hi: float, n: int) -> list[float]:
    a, b = math.log(lo), math.log(hi)
    return [lo] + [math.exp(a + (b - a) * i / (n - 1)) for i in range(1, n - 1)] + [hi]


def test_family_parse_and_domains():
    assert BoundFamily.parse("THM22") is BoundFamily.THM22
    assert BoundFamily.parse(" eq9r1 ") is BoundFamily.EQ9R1
    with pytest.raises(KeyError):
        BoundFamily.parse("eq10")
    assert BoundFamily.EQ6.domain_min == 2.0
    assert all(f.domain_min == 0.0 for f in BoundFamily if f is not BoundFamily.EQ6)


def test_interval_invariant():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    iv = Interval(0.25, 0.5)
    assert iv.width == 0.25
    assert iv.contains(0.3) and not iv.contains(0.25)
    # A value: equal sides compare and hash equal, and nothing else is equal.
    assert iv == Interval(0.25, 0.5) and hash(iv) == hash(Interval(0.25, 0.5))
    assert iv != Interval(0.25, 0.75) and iv != (0.25, 0.5)
    assert len({iv, Interval(0.25, 0.5), Interval(0.0, 0.5)}) == 2
    assert repr(iv) == "Interval(lower=0.25, upper=0.5)"
    for name in ("lower", "upper"):
        with pytest.raises(AttributeError):
            setattr(iv, name, 0.0)
    assert (iv.lower, iv.upper) == (0.25, 0.5)
    # The one check is lower < upper: an infinite side above or below is
    # accepted, and a nan side or an infinite lower side above is not.
    assert Interval(0.5, math.inf).upper == math.inf
    assert Interval(-math.inf, 0.5).lower == -math.inf
    for lower, upper in ((math.nan, 1.0), (0.0, math.nan), (math.inf, 0.5)):
        with pytest.raises(ValueError):
            Interval(lower, upper)


#: The series V of _shifted_atanh, 1/63, ..., 1/5 in Horner order: its
#: reference, the plain loop, takes the last 18 up to v = 1/9 and all 30 above.
_V_COEFFS = tuple(1.0 / (2 * k + 1) for k in range(31, 1, -1))


def test_shifted_atanh_is_the_horner_loop_bit_for_bit():
    def loop(v):
        acc = 0.0
        for c in _V_COEFFS[-18:] if v <= 1.0 / 9.0 else _V_COEFFS:
            acc = acc * v + c
        return acc

    rng = random.Random(20181)
    ninth = 1.0 / 9.0
    vs = [rng.uniform(0.0, 0.25) for _ in range(10_000)]
    vs += [0.0, 0.25, ninth, math.nextafter(ninth, 0.0), math.nextafter(ninth, 1.0)]
    for v in vs:
        assert bounds._shifted_atanh(v) == loop(v), v


def _fast_path_calls():
    evaluator = {"gap": bounds.digamma_gap_bounds, "ratio": bounds.stirling_ratio_bounds,
                 "gamma": bounds.gamma_bounds_log}
    calls = {f.value: functools.partial(evaluator[f.target], family=f) for f in BoundFamily}
    calls.update(digamma_gap=specfun.digamma_gap, binet_mu=specfun.binet_mu,
                 digamma=specfun.digamma, trigamma=specfun.trigamma,
                 log_gamma=specfun.log_gamma, stirling_ratio=specfun.stirling_ratio,
                 H=bounds.aux_big_h, P=bounds.aux_big_p)
    # polygamma's expansion, its drift over the head terms (n >= 3; 55 with the
    # exact n! of n > 22) and its scaled sum (200, from x ~ 35, as terms underflow).
    calls.update({f"polygamma{n}": functools.partial(specfun.polygamma, n)
                  for n in (2, 3, 10, 55, 200)})
    return calls


@pytest.mark.parametrize("name", sorted(refs.FAST_PATH_REPRS))
def test_fast_path_outputs_are_frozen(name):
    # Bit identity of the 12 family intervals and of the specfun fast path
    # against their frozen outputs: a repr, or the class of what was raised.
    fn = _fast_path_calls()[name]
    for x, frozen in zip(refs.FAST_PATH_XS, refs.FAST_PATH_REPRS[name], strict=True):
        try:
            got = repr(fn(x))
        except Exception as exc:  # the frozen outputs include what was raised
            got = type(exc).__name__
        assert got == frozen, (name, x)


def test_closed_form_arguments():
    assert bounds.alpha(2.0) == pytest.approx(7.0 / 3.0, rel=1e-15)
    assert bounds.alpha(0.01) == pytest.approx(0.34333333333333332, rel=1e-15)
    assert bounds.beta(1.0) == pytest.approx(refs.BETA_1, rel=1e-13)
    assert bounds.beta_refined(1.0) == pytest.approx(19.0 / 15.0, rel=1e-15)
    assert bounds.delta_star(1.0) == pytest.approx(refs.DELTA_STAR_1, rel=1e-13)
    assert bounds.stirling_arg_upper(1.0) == pytest.approx(27.0 / 21.0, rel=1e-15)
    assert bounds.stirling_arg_upper(2.0) == pytest.approx(2.0 + 1.0 / 3.0 - 1.0 / 39.0, rel=1e-15)


def test_beta_asymptotics():
    assert bounds.beta(1000.0) - 1000.0 == pytest.approx(refs.BETA_1000_OFFSET, rel=1e-10)
    assert bounds.beta(1e6) - 1e6 == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_gamma_arg_bounds():
    lower, upper, refined = bounds.gamma_arg_bounds(1.0)
    assert lower == pytest.approx(1.0 / math.log(2.0), rel=1e-15)
    assert upper == 1.5
    assert refined == pytest.approx(1.5 - 1.0 / 14.0, rel=1e-15)
    assert refined < lower
    # x -> 0+: all three arguments approach 1
    lower, upper, refined = bounds.gamma_arg_bounds(1e-9)
    assert lower == pytest.approx(1.0, abs=1e-8)
    assert upper == pytest.approx(1.0, abs=1e-8)
    assert refined == pytest.approx(1.0, abs=1e-8)
    # x = 10: refined = 6 - 100/32 = 2.875
    _, _, refined = bounds.gamma_arg_bounds(10.0)
    assert refined == pytest.approx(2.875, rel=1e-15)


def test_refined_gamma_argument_does_not_cancel():
    # x/2 + 1 - x^2/(12 + 2x) = 4(x + 3/2)/(x + 6): within 2 ulps of mpmath up
    # to the largest double (the difference form was 0.0 from x ~ 1e17, -inf
    # from 1.34e154), so thm24 has a finite lower bound at 1e17 and 1e20.
    mpmath = pytest.importorskip("mpmath")
    for x in _log_points(1e-300, _MAX, 400):
        with mpmath.workdps(40 + 2 * max(0, math.ceil(math.log10(x)))):
            m = mpmath.mpf(x)
            truth = m / 2 + 1 - m * m / (12 + 2 * m)
            got = bounds.gamma_arg_bounds(x)[2]
            assert abs(got - truth) <= 2 * math.ulp(float(truth)), x
    for x in (1e17, 1e20):
        iv = bounds.gamma_bounds_log(x, BoundFamily.THM24)
        assert 0.0 < iv.lower < iv.upper < math.inf, (x, iv)


_ARGUMENT_FUNCTIONS = {"beta_refined": bounds.beta_refined,
                       "stirling_arg_upper": bounds.stirling_arg_upper,
                       "gamma_arg_bounds": bounds.gamma_arg_bounds}


def _named(name):
    return bounds.FUNCTIONS[name] if name in bounds.FUNCTIONS else _ARGUMENT_FUNCTIONS[name]


def _all_finite(out):
    # gamma_arg_bounds returns three arguments, every other function one value.
    return all(math.isfinite(v) for v in (out if isinstance(out, tuple) else (out,)))


@pytest.mark.parametrize("name", sorted(bounds.FUNCTIONS) + sorted(_ARGUMENT_FUNCTIONS))
@given(x=st.floats(min_value=5e-324, max_value=_MAX))
@settings(max_examples=60, deadline=None)
def test_named_and_argument_functions_total_on_every_positive_double(name, x):
    # A finite value, or DomainError where the value passes the largest
    # double: never nan, inf or a raw error.
    try:
        out = _named(name)(x)
    except DomainError:
        return
    assert _all_finite(out), (name, x, out)


@pytest.mark.parametrize("name, x, finite", [
    ("beta_refined", 4.5e307, True), ("beta_refined", _MAX, True),
    ("stirling_arg_upper", 8.99e307, True), ("stirling_arg_upper", _MAX, True),
    ("delta_star", _MAX, True), ("theta", 1e232, False), ("theta", _MAX, False),
    ("H", 2e-155, False), ("H", 5e-324, False), ("P", 5e-324, False), ("P", 2e-309, True),
    ("P", 1e-308, True), ("p", 1.35e154, True), ("p", 4.49e307, True), ("p", _MAX, True),
    ("gamma_arg_bounds", 1.35e154, True), ("gamma_arg_bounds", _MAX, True)])
def test_functions_at_the_ends_of_the_range(name, x, finite):
    # Where these once returned nan or an infinity: the finite value, or
    # DomainError where the value passes the largest double.
    if not finite:
        with pytest.raises(DomainError):
            _named(name)(x)
        return
    out = _named(name)(x)
    assert _all_finite(out), out


@pytest.mark.parametrize("x", [5e-324, 1e-310])
def test_where_kernel_r_overflows_the_error_names_it(x, capsys):
    # Below ~5.56e-309, 1/x overflows, and every function built on kernel_r(x)
    # says that kernel_r(x) passes the largest double, not that an argument
    # the caller never passed is inf.
    from psibounds import cli, kernels
    message = f"kernel_r({x!r}) passes the largest double"
    calls = [kernels.kernel_r, lambda x: kernels.kernel_r_terms(x, 3), specfun.digamma_gap,
             specfun.digamma, bounds.beta, bounds.aux_f, lambda x: bounds.tau(1, x),
             lambda x: bounds.g_c(x, 0.0),
             lambda x: bounds.digamma_gap_bounds(x, BoundFamily.THM21)]
    for fn in calls:
        with pytest.raises(DomainError) as exc:
            fn(x)
        assert str(exc.value) == message
    assert cli.main(["eval", "beta", repr(x)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


@given(st.floats(min_value=1e-3, max_value=2e4))
@settings(max_examples=80)
def test_argument_ordering(x):
    # The true separations decay like c/x^2 and drop below one ulp of the
    # argument near x ~ 5e4, where the strict orderings stop being float
    # resolvable; below that they must hold exactly.
    assert x < bounds.beta_refined(x) < bounds.beta(x)
    assert bounds.stirling_arg_upper(x) < bounds.delta_star(x)
    lower, _, refined = bounds.gamma_arg_bounds(x)
    assert refined < lower


@given(st.floats(min_value=2e4, max_value=1e12))
@settings(max_examples=30)
def test_argument_ordering_weak_beyond_resolution(x):
    # Past the resolution point the computed pair can land on either side by
    # a couple of ulps; only the coarse ordering survives.
    slack = 4.0 * math.ulp(x)
    assert x < bounds.beta_refined(x) <= bounds.beta(x) + slack
    assert bounds.stirling_arg_upper(x) <= bounds.delta_star(x) + slack


def test_tau_values_and_bracket():
    assert bounds.tau(1, 1.0) == pytest.approx(refs.BETA_1 - 1.0, rel=1e-12)
    assert bounds.tau(2, 1.0) == pytest.approx(refs.TAU_2_1, rel=1e-12)
    for x in (0.5, 1.0, 3.0, 10.0):
        prev = None
        for k in (1, 2, 3, 10, 100, 10000):
            t = bounds.tau(k, x)
            assert x - 1.0 < t < x - 2.0 / 3.0
            if prev is not None:
                assert t > prev
            prev = t
    with pytest.raises(DomainError):
        bounds.tau(0, 1.0)
    with pytest.raises(DomainError):
        bounds.tau(1, -1.0)


@pytest.mark.parametrize("k", [1, 2, 3, 10])
def test_tau_keeps_the_digits_of_small_x(k):
    # tau(k, x) = beta(x + k - 1) - k with x + (k - 1) rounded once: at k = 1
    # that is x itself, where (x + 1) - 1 kept none of its digits below 1e-16.
    mpmath = pytest.importorskip("mpmath")
    for x in _log_points(1e-300, 1e4, 300):
        with mpmath.workdps(50):
            y = mpmath.mpf(x) + (k - 1)
            truth = 1 / mpmath.sqrt(2 * (1 / y - mpmath.log1p(1 / y))) - k
            assert abs(bounds.tau(k, x) - truth) <= 4 * math.ulp(float(truth)), (k, x)


def test_tau_refuses_k_past_the_double_range():
    with pytest.raises(DomainError):
        bounds.tau(2**1024 + 1, 1.0)


def test_gap_via_tau_series_encloses_down_to_tiny_x():
    # The partial sum takes k + tau(k, x) as beta(x + k - 1), which neither
    # cancels nor loses x: the interval holds the 50-digit gap at every x.
    mpmath = pytest.importorskip("mpmath")
    for i, x in enumerate(_log_points(1e-300, 1e4, 300)):
        iv = bounds.gap_via_tau_series(x, (1, 7, 60)[i % 3])
        with mpmath.workdps(50):
            m = mpmath.mpf(x)
            gap = mpmath.log(m) - mpmath.digamma(m)
            assert iv.lower <= gap <= iv.upper, (x, iv)


def test_gap_via_tau_series():
    gamma = refs.EULER_GAMMA
    coarse = bounds.gap_via_tau_series(1.0, 1)
    assert coarse.contains(gamma)
    tight = bounds.gap_via_tau_series(1.0, 100)
    assert tight.contains(gamma)
    assert tight.width < 1e-3
    widths = [bounds.gap_via_tau_series(1.0, k).width for k in (10, 100, 1000)]
    assert widths[0] > widths[1] > widths[2]
    # nested within the coarse trigamma-argument bracket
    for x in (0.5, 2.0, 10.0):
        iv = bounds.gap_via_tau_series(x, 50)
        outer = bounds.digamma_gap_bounds(x, BoundFamily.THM21)
        assert outer.lower <= iv.lower and iv.upper <= outer.upper


@pytest.mark.parametrize("terms", [0, True, 2.5])
def test_gap_via_tau_series_takes_a_positive_integer_count(terms):
    with pytest.raises(DomainError):
        bounds.gap_via_tau_series(1.0, terms)


def test_gap_bounds_spot_values_at_one():
    thm21 = bounds.digamma_gap_bounds(1.0, BoundFamily.THM21)
    assert thm21.lower == pytest.approx(refs.THM21_LOWER_1, rel=1e-12)
    assert thm21.upper == pytest.approx(refs.THM21_UPPER_1, rel=1e-12)
    assert thm21.contains(refs.EULER_GAMMA)
    eq9 = bounds.digamma_gap_bounds(1.0, BoundFamily.EQ9)
    assert (eq9.lower, eq9.upper) == (0.5, 1.0)
    thm22 = bounds.digamma_gap_bounds(1.0, BoundFamily.THM22)
    assert thm22.upper == pytest.approx(refs.THM22_UPPER_1, rel=1e-12)
    eq5_upper = bounds.digamma_gap_bounds(1.0, BoundFamily.EQ5).upper
    assert thm22.upper < eq5_upper
    assert eq5_upper == pytest.approx(refs.TRIGAMMA_1 / 2.0, rel=1e-12)


def test_ratio_bounds_spot_values():
    thm23 = bounds.stirling_ratio_bounds(1.0, BoundFamily.THM23)
    assert thm23.lower == pytest.approx(refs.THM23_LOWER_1, rel=1e-12)
    assert thm23.upper == pytest.approx(refs.THM23_UPPER_1, rel=1e-12)
    assert thm23.contains(refs.STIRLING_RATIO_1)
    eq4 = bounds.stirling_ratio_bounds(1.0, BoundFamily.EQ4)
    assert eq4.upper == pytest.approx(refs.EQ4_UPPER_1, rel=1e-12)
    assert thm23.upper < eq4.upper
    eq6 = bounds.stirling_ratio_bounds(2.0, BoundFamily.EQ6)
    assert eq6.contains(refs.ROOT_SCALED_TARGET_2)
    with pytest.raises(DomainError):
        bounds.stirling_ratio_bounds(1.99, BoundFamily.EQ6)


def test_gamma_bounds_spot_values():
    thm24 = bounds.gamma_bounds(1.0, BoundFamily.THM24)
    assert thm24.lower == pytest.approx(refs.THM24_LOWER_1, rel=1e-12)
    assert thm24.upper == pytest.approx(refs.THM24_UPPER_1, rel=1e-12)
    assert thm24.contains(1.0)  # Gamma(2) = 1
    eq8 = bounds.gamma_bounds(1.0, BoundFamily.EQ8)
    assert eq8.lower == pytest.approx(refs.EQ8_LOWER_1, rel=1e-12)
    assert thm24.lower < eq8.lower
    # x = 4: both families bracket Gamma(5) = 24
    for fam in (BoundFamily.EQ8, BoundFamily.THM24):
        assert bounds.gamma_bounds(4.0, fam).contains(24.0)
    # upper bound at 1 equals exp(2 - gamma - 2 log 2)
    assert thm24.upper == pytest.approx(
        math.exp(2.0 - refs.EULER_GAMMA - 2.0 * math.log(2.0)), rel=1e-12
    )


def test_gamma_bounds_log_scale_consistency():
    iv_log = bounds.gamma_bounds_log(3.0, BoundFamily.EQ8)
    iv = bounds.gamma_bounds(3.0, BoundFamily.EQ8)
    assert iv.lower == pytest.approx(math.exp(iv_log.lower), rel=1e-14)
    assert iv.upper == pytest.approx(math.exp(iv_log.upper), rel=1e-14)
    # huge x: exponentiated form overflows, log form stays finite
    with pytest.raises(DomainError):
        bounds.gamma_bounds(1e4, BoundFamily.THM24)
    iv_big = bounds.gamma_bounds_log(1e4, BoundFamily.THM24)
    assert math.isfinite(iv_big.lower) and math.isfinite(iv_big.upper)


def test_wrong_family_for_target_raises():
    with pytest.raises(DomainError):
        bounds.digamma_gap_bounds(1.0, BoundFamily.EQ4)
    with pytest.raises(DomainError):
        bounds.stirling_ratio_bounds(1.0, BoundFamily.EQ9)
    with pytest.raises(DomainError):
        bounds.gamma_bounds(1.0, BoundFamily.EQ5)


_EVALUATORS = {"gap": bounds.digamma_gap_bounds, "ratio": bounds.stirling_ratio_bounds,
               "gamma": bounds.gamma_bounds_log}


def _interval_or_domain_error(family, x):
    # An interval with finite sides or DomainError, never a raw arithmetic
    # error.  Sides that round together still raise the degenerate-interval
    # ValueError.
    try:
        iv = _EVALUATORS[family.target](x, family)
    except DomainError:
        return
    except ValueError as exc:
        assert "degenerate interval" in str(exc), (family, x)
        return
    assert math.isfinite(iv.lower) and math.isfinite(iv.upper), (family, x, iv)


@pytest.mark.parametrize("family", list(BoundFamily))
@given(x=st.floats(min_value=5e-324, max_value=1.7976931348623157e308))
@settings(max_examples=40, deadline=None)
def test_family_intervals_total_on_every_positive_double(family, x):
    _interval_or_domain_error(family, x)


@pytest.mark.parametrize("family", list(BoundFamily))
@pytest.mark.parametrize("x", [5e-324, 1e-300, 1e-238, 1e-10, 1e300, 1.7976931348623157e308])
def test_family_intervals_where_their_closed_forms_overflow(family, x):
    _interval_or_domain_error(family, x)


# Upper limit of the regime where each family's thinnest margin still exceeds
# a handful of ulps of the bound value.  eq6's upper slack decays like
# 13/(6480 x^4) and eq9r2's like 1/(240 x^5); past these points the two sides
# agree to within a few ulps in double precision and strict sandwiching is no
# longer float-resolvable (the acceptance suite records this honestly).
RESOLVABLE_UP_TO = {BoundFamily.EQ6: 500.0, BoundFamily.EQ9R2: 600.0}


def _target_and_interval(fam, x):
    kind = fam.target
    if kind == "gap":
        return oracle.ref_digamma_gap(x, 1e-12), bounds.digamma_gap_bounds(x, fam)
    if kind == "ratio":
        return oracle.ref_stirling_target(x, 1e-8), bounds.stirling_ratio_bounds(x, fam)
    return oracle.ref_log_gamma(x + 1.0, 1e-8), bounds.gamma_bounds_log(x, fam)


def test_sandwich_property_all_families():
    # lower < oracle target < upper with margin beyond the oracle radius
    for fam in BoundFamily:
        cap = RESOLVABLE_UP_TO.get(fam, math.inf)
        for x in GRID:
            if x < fam.domain_min or x > cap:
                continue
            target, iv = _target_and_interval(fam, x)
            assert target.value - iv.lower > target.error_radius, (fam, x)
            assert iv.upper - target.value > target.error_radius, (fam, x)


def test_sandwich_never_violated_even_where_unresolvable():
    # In the collapsed regime the sides may coincide to a few ulps, but they
    # must never order the wrong way by more than that noise.
    for fam in (BoundFamily.EQ6, BoundFamily.EQ9R2):
        for x in (700.0, 1500.0, 4000.0, 1e4):
            if x < fam.domain_min:
                continue
            target, iv = _target_and_interval(fam, x)
            slack = 4.0 * math.ulp(abs(iv.upper)) + target.error_radius
            assert target.value - iv.lower > -slack, (fam, x)
            assert iv.upper - target.value > -slack, (fam, x)


def test_g_c_signs_and_limit():
    assert bounds.g_c(1.0, 1.0 / 3.0) == pytest.approx(refs.G_THIRD_AT_1, rel=1e-10)
    assert bounds.g_c(1.0, 0.0) == pytest.approx(refs.G_ZERO_AT_1, rel=1e-12)
    for x in GRID:
        assert bounds.g_c(x, 1.0 / 3.0) > 0.0
        assert bounds.g_c(x, 0.0) < 0.0
    assert abs(bounds.g_c(1e6, 0.7)) < 1e-6
    with pytest.raises(DomainError):
        bounds.g_c(1.0, -0.5)


def test_delta_star_exceeds_simple_argument():
    assert bounds.delta_star(1.0) > 1.0 + 1.0 / 3.0 - 1.0 / 21.0
    for x in GRID:
        assert bounds.stirling_arg_upper(x) < bounds.delta_star(x)
    assert bounds.delta_star(1e6) - 1e6 == pytest.approx(1.0 / 3.0, abs=1e-5)


def test_aux_values_at_one():
    assert bounds.FUNCTIONS["H"](1.0) == pytest.approx(refs.AUX_H_1, rel=1e-12)
    assert bounds.FUNCTIONS["P"](1.0) == pytest.approx(refs.AUX_P_1, rel=1e-11)
    assert bounds.FUNCTIONS["p"](1.0) == pytest.approx(refs.AUX_LITTLE_P_1, rel=1e-12)
    assert bounds.FUNCTIONS["theta"](1.0) == pytest.approx(refs.AUX_THETA_1, rel=1e-11)
    assert bounds.FUNCTIONS["h"](0.0) == 0.0
    assert bounds.FUNCTIONS["theta"](0.0) == 0.0
    assert bounds.FUNCTIONS["h"](1.0) == pytest.approx(1.0 - math.log(2.0), rel=1e-14)
    assert bounds.FUNCTIONS["f"](2.0) == pytest.approx(refs.TAU_2_1, rel=1e-12)
    with pytest.raises(KeyError):
        bounds.FUNCTIONS["Q"](1.0)


def test_aux_signs_on_grid():
    for x in GRID:
        assert 0.0 < bounds.FUNCTIONS["f"](x) < 1.0 / 3.0
        assert bounds.FUNCTIONS["H"](x) > 0.0
        assert bounds.FUNCTIONS["P"](x) < 0.0
        assert bounds.FUNCTIONS["p"](x) < 0.0
        assert bounds.FUNCTIONS["theta"](x) < 0.0


@pytest.mark.parametrize("name", ["aux_h", "aux_theta", "aux_p"])
def test_aux_nonnegative_domain(name):
    fn = getattr(bounds, name)
    assert fn(0.0) == 0.0
    for bad in (-1e-300, -1.0, -math.inf, math.nan, math.inf):
        with pytest.raises(DomainError):
            fn(bad)


def test_aux_f_limit():
    assert bounds.FUNCTIONS["f"](1e6) == pytest.approx(1.0 / 3.0, abs=1e-6)


@pytest.mark.parametrize("x", [1e160, 1e300, 1.7976931348623157e308])
def test_beta_f_and_tau_where_kernel_r_underflows(x):
    # 2 kernel_r(x) ~ 1/x^2 is subnormal or zero here: beta, f and tau (f
    # plus x - 1) come from f's form in t = 1/(2x + 1), and match mpmath
    # rounded to the nearest double.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40 + 2 * math.ceil(math.log10(x))):
        m = mpmath.mpf(x)
        b = 1 / mpmath.sqrt(2 * (1 / m - mpmath.log1p(1 / m)))
        assert bounds.beta(x) == float(b)
        assert bounds.aux_f(x) == float(b - m)
        assert bounds.tau(1, x) == float(b - 1)
        y = m + 2
        assert bounds.tau(3, x) == float(1 / mpmath.sqrt(2 * (1 / y - mpmath.log1p(1 / y))) - 3)


@given(st.floats(min_value=16.0, max_value=_MAX))
def test_f_and_beta_bracket_above_the_cutoff(x):
    f = bounds.aux_f(x)
    assert 0.0 < f <= 1.0 / 3.0
    assert x <= bounds.beta(x) <= x + f


def test_beta_f_and_tau_within_an_ulp_above_the_cutoff():
    # From x = 1, f is written in t = 1/(2x + 1) and beta = x + f: neither
    # cancels nor underflows, up to the largest double.
    mpmath = pytest.importorskip("mpmath")

    def mp_beta(y):
        return 1 / mpmath.sqrt(2 * (1 / y - mpmath.log1p(1 / y)))

    for x in _log_points(16.0, _MAX, 1000):
        # 1/y - log1p(1/y) and beta - y each cancel log10(y) digits.
        with mpmath.workdps(30 + 2 * math.ceil(math.log10(x))):
            m = mpmath.mpf(x)
            b = mp_beta(m)
            cases = {"f": (bounds.aux_f(x), b - m), "beta": (bounds.beta(x), b),
                     "tau1": (bounds.tau(1, x), b - 1),
                     "tau3": (bounds.tau(3, x), mp_beta(m + 2) - 3)}
            for name, (got, truth) in cases.items():
                assert abs(got - truth) <= math.ulp(float(truth)), (name, x)


def _mp_f(m, mp):
    return 1 / mp.sqrt(2 * (1 / m - mp.log1p(1 / m))) - m


def _mp_big_h(m, mp):
    b = m + mp.mpf(1) / 3 - 1 / (12 * m + 3)
    return mp.log1p(1 / m) - 1 / m + 1 / (2 * b * b)


def _mp_big_p(m, mp):
    return mp.log1p(1 / m) - (1 + 12 * m + 12 * m * m) / (6 * m * (m + 1) * (2 * m + 1))


def _mp_p(m, mp):
    return mp.log1p(m) - (m * m + 6 * m) / (4 * m + 6)


def _mp_theta(m, mp):
    # theta ~ t^4/36 cancels its ~t^2/2 parts below t = 1: 3 log10(1/t) digits.
    with mp.extradps(30 + 3 * max(0, -math.floor(math.log10(m)))):
        return m - mp.log1p(m) - m * m / (2 * (m + 1) ** (mp.mpf(2) / 3))


# The accuracy table of f, beta, H and P, as the bounds module docstring
# quotes it: most ulps off (40 + 6 log10 x)-digit mpmath (H ~ 1/x^5 cancels
# five times log10 x digits of its ~1/x terms) on 1000 log points of [1, 16),
# of [16, 1e60] and, for f, of [16, 1.8e308]; also P on [1/2, 1) and p on
# (1, 2], where their t-series take V's 30 terms; and theta on each of its
# forms: the series up to 1/16, the z-form on (1/16, 1] and [1, 4], and the
# direct form on (4, 26], [26, 1e6] and, with its Newton-refined cube root,
# [1e6, 1e200].
_HALF_TO_ONE = _log_points(0.5, math.nextafter(1.0, 0.0), 1000)
_ONE_TO_TWO = _log_points(math.nextafter(1.0, 2.0), 2.0, 1000)
_ONE_TO_16 = _log_points(1.0, math.nextafter(16.0, 0.0), 1000)
_FROM_16 = _log_points(16.0, 1e60, 1000)
_TO_MAX = _log_points(16.0, _MAX, 1000)
_AUX_ACCURACY_TABLE = [
    ("aux_f", _mp_f, _ONE_TO_16, 1.0),
    ("aux_f", _mp_f, _FROM_16, 0.9),
    ("aux_f", _mp_f, _TO_MAX, 0.9),
    ("beta", lambda m, mp: _mp_f(m, mp) + m, _ONE_TO_16, 0.8),
    ("beta", lambda m, mp: _mp_f(m, mp) + m, _FROM_16, 0.5),
    ("aux_big_h", _mp_big_h, _ONE_TO_16, 3.1),
    ("aux_big_h", _mp_big_h, _FROM_16, 2.4),
    ("aux_big_p", _mp_big_p, _ONE_TO_16, 5.1),
    ("aux_big_p", _mp_big_p, _FROM_16, 4.4),
    ("aux_big_p", _mp_big_p, _HALF_TO_ONE, 5.2),
    ("aux_p", _mp_p, _ONE_TO_TWO, 6.7),
    ("aux_theta", _mp_theta, _log_points(1e-3, 1.0 / 16.0, 1000), 2.4),
    ("aux_theta", _mp_theta, _log_points(math.nextafter(1.0 / 16.0, 1.0), 1.0, 1000), 11.2),
    ("aux_theta", _mp_theta, _log_points(1.0, 4.0, 1000), 9.0),
    ("aux_theta", _mp_theta, _log_points(math.nextafter(4.0, 5.0), 26.0, 1000), 14.3),
    ("aux_theta", _mp_theta, _log_points(26.0, 1e6, 1000), 6.1),
    ("aux_theta", _mp_theta, _log_points(1e6, 1e200, 1000), 2.8),
]


@pytest.mark.parametrize("name, exact, points, max_ulps", _AUX_ACCURACY_TABLE,
                         ids=[f"{row[0]}-{row[2][0]:g}-{row[2][-1]:.3g}"
                              for row in _AUX_ACCURACY_TABLE])
def test_aux_accuracy_table(name, exact, points, max_ulps):
    mpmath = pytest.importorskip("mpmath")
    fn, worst = getattr(bounds, name), 0.0
    for x in points:
        with mpmath.workdps(40 + 6 * math.ceil(math.log10(x))):
            ref = exact(mpmath.mpf(x), mpmath)
            worst = max(worst, float(abs(mpmath.mpf(fn(x)) - ref)) / math.ulp(float(ref)))
    assert worst <= max_ulps, (name, worst)


def test_big_h_sign_and_relative_error():
    # H > 0 is proved.  From x = 1 it is written in t = 1/(2x + 1), which
    # does not cancel; below, the direct difference is used.  H is a normal
    # double on about [2.3e-155, 1.4e61]; past it, H is subnormal or 0
    # (below, it passes the largest double: DomainError).
    mpmath = pytest.importorskip("mpmath")
    for x in _log_points(1e-300, _MAX, 600):
        try:
            h = bounds.aux_big_h(x)
        except DomainError:
            assert x < 2.3e-155, x
            continue
        assert h >= 0.0, x
        if x > 1e62:
            continue
        # The terms of H are ~1/x and it is ~1/x^5 (at small x, b cancels).
        with mpmath.workdps(30 + 4 * abs(math.ceil(math.log10(x)))):
            m = mpmath.mpf(x)
            b = m + mpmath.mpf(1) / 3 - 1 / (12 * m + 3)
            truth = mpmath.log1p(1 / m) - 1 / m + 1 / (2 * b * b)
            if 2.2250738585072014e-308 <= truth <= _MAX:
                assert h > 0.0, x
                tol = 1e-15 if x >= 16.0 else 2e-11
                assert abs(h - truth) <= tol * truth, x


def test_p_sign_and_relative_error():
    # p < 0 on (0, inf), ~ -x^4/36 at 0.  Up to x = 2 it is written in
    # t = x/(x+2) without cancellation; above, the direct difference is
    # within 1e-14 (measured, worst just above 2).
    mpmath = pytest.importorskip("mpmath")
    for x in _log_points(1e-20, 1e3, 600) + [1.0, math.nextafter(1.0, 2.0), 1e-5, 1e-10]:
        p = bounds.aux_p(x)
        assert p < 0.0, x
        # log1p(x) ~ x against p ~ x^4/36 cancels 3 log10(1/x) digits.
        with mpmath.workdps(30 + 3 * abs(math.ceil(math.log10(x)))):
            m = mpmath.mpf(x)
            truth = mpmath.log1p(m) - (m * m + 6 * m) / (4 * m + 6)
            tol = 8 * 2.0**-52 if x <= 1.0 else 1e-13
            assert abs(p - truth) <= tol * -truth, x


@pytest.mark.parametrize("x", [1e-5, 1e-10, 1e-17])
def test_beta_refined_at_small_x(x):
    # x + 1/3 - 1/(12x+3) cancels at small x; 4x/(12x+3) does not.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        m = mpmath.mpf(x)
        truth = float(m + mpmath.mpf(1) / 3 - 1 / (12 * m + 3))
    assert abs(bounds.beta_refined(x) - truth) <= math.ulp(truth)


def test_thm22_at_tiny_x_is_returned():
    # beta_refined(1e-17) once rounded to 0.0, so trigamma refused it.
    # The gap there is 1/x + log x + gamma + O(x), 1e17 in binary64.
    iv = bounds.digamma_gap_bounds(1e-17, BoundFamily.THM22)
    assert iv.contains(1e17)


@pytest.mark.parametrize("x", [1e-5, 1e-10, 1e-17])
def test_stirling_arg_upper_at_small_x(x):
    # x + 1/3 - 1/(18x+3) cancels at small x; 2x/(6x+1) does not.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        m = mpmath.mpf(x)
        truth = float(m + mpmath.mpf(1) / 3 - 1 / (18 * m + 3))
    assert abs(bounds.stirling_arg_upper(x) - truth) <= math.ulp(truth)


def test_thm23_at_tiny_x():
    # The upper side exp(-psi(z)/2), z ~ 3x, is about exp(1/(6x)): finite
    # down to x ~ 2.35e-4.  There the cancelling argument put it 4.6e-11
    # relative off; below, the overflow is reported with the family and x,
    # not as "got 0.0" from an argument that had rounded to zero.
    mpmath = pytest.importorskip("mpmath")
    x = 2.5e-4
    with mpmath.workdps(50):
        m = mpmath.mpf(x)
        truth = mpmath.exp(-mpmath.digamma(m + mpmath.mpf(1) / 3 - 1 / (18 * m + 3)) / 2)
    upper = bounds.stirling_ratio_bounds(x, BoundFamily.THM23).upper
    assert abs(upper - truth) <= 1e-12 * truth
    with pytest.raises(DomainError, match=r"thm23.*x=1e-17"):
        bounds.stirling_ratio_bounds(1e-17, BoundFamily.THM23)


def test_theta_sign_and_relative_error():
    # theta < 0 after 0.  Up to t = 1/16 it is a series in t, up to 4 a form
    # in z that does not cancel, and above that the direct difference (the
    # accuracy table pins each in ulps).
    # theta is a normal double on about [2.9e-77, 2.6e231] (above, it passes
    # the largest double: DomainError).
    mpmath = pytest.importorskip("mpmath")
    for t in _log_points(1e-100, _MAX, 800) + [1 / 16, math.nextafter(1 / 16, 1.0), 1e-3, 1e-8]:
        try:
            theta = bounds.aux_theta(t)
        except DomainError:
            assert t > 2.6e231, t
            continue
        assert theta <= 0.0, t
        # t - log1p(t) ~ t^2/2 and theta ~ t^4/36 cancel 3 log10(1/t) digits.
        with mpmath.workdps(30 + 3 * abs(math.ceil(math.log10(t)))):
            m = mpmath.mpf(t)
            truth = m - mpmath.log1p(m) - m * m / (2 * (m + 1) ** (mpmath.mpf(2) / 3))
            if 2.2250738585072014e-308 <= -truth <= _MAX:
                assert theta < 0.0, t
                tol = 4e-16 if t <= 1.0 / 16.0 else 1e-11
                assert abs(theta - truth) <= tol * -truth, t


def test_aux_p_large_x_series_branch():
    # P is smooth across x = 16 and stays < 0
    direct = bounds.aux_big_p(15.999999)
    series = bounds.aux_big_p(16.000001)
    assert series == pytest.approx(direct, rel=1e-6)
    assert bounds.aux_big_p(1e6) < 0.0
    assert bounds.aux_big_p(1e6) == pytest.approx(-1.0 / (120.0 * 1e30), rel=1e-3)
