"""50-digit mpmath references and the ok / refused / failed classification.

References are computed outside the timed region.  The working precision is
60 digits plus two per decade of x above 1, because the digamma gap and
Binet's mu are small differences of large terms at large x.
"""

from __future__ import annotations

import math

import mpmath

#: A specfun value passes when |v - ref| <= SPECFUN_TOL_REL * scale, where
#: scale is |ref|, or max(|ref|, 1) for functions with zeros on the range
#: (digamma, log_gamma and the log Gamma(x+1) target).  1e-12 is the accuracy
#: the kernels promise for their direct formulas and the oracle's default eps.
SPECFUN_TOL_REL = 1e-12
#: One subnormal ulp of absolute slack, for results that underflow.
ABS_FLOOR = 2.0**-1074
DBL_MAX = 1.7976931348623157e308

# Targets whose value crosses zero inside the domain; errors are measured in
# ulps of max(|ref|, 1) for these.
FLOOR_ONE = frozenset({"digamma", "log_gamma", "gamma"})

#: Exceptions that are documented refusals; any other one is a failure.
REFUSALS = ("DomainError", "ToleranceError")


def _dps(x: float) -> int:
    return 60 + 2 * max(0, int(math.ceil(math.log10(x))))


def _log_gamma_1p(m):
    # log Gamma(1 + m).  Below 1e-10, m + 1 would need hundreds of digits to
    # be exact; the Taylor series -euler m + sum_k (-m)^k zeta(k) / k is exact
    # to far beyond 50 digits there with eight terms.
    if m < mpmath.mpf("1e-10"):
        return -mpmath.euler * m + mpmath.fsum(
            (-m) ** k * mpmath.zeta(k) / k for k in range(2, 10))
    return mpmath.loggamma(m + 1)


def _mu(m):
    half = mpmath.mpf(1) / 2
    return (mpmath.loggamma(m) - (m - half) * mpmath.log(m) + m
            - mpmath.log(2 * mpmath.pi) / 2)


_TARGETS = {
    "digamma_gap": lambda m: mpmath.log(m) - mpmath.digamma(m),
    "binet_mu": _mu,
    "digamma": mpmath.digamma,
    "trigamma": lambda m: mpmath.psi(1, m),
    "polygamma2": lambda m: mpmath.psi(2, m),
    "log_gamma": mpmath.loggamma,
    "stirling_ratio": lambda m: mpmath.exp(_mu(m)),
    # Gamma(x) / (sqrt(2 pi) x^x e^-x): the exponential families' target.
    "stirling_target": lambda m: mpmath.exp(_mu(m)) / mpmath.sqrt(m),
    "gamma": _log_gamma_1p,
}
# Family target kinds (BoundFamily.target) to reference names.
FAMILY_TARGET = {"gap": "digamma_gap", "ratio": "stirling_target", "gamma": "gamma"}


def reference(target: str, x: float):
    """The exact value of ``target`` at the double ``x``, to 50+ digits."""
    with mpmath.workdps(_dps(x)):
        return +_TARGETS[target](mpmath.mpf(x))


def scale_of(target: str, ref) -> float:
    mag = abs(float(ref))
    return max(mag, 1.0) if target in FLOOR_ONE else mag


def ulps(value: float, target: str, ref) -> float:
    """|value - ref| in ulps of the target's scale."""
    return float(abs(mpmath.mpf(value) - ref)) / math.ulp(scale_of(target, ref))


def check_value(value: float, target: str, ref) -> str | None:
    """None if ``value`` is correct, else the failure reason."""
    if math.isnan(value):
        return "nan"
    if abs(ref) > DBL_MAX:
        # The true value overflows binary64: inf of the right sign is the
        # correctly rounded answer.
        return None if value == math.copysign(math.inf, float(ref)) else "no_overflow"
    if math.isinf(value):
        return "inf"
    err = abs(mpmath.mpf(value) - ref)
    if err > SPECFUN_TOL_REL * scale_of(target, ref) + ABS_FLOOR:
        return "beyond_tolerance"
    return None


def check_interval(lower: float, upper: float, ref) -> str | None:
    """None if lower < ref < upper (nan bounds fail), else the reason."""
    if mpmath.mpf(lower) < ref < mpmath.mpf(upper):
        return None
    return "not_enclosed"


def check_radius(value: float, radius: float, ref) -> str | None:
    """None if the oracle's |value - ref| <= radius, else the reason."""
    if math.isfinite(value) and abs(mpmath.mpf(value) - ref) <= radius:
        return None
    return "beyond_radius"
