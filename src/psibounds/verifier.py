"""Grid sweeps certifying inequalities, monotonicity, signs and limits.

A sweep evaluates the oracle target and the closed-form bounds at every grid
point and certifies strictness only when the margin clears a noise floor of

    10 * (oracle error radius + 4 ulps of the bound value)

so a "pass" means the inequality genuinely holds beyond working-precision
noise, not just that two rounded numbers happened to order correctly.  The
gamma families are swept in log space (their targets overflow doubles from
x ~ 170), which the report records in its ``scale`` field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import bounds, oracle, specfun
from .bounds import BoundFamily, Interval
from .errors import DomainError, UndecidedComparisonError

STRICTNESS_FACTOR = 10.0
BOUND_ULPS = 4.0
#: Forward differences within this many ulps of the larger neighbour are
#: treated as undecidable rather than as evidence either way.
NOISE_ULPS = 8.0


@dataclass(frozen=True)
class GridSpec:
    """A sweep grid: [x_min, x_max] with `points` abscissae, linear or log."""

    x_min: float
    x_max: float
    points: int = 500
    spacing: str = "log"

    def __post_init__(self) -> None:
        if not (0.0 < self.x_min < self.x_max) or not math.isfinite(self.x_max):
            raise DomainError(
                f"need 0 < x_min < x_max, got [{self.x_min!r}, {self.x_max!r}]"
            )
        if self.points < 2:
            raise DomainError(f"need at least 2 points, got {self.points!r}")
        if self.spacing not in ("linear", "log"):
            raise DomainError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")

    def abscissae(self) -> list[float]:
        n = self.points
        if self.spacing == "linear":
            step = (self.x_max - self.x_min) / (n - 1)
            xs = [self.x_min + i * step for i in range(n)]
        else:
            lo, hi = math.log(self.x_min), math.log(self.x_max)
            step = (hi - lo) / (n - 1)
            xs = [math.exp(lo + i * step) for i in range(n)]
        xs[0], xs[-1] = self.x_min, self.x_max
        for a, b in zip(xs, xs[1:]):
            if not a < b:
                raise DomainError("grid abscissae failed to increase strictly")
        return xs


@dataclass(frozen=True)
class PointRecord:
    """Per-abscissa verdict of a sweep."""

    x: float
    target: oracle.ErrorBoundedValue
    interval: Interval
    lower_margin: float
    upper_margin: float
    lower_threshold: float
    upper_threshold: float
    passed: bool

    @property
    def rel_lower_margin(self) -> float:
        return self.lower_margin / max(abs(self.target.value), 1e-300)

    @property
    def rel_upper_margin(self) -> float:
        return self.upper_margin / max(abs(self.target.value), 1e-300)


@dataclass(frozen=True)
class InequalityReport:
    """All records of one family sweep plus the pass/fail summary."""

    family: BoundFamily
    grid: GridSpec
    scale: str  # 'abs' (gap), 'ratio' (Stirling) or 'log' (gamma)
    records: list[PointRecord] = field(repr=False)
    notes: tuple[str, ...] = ()

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.records)

    def summary(self) -> dict:
        worst = min(self.records, key=lambda r: min(r.lower_margin, r.upper_margin))
        return {
            "all_pass": self.all_pass,
            "min_margin": min(worst.lower_margin, worst.upper_margin),
            "argmin_x": worst.x,
            "points": len(self.records),
            "failures": sum(not r.passed for r in self.records),
        }


@dataclass(frozen=True)
class ComparisonRow:
    """Per-abscissa gap metric for several families sharing one target."""

    x: float
    gap_by_family: dict[BoundFamily, float]


def _log_gamma_plus_one(x: float) -> oracle.ErrorBoundedValue:
    # log Gamma at the rounded s = x + 1, charged for e = (x + 1) - s exactly:
    # the two differ by |psi(y) e| for some y between them, so y < s + 1, and
    # -gamma < psi(y) < log y for y > 1 (gamma < 0.5773).
    s = x + 1.0
    out = oracle.ref_log_gamma(s, math.inf)
    e = specfun._add_error(x, 1.0, s)
    if e == 0.0:
        return out
    return oracle.ErrorBoundedValue(out.value, math.nextafter(
        out.error_radius + abs(e) * max(0.5773, math.log(s + 1.0)), math.inf))


#: One row per target quantity: (oracle value at x, the family's interval at
#: x, report scale, notes).  A sweep takes each oracle radius as it is,
#: at eps = inf, and only the strictness rule judges it.  The entries look
#: their functions up at call time, so a patched module attribute sees every
#: call.
_TARGET_ROWS = {
    "gap": (lambda x: oracle.ref_digamma_gap(x, math.inf),
            lambda x, f: bounds.digamma_gap_bounds(x, f), "abs", ()),
    "ratio": (lambda x: oracle.ref_stirling_target(x, math.inf),
              lambda x, f: bounds.stirling_ratio_bounds(x, f), "ratio", ()),
    "gamma": (lambda x: _log_gamma_plus_one(x),
              lambda x, f: bounds.gamma_bounds_log(x, f), "log",
              ("target and bounds reported on the log scale: "
               "Gamma(x+1) overflows doubles for x beyond ~170",)),
}


def sweep(grid: GridSpec, family: BoundFamily) -> InequalityReport:
    """Certify one family over a grid; every abscissa must be in-domain."""
    if grid.x_min < family.domain_min:
        raise DomainError(
            f"grid starts at {grid.x_min!r} but {family.value} requires "
            f"x >= {family.domain_min}"
        )
    target_at, interval_at, scale, notes = _TARGET_ROWS[family.target]
    records = []
    for x in grid.abscissae():
        target = target_at(x)
        interval = interval_at(x, family)
        lower_margin = target.value - interval.lower
        upper_margin = interval.upper - target.value
        lo_thr = STRICTNESS_FACTOR * (
            target.error_radius + BOUND_ULPS * math.ulp(abs(interval.lower))
        )
        up_thr = STRICTNESS_FACTOR * (
            target.error_radius + BOUND_ULPS * math.ulp(abs(interval.upper))
        )
        records.append(
            PointRecord(
                x=x,
                target=target,
                interval=interval,
                lower_margin=lower_margin,
                upper_margin=upper_margin,
                lower_threshold=lo_thr,
                upper_threshold=up_thr,
                passed=(lower_margin > lo_thr and upper_margin > up_thr),
            )
        )
    return InequalityReport(family=family, grid=grid, scale=scale,
                            records=records, notes=notes)


#: What ``compare`` reports of each sweep record, by side.
_COMPARE_SIDES = {"lower": lambda r: abs(r.lower_margin), "upper": lambda r: abs(r.upper_margin),
                  "width": lambda r: r.interval.width}


def compare(grid: GridSpec, families: list[BoundFamily], side: str) -> list[ComparisonRow]:
    """Per-family gap metrics from one sweep per family; no direction is asserted.

    The families are at least two distinct ones bounding one target.
    side='width' reports upper - lower; side='lower'/'upper' reports the
    distance |bound - target| of that side from the oracle target.
    """
    if side not in _COMPARE_SIDES:
        raise DomainError(f"side must be lower/upper/width, got {side!r}")
    if len(families) < 2 or len(set(families)) < len(families):
        raise DomainError("compare needs at least two distinct families, got "
                          + ",".join(f.value for f in families))
    kinds = {f.target for f in families}
    if len(kinds) > 1:
        raise DomainError(
            "families bound different targets: "
            + ", ".join(f"{f.value}->{f.target}" for f in families)
        )
    gap = _COMPARE_SIDES[side]
    # The latest domain start first, so an out-of-domain grid fails before any sweep.
    swept = {f: sweep(grid, f).records for f in sorted(families, key=lambda f: -f.domain_min)}
    return [ComparisonRow(x=records[0].x,
                          gap_by_family={f: gap(r) for f, r in zip(families, records)})
            for records in zip(*(swept[f] for f in families))]


# -- monotonicity / sign / limit checks ---------------------------------------


def monotonicity_check(fn_name: str, grid: GridSpec, expected: str) -> bool:
    """True iff consecutive forward differences all have the expected strict
    sign beyond the working-precision noise floor.

    A difference inside the noise floor raises UndecidedComparisonError.
    """
    if expected not in ("increasing", "decreasing"):
        raise DomainError(f"expected must be increasing/decreasing, got {expected!r}")
    fn = bounds.FUNCTIONS[fn_name]
    xs = grid.abscissae()
    want_positive = expected == "increasing"
    values = [fn(x) for x in xs]
    for (xa, a), (xb, b) in zip(zip(xs, values), zip(xs[1:], values[1:])):
        floor = NOISE_ULPS * math.ulp(max(abs(a), abs(b)))
        diff = b - a
        if abs(diff) <= floor:
            raise UndecidedComparisonError(
                f"{fn_name} difference at x in [{xa!r}, {xb!r}] is {diff!r}, "
                f"inside the {floor!r} noise floor"
            )
        if (diff > 0.0) != want_positive:
            return False
    return True


def sign_check(fn_name: str, grid: GridSpec, expected: str) -> bool:
    """True iff the named function has the expected strict sign on the grid."""
    if expected not in ("positive", "negative"):
        raise DomainError(f"expected must be positive/negative, got {expected!r}")
    fn = bounds.FUNCTIONS[fn_name]
    want_positive = expected == "positive"
    for x in grid.abscissae():
        v = fn(x)
        if v == 0.0 or (v > 0.0) != want_positive:
            return False
    return True


LIMIT_PROBE_SCHEDULE = (1e2, 1e3, 1e4)

_LIMITS = {
    # name: (observable, expected limit)
    "beta_offset": (lambda x: bounds.beta(x) - x, 1.0 / 3.0),
    "delta_offset": (lambda x: bounds.delta_star(x) - x, 1.0 / 3.0),
    "f_limit": (bounds.aux_f, 1.0 / 3.0),
    "tau_limit": (lambda k: bounds.tau(int(k), 1.0) - 1.0, -2.0 / 3.0),
    "stirling_limit": (specfun.stirling_ratio, 1.0),
    "gap_leading": (lambda x: x * specfun.digamma_gap(x), 0.5),
}


def limit_check(name: str, probe: float) -> tuple[float, float, bool]:
    """(observed, expected, pass) for a named asymptotic limit at one probe.

    The tolerance schedule is 1/probe: 1e-3 at probe 1e3, and so on.
    """
    try:
        observe, expected = _LIMITS[name]
    except KeyError:
        raise KeyError(f"unknown limit {name!r}; choose from {sorted(_LIMITS)}") from None
    observed = observe(probe)
    return observed, expected, abs(observed - expected) < 1.0 / probe


def limit_schedule_check(name: str) -> bool:
    """Run the fixed probe schedule; require passes and monotone improvement."""
    errors = []
    for probe in LIMIT_PROBE_SCHEDULE:
        observed, expected, ok = limit_check(name, probe)
        if not ok:
            return False
        errors.append(abs(observed - expected))
    return all(b < a for a, b in zip(errors, errors[1:]))


def identity_check(grid: GridSpec) -> bool:
    """Recurrence identities plus the 100-term tau-series enclosure at every abscissa.

    Each recurrence a - b - c = 0 holds where |a - b - c| is within 1e-10 of
    max(1, |a|, |b|, |c|): relative where its terms are large, as psi' near 0.
    """
    for x in grid.abscissae():
        for a, b, c in ((specfun.digamma(x + 1.0), specfun.digamma(x), 1.0 / x),
                        (specfun.trigamma(x + 1.0), specfun.trigamma(x), -1.0 / (x * x)),
                        (specfun.log_gamma(x + 1.0), specfun.log_gamma(x), math.log(x))):
            if abs(a - b - c) > 1e-10 * max(1.0, abs(a), abs(b), abs(c)):
                return False
        gap = oracle.ref_digamma_gap(x, math.inf)
        iv = bounds.gap_via_tau_series(x, 100)
        if not (iv.lower <= gap.lower and gap.upper <= iv.upper):
            return False
    return True


def aux_property_report(grid: GridSpec) -> dict:
    """Sign and monotonicity verdicts for every proof auxiliary, with notes.

    The ``p`` entry carries a sign-convention note: p(0) = 0 and p' < 0 force
    p < 0 on (0, inf), so the negative direction is the one certified here
    even though the opposite inequality is sometimes quoted.
    """
    verdicts = {}
    specs = {
        "f": ("increasing", "positive"),
        "H": ("decreasing", "positive"),
        "P": ("increasing", "negative"),
        "p": ("decreasing", "negative"),
        "theta": (None, "negative"),
    }
    for name, (direction, sign) in specs.items():
        entry = {"sign_expected": sign, "sign_ok": sign_check(name, grid, sign)}
        if direction is not None:
            entry["monotonicity_expected"] = direction
            entry["monotonicity_ok"] = monotonicity_check(name, grid, direction)
        if name == "f":
            entry["below_one_third"] = all(
                0.0 < bounds.aux_f(x) < 1.0 / 3.0 for x in grid.abscissae()
            )
        if name == "p":
            entry["note"] = (
                "sign convention: p(0)=0 with p strictly decreasing forces "
                "p<0 on (0,inf); the opposite printed direction is a typo"
            )
        verdicts[name] = entry
    return verdicts
