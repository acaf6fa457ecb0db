"""psibounds benchmark: three seeded closed-loop workloads, one caller each.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Workloads (see README.md for why each exists and what it should move):

* ``certify``     -- ``psibounds verify --format json`` for all 12 families
                     on the criterion-1 grids, oracle caches cleared per pass;
* ``pointwise``   -- specfun and family-interval calls at seeded x;
* ``oracle_cold`` -- the six ``oracle.ref_*`` with caches cleared per call.

``--trace 0`` times the workload with nothing wrapped and prints the
end-to-end metrics; ``--trace 1`` runs a fixed op list twice, plain and
under :class:`tracer.Tracer`, checks that both give identical outputs and
prints the per-layer metrics.  Every output is checked against 50-digit
mpmath references computed outside the timed region.  The last stdout line
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Run from the repository root; the package is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

WORKLOADS = ("certify", "pointwise", "oracle_cold")
#: The default seed; README.md names the held-out one.
DEFAULT_SEED = 1

# -- certify: the criterion-1 set --------------------------------------------
CERTIFY_POINTS = 500
CERTIFY_XMAX = 1e4
#: Grid points per family whose oracle target and verdict are spot-checked.
SPOT_PER_FAMILY = 100
#: Points each family certified at the parent of the benchmark (5762 in all);
#: the rest certified all CERTIFY_POINTS.  A pass that certifies fewer
#: counts the missing points as failed ops, so that speed cannot be bought
#: by certifying less.
CERTIFIED_AT_PARENT = {"eq6": 337, "eq9r2": 425}

# -- pointwise and oracle_cold: a pool of stratified inputs, run in passes ----
SPECFUN_KINDS = ("digamma_gap", "binet_mu", "digamma", "trigamma", "log_gamma",
                 "stirling_ratio", "polygamma2")
SPECFUN_RANGE = (1e-3, 1e6)
#: Family intervals are timed where every family is a true binary64
#: enclosure at the parent code (eq6 fails from x ~ 1.9e3, eq9r2 from
#: ~2.9e3, eq9r1 from ~6e4).  Above it, and over all positive doubles, the
#: seeded audit measures the defects instead.
FAMILY_RANGE = (1e-3, 1e3)
ORACLE_KINDS = ("ref_digamma_gap", "ref_binet_mu", "ref_stirling_target",
                "ref_digamma", "ref_trigamma", "ref_log_gamma")
ORACLE_TARGETS = {"ref_digamma_gap": "digamma_gap", "ref_binet_mu": "binet_mu",
                  "ref_stirling_target": "stirling_target",
                  "ref_digamma": "digamma", "ref_trigamma": "trigamma",
                  "ref_log_gamma": "log_gamma"}
ORACLE_RANGE = (1e-3, 1e6)
#: Pool size per kind: one x in each of this many equal log-width bins.  A
#: pool holds over 1000 ops, so that p99 has ten samples beyond it.
PER_KIND = {"pointwise": 106, "oracle_cold": 334}
#: Passes over the pool: at least this many, more while the run lasts.
MIN_PASSES = 3
#: The gated timings are in "ref" units: one run of reference_kernel(),
#: timed next to the ops it scales.  Other tenants of a shared machine change
#: its speed by 15-30% over seconds to minutes; they slow the kernel and the
#: library alike, so the ratio holds still where raw seconds do not.
REF_TERMS = 1500
#: Ops between two kernel samples; each sample is the best of REF_REPEATS.
REF_EVERY, REF_REPEATS = 40, 3
#: Audit draws per kind: log-uniform over all positive doubles, and per
#: family over its desk range above FAMILY_RANGE.
AUDIT_PER_KIND = 4
AUDIT_RANGE = (5e-324, 1.7976931348623157e308)
AUDIT_FAMILY_RANGE = (1e3, 1e6)

#: Set-up samples: some before the workload, one per gap between passes,
#: and the rest after it, all outside the op timing.  A sample taken between
#: op chunks made the next chunk's timing noisier.
SETUP_FIRST, SETUP_SAMPLES = 5, 15
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import psibounds; from psibounds import cli; cli.build_parser()")
#: setup_s is given in seconds of a machine on which a bare ``python3 -c
#: pass`` starts in BARE_START_S.  On a shared machine every process start
#: slows and speeds together by up to 1.8x over minutes; the ratio of a
#: set-up start to a bare start right after it holds still.
BARE_START_S = 0.05

# -- package ------------------------------------------------------------------

def load_package() -> dict:
    """Import psibounds from ``src/`` of this checkout, or exit non-zero."""
    if not (SRC / "psibounds" / "__init__.py").is_file():
        sys.exit(f"perfbench: no psibounds sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import psibounds
    from psibounds import bounds, cli, kernels, oracle, specfun, tails, verifier
    if Path(psibounds.__file__).resolve().parent != SRC / "psibounds":
        sys.exit(f"perfbench: imported psibounds from {psibounds.__file__}, "
                 f"not from {SRC}")
    return {"cli": cli, "verifier": verifier, "bounds": bounds,
            "specfun": specfun, "oracle": oracle, "tails": tails,
            "kernels": kernels}


class SetupTimer:
    """Wall time of a fresh interpreter importing psibounds and building the
    CLI parser, over that of a bare interpreter started right after it (see
    BARE_START_S).  An untimed first start writes the bytecode caches."""

    def __init__(self):
        self.cmd = [sys.executable, "-c", SETUP_CODE, str(SRC)]
        self.bare = [sys.executable, "-c", "pass"]
        self.samples: list[float] = []   # wall seconds
        self.ratios: list[float] = []
        subprocess.run(self.cmd, check=True, cwd=ROOT)
        for _ in range(SETUP_FIRST):
            self.sample()

    @staticmethod
    def start(cmd) -> float:
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        return time.perf_counter() - t0

    def sample(self) -> None:
        wall = self.start(self.cmd)
        self.samples.append(wall)
        self.ratios.append(wall / self.start(self.bare))

    def between(self) -> None:
        """Called between passes, outside their timing."""
        if len(self.samples) < SETUP_SAMPLES:
            self.sample()

    def median(self) -> float:
        """setup_s: the median ratio, in seconds of BARE_START_S."""
        while len(self.samples) < SETUP_SAMPLES:
            self.sample()
        return BARE_START_S * statistics.median(self.ratios)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- inputs -------------------------------------------------------------------

def stratified_pool(rng, ranges: dict, per_kind: int) -> list[tuple[str, float]]:
    """(kind, x) ops: per kind, one seeded x in each of ``per_kind`` equal
    log-width bins of its range; the order is a seeded shuffle.

    The outermost bins take the range ends themselves, so the costliest call
    (and the peak memory it needs) is the same for every seed.
    """
    ops = []
    for kind, (lo, hi) in ranges.items():
        u = (np.arange(per_kind) + rng.random(per_kind)) / per_kind
        u[0], u[-1] = 0.0, 1.0
        xs = np.clip(np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))), lo, hi)
        ops.extend((kind, float(x)) for x in xs)
    return [ops[j] for j in rng.permutation(len(ops))]


def log_uniform(rng, lo: float, hi: float, n: int) -> list[float]:
    """n stratified log-uniform draws; computed in log2 so that the
    subnormal end of the double range is reachable."""
    a, b = math.log2(lo), math.log2(hi)
    u = (np.arange(n) + rng.random(n)) / n
    return [min(max(float(2.0 ** (a + (b - a) * v)), lo), hi) for v in u]


def audit_ops(rng, families) -> list[tuple[str, float]]:
    ops = []
    for kind in SPECFUN_KINDS + tuple(families):
        ops.extend((kind, x) for x in log_uniform(rng, *AUDIT_RANGE, AUDIT_PER_KIND))
    for kind in families:
        ops.extend((kind, x) for x in log_uniform(rng, *AUDIT_FAMILY_RANGE, AUDIT_PER_KIND))
    return ops


# -- op callables ---------------------------------------------------------------
# Each callable looks its function up on the module at call time, so the
# tracer's wrappers are seen once installed.

def pointwise_calls(pkg) -> dict:
    specfun, bounds = pkg["specfun"], pkg["bounds"]
    calls = {
        "digamma_gap": lambda x: specfun.digamma_gap(x),
        "binet_mu": lambda x: specfun.binet_mu(x),
        "digamma": lambda x: specfun.digamma(x),
        "trigamma": lambda x: specfun.trigamma(x),
        "log_gamma": lambda x: specfun.log_gamma(x),
        "stirling_ratio": lambda x: specfun.stirling_ratio(x),
        "polygamma2": lambda x: specfun.polygamma(2, x),
    }
    evaluator = {"gap": "digamma_gap_bounds", "ratio": "stirling_ratio_bounds",
                 "gamma": "gamma_bounds_log"}
    for fam in bounds.BoundFamily:
        def interval(x, fam=fam, name=evaluator[fam.target]):
            iv = getattr(bounds, name)(x, fam)
            return (iv.lower, iv.upper)
        calls[fam.value] = interval
    return calls


def oracle_calls(pkg) -> dict:
    oracle = pkg["oracle"]

    def call(name):
        def run(x):
            r = getattr(oracle, name)(x)
            return (r.value, r.error_radius)
        return run
    return {name: call(name) for name in ORACLE_KINDS}


def reference_kernel() -> float:
    """A fixed pure-Python series sum in the style of the library's loops.

    It never calls psibounds, so no change to the library moves it.
    """
    terms = []
    for j in range(REF_TERMS):
        u = 1.0 / (3.7 + j)
        terms.append(u - math.log1p(u))
    return math.fsum(terms)


def ref_seconds() -> float:
    """The kernel's duration now: the best of REF_REPEATS runs."""
    best = math.inf
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def run_ops(calls, ops, before=None):
    """Run ``ops`` in order; returns (outputs, per-op seconds).

    An exception is an output too: its class name, as a str.
    """
    clock = time.perf_counter
    outs, lat = [], []
    for kind, x in ops:
        fn = calls[kind]
        if before is not None:
            before()
        t0 = clock()
        try:
            out = fn(x)
        except Exception as exc:  # every exception is classified later
            out = type(exc).__name__
        lat.append(clock() - t0)
        outs.append(out)
    return outs, lat


def run_scaled(calls, ops, before=None):
    """run_ops in chunks of REF_EVERY, with a kernel sample around each.

    Returns (outputs, per-op seconds, per-op refs): a chunk's seconds over
    the mean of the samples before and after it.
    """
    outs, lat, refs = [], [], []
    ref_before = ref_seconds()
    for i in range(0, len(ops), REF_EVERY):
        o, l = run_ops(calls, ops[i:i + REF_EVERY], before)
        ref_after = ref_seconds()
        scale = 2.0 / (ref_before + ref_after)
        outs.extend(o)
        lat.extend(l)
        refs.extend(t * scale for t in l)
        ref_before = ref_after
    return outs, lat, refs


def run_passes(calls, ops, seconds: float, before, between):
    """Passes over ``ops`` until ``seconds`` have been measured, at least
    MIN_PASSES.  Returns run_scaled's triple for each pass."""
    passes, measured = [], 0.0
    while len(passes) < MIN_PASSES or measured < seconds:
        passes.append(run_scaled(calls, ops, before))
        measured += sum(passes[-1][1])
        between()
    return passes


# -- checking -----------------------------------------------------------------

class Checker:
    """Classifies outputs as ok / refused / failed against mpmath references."""

    def __init__(self, families):
        import reference
        self.ref = reference
        self.family_target = {f.value: reference.FAMILY_TARGET[f.target]
                              for f in families}
        self._cache: dict = {}
        self.outcomes: Counter = Counter()   # ok / refused / failed
        self.reasons: Counter = Counter()    # (function, reason) for the rest
        self.err_ulps: list[float] = []

    def reference(self, target: str, x: float):
        key = (target, x)
        if key not in self._cache:
            self._cache[key] = self.ref.reference(target, x)
        return self._cache[key]

    def record(self, kind: str, reason: str | None, refused: bool = False) -> None:
        if reason is None:
            self.outcomes["ok"] += 1
            return
        self.outcomes["refused" if refused else "failed"] += 1
        self.reasons[(kind, reason)] += 1

    def check(self, kind: str, x: float, out) -> None:
        """One pointwise or oracle_cold op."""
        if isinstance(out, str):
            self.record(kind, out, refused=out in self.ref.REFUSALS)
            return
        if kind in self.family_target:
            ref = self.reference(self.family_target[kind], x)
            self.record(kind, self.ref.check_interval(out[0], out[1], ref))
            return
        if kind in ORACLE_TARGETS:
            target = ORACLE_TARGETS[kind]
            ref = self.reference(target, x)
            reason = self.ref.check_radius(out[0], out[1], ref)
            value = out[0]
        else:
            target = kind
            ref = self.reference(target, x)
            reason = self.ref.check_value(out, target, ref)
            value = out
        self.record(kind, reason)
        if reason is None and math.isfinite(value):
            self.err_ulps.append(self.ref.ulps(value, target, ref))

    @property
    def attempted(self) -> int:
        return sum(self.outcomes.values())


def quantile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), 100.0 * q))


# -- certify --------------------------------------------------------------------

def certify_grids(pkg):
    fams = pkg["bounds"].BoundFamily
    return [(f.value, max(1e-3, f.domain_min), CERTIFY_XMAX) for f in fams]


def certify_pass(pkg, outdir: Path, scaled: bool = False):
    """One certification job: caches cleared once, then every family.

    Returns (job seconds, per-family seconds, per-family refs, exit codes,
    output bytes).  With ``scaled``, a kernel sample before and after each
    family gives its refs (see REF_TERMS); the samples are outside the job
    time but do not touch the oracle caches.
    """
    cli, oracle = pkg["cli"], pkg["oracle"]
    outdir.mkdir(parents=True, exist_ok=True)
    paths, codes, fam_s, fam_ref = [], [], [], []
    ref_before = ref_seconds() if scaled else 1.0
    job_s = 0.0
    t0 = time.perf_counter()
    oracle.clear_caches()
    for fam, lo, hi in certify_grids(pkg):
        path = outdir / f"{fam}.json"
        codes.append(cli.main([
            "verify", "--family", fam, "--xmin", repr(lo), "--xmax", repr(hi),
            "--points", str(CERTIFY_POINTS), "--scale", "log",
            "--format", "json", "--output", str(path)]))
        elapsed = time.perf_counter() - t0
        ref_after = ref_seconds() if scaled else 1.0
        fam_s.append(elapsed)
        fam_ref.append(elapsed * 2.0 / (ref_before + ref_after))
        job_s += elapsed
        paths.append(path)
        ref_before = ref_after
        t0 = time.perf_counter()
    return job_s, fam_s, fam_ref, codes, [p.read_bytes() for p in paths]


def check_certify(pkg, rng, codes, blobs, checker: Checker) -> dict:
    """Check one pass's reports; returns the certified points per family.

    Every report must parse, hold CERTIFY_POINTS rows and carry the exit
    code its verdicts imply.  At SPOT_PER_FAMILY seeded points the oracle
    target must lie within its radius of the mpmath value, and a certified
    point's interval must enclose the exact target.  Each point a family
    certifies below CERTIFIED_AT_PARENT is a failed op.
    """
    certified = {}
    for (fam, _, _), code, blob in zip(certify_grids(pkg), codes, blobs):
        rows = json.loads(blob)["rows"]
        passed = sum(bool(r["pass"]) for r in rows)
        certified[fam] = passed
        floor = CERTIFIED_AT_PARENT.get(fam, CERTIFY_POINTS)
        short = max(0, floor - passed)
        expected = 0 if passed == len(rows) else 1
        if len(rows) != CERTIFY_POINTS or code != expected:
            checker.outcomes["failed"] += CERTIFY_POINTS
            checker.reasons[(fam, f"exit {code}, {len(rows)} rows")] += CERTIFY_POINTS
            continue
        spot = set(rng.choice(len(rows), SPOT_PER_FAMILY, replace=False).tolist())
        target = checker.family_target[fam]
        for i, row in enumerate(rows):
            reason = None
            if i in spot:
                x = row["x"]
                # The verifier evaluates log Gamma at the double x + 1.0.
                if target == "gamma":
                    oracle_target, oracle_ref = "log_gamma", checker.reference("log_gamma", x + 1.0)
                else:
                    oracle_target, oracle_ref = target, checker.reference(target, x)
                reason = checker.ref.check_radius(row["target"], row["target_radius"], oracle_ref)
                if reason is None and row["pass"]:
                    reason = checker.ref.check_interval(
                        row["lower"], row["upper"], checker.reference(target, x))
                if reason is None:
                    checker.err_ulps.append(
                        checker.ref.ulps(row["target"], oracle_target, oracle_ref))
            if reason is None and short and not row["pass"]:
                reason = f"certified {passed} < {floor} at parent"
                short -= 1
            checker.record(fam, reason)
    return certified


def workload_certify(pkg, args, rng, setup) -> dict:
    outdir = WORK / f"certify-{os.getpid()}"
    try:
        if args.trace:
            job_s, _, _, codes, blobs = certify_pass(pkg, outdir / "plain")
            import tracer
            tr = tracer.Tracer(pkg)
            with tr:
                traced_s, _, _, t_codes, t_blobs = certify_pass(pkg, outdir / "traced")
            # After the pass, before anything clears them.
            infos = [getattr(pkg["oracle"], n).cache_info() for n in ORACLE_KINDS]
            same = codes == t_codes and blobs == t_blobs
            checker = Checker(pkg["bounds"].BoundFamily)
            certified = sum(check_certify(pkg, rng, codes, blobs, checker).values())
            cache = {"hits": sum(i.hits for i in infos),
                     "misses": sum(i.misses for i in infos),
                     "entries": sum(i.currsize for i in infos)}
            extra = {"verifier.certified_points": certified,
                     "cli.bytes_out": sum(len(b) for b in t_blobs)}
            return traced_result(tr, checker, same, traced_s - job_s, cache, extra)

        passes = []
        job_total = 0.0
        while len(passes) < MIN_PASSES or job_total < args.seconds:
            passes.append(certify_pass(pkg, outdir, scaled=True))
            job_total += passes[-1][0]
            setup.between()
        rss = peak_rss_mb()
        checker = Checker(pkg["bounds"].BoundFamily)
        codes, blobs = passes[0][3], passes[0][4]
        certified = check_certify(pkg, rng, codes, blobs, checker)
        if any(p[3] != codes or p[4] != blobs for p in passes):
            checker.outcomes["failed"] += 1
            checker.reasons[("certify", "passes differ")] += 1
        # A family's cost per grid point stands for every point of its grid.
        def per_point(index):
            fam = np.median([p[index] for p in passes], axis=0)
            return np.repeat(fam / CERTIFY_POINTS, CERTIFY_POINTS)
        report = {"certified_points": sum(certified.values()),
                  "certified_by_family": certified, "passes": len(passes)}
        return plain_result(checker, per_point(1), per_point(2), rss, setup, report)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


# -- pointwise and oracle_cold ----------------------------------------------------

def op_inputs(pkg, workload: str, rng):
    fams = pkg["bounds"].BoundFamily
    if workload == "pointwise":
        ranges = {k: SPECFUN_RANGE for k in SPECFUN_KINDS}
        for f in fams:
            ranges[f.value] = (max(FAMILY_RANGE[0], f.domain_min), FAMILY_RANGE[1])
    else:
        ranges = {k: ORACLE_RANGE for k in ORACLE_KINDS}
    pool = stratified_pool(rng, ranges, PER_KIND[workload])
    audit = audit_ops(rng, [f.value for f in fams]) if workload == "pointwise" else []
    return pool, audit


def workload_ops(pkg, args, rng, workload: str, setup) -> dict:
    ops, audit = op_inputs(pkg, workload, rng)
    if workload == "pointwise":
        calls, before = pointwise_calls(pkg), None
    else:
        calls, before = oracle_calls(pkg), pkg["oracle"].clear_caches
    families = pkg["bounds"].BoundFamily

    if args.trace:
        t0 = time.perf_counter()
        outs, _ = run_ops(calls, ops, before)
        audit_outs, _ = run_ops(calls, audit)
        plain_s = time.perf_counter() - t0
        import tracer
        tr = tracer.Tracer(pkg)
        cache = Counter()
        refs = [getattr(pkg["oracle"], n) for n in ORACLE_KINDS]

        def traced_before():
            # cache_clear() resets the statistics: bank them first.
            infos = [fn.cache_info() for fn in refs]
            cache["hits"] += sum(i.hits for i in infos)
            cache["misses"] += sum(i.misses for i in infos)
            cache["entries"] = max(cache["entries"], sum(i.currsize for i in infos))
            before()

        if before:
            before()  # the plain run's last op left its entries behind
        with tr:
            t0 = time.perf_counter()
            t_outs, _ = run_ops(calls, ops, traced_before if before else None)
            t_audit, _ = run_ops(calls, audit)
            traced_s = time.perf_counter() - t0
            if before:
                traced_before()
        same = [repr(o) for o in outs + audit_outs] == [repr(o) for o in t_outs + t_audit]
        checker = Checker(families)
        for (kind, x), out in zip(ops, outs):
            checker.check(kind, x, out)
        audit_checker = Checker(families)
        for (kind, x), out in zip(audit, audit_outs):
            audit_checker.check(kind, x, out)
        extra = {"verifier.certified_points": 0, "cli.bytes_out": 0}
        extra.update(audit_metrics(audit_checker))
        return traced_result(tr, checker, same, traced_s - plain_s, cache, extra)

    passes = run_passes(calls, ops, args.seconds, before, setup.between)
    rss = peak_rss_mb()
    audit_outs, _ = run_ops(calls, audit)
    outs = passes[0][0]
    checker = Checker(families)
    for (kind, x), out in zip(ops, outs):
        checker.check(kind, x, out)
    if any([repr(o) for o in p[0]] != [repr(o) for o in outs] for p in passes[1:]):
        checker.outcomes["failed"] += 1
        checker.reasons[(workload, "passes differ")] += 1
    audit_checker = Checker(families)
    for (kind, x), out in zip(audit, audit_outs):
        audit_checker.check(kind, x, out)
    report = {"ops_in_pool": len(ops), "passes": len(passes)}
    if audit:
        report["audit"] = describe(audit_checker)
    return plain_result(checker, np.median([p[1] for p in passes], axis=0),
                        np.median([p[2] for p in passes], axis=0), rss, setup, report)


def audit_metrics(checker: Checker) -> dict:
    return {"audit.attempted": checker.attempted,
            "audit.refused": checker.outcomes["refused"],
            "audit.failed": checker.outcomes["failed"]}


def describe(checker: Checker) -> dict:
    return {"attempted": checker.attempted, **{k: checker.outcomes[k] for k in
                                               ("ok", "refused", "failed")},
            "by_function": {f"{k} {r}": n for (k, r), n in sorted(checker.reasons.items())}}


# -- results --------------------------------------------------------------------

def plain_result(checker: Checker, seconds, refs, rss: float, setup: SetupTimer,
                 report: dict) -> dict:
    """``seconds`` and ``refs``: each op's median over passes."""
    err = checker.err_ulps
    metrics = {
        "setup_s": setup.median(),
        "ops_per_kref": 1000.0 * len(refs) / float(np.sum(refs)),
        "op_ref_p50": quantile(refs, 0.50),
        "op_ref_p99": quantile(refs, 0.99),
        "peak_rss_mb": rss,
    }
    report = {**report, **describe(checker),
              "seconds": {"ops_per_s": len(seconds) / float(np.sum(seconds)),
                          "op_us_p50": 1e6 * quantile(seconds, 0.50),
                          "op_us_p99": 1e6 * quantile(seconds, 0.99)},
              "err_ulps": {"n": len(err), "p50": quantile(err, 0.50),
                           "p99": quantile(err, 0.99), "max": max(err)},
              "failed_frac": checker.outcomes["failed"] / checker.attempted,
              "setup_wall_s": statistics.median(setup.samples),
              "setup_samples_s": [round(t, 4) for t in setup.samples],
              "setup_ratios": [round(r, 3) for r in setup.ratios]}
    return {"checker": checker, "metrics": metrics, "report": report}


def traced_result(tr, checker: Checker, same: bool, overhead_s: float,
                  cache: dict, extra: dict) -> dict:
    if not same:
        checker.outcomes["failed"] += 1
        checker.reasons[("trace", "traced outputs differ from untraced")] += 1
    m = tr.layer_metrics()
    for name in ("digamma_gap", "binet_mu", "digamma", "polygamma", "log_gamma"):
        m[f"specfun.{name}.time_s"] = tr.time_s(f"specfun.{name}")
    for name in ("digamma_gap_bounds", "stirling_ratio_bounds", "gamma_bounds_log"):
        m[f"bounds.{name}.time_s"] = tr.time_s(f"bounds.{name}")
    for name in ORACLE_KINDS:
        m[f"oracle.{name}.time_s"] = tr.time_s(f"oracle.{name}")
    m["kernels.kernel_r.calls"] = tr.calls("kernels.kernel_r")
    m["kernels.kernel_w.calls"] = tr.calls("kernels.kernel_w")
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    m["oracle.cache_hits"] = hits
    m["oracle.cache_misses"] = misses
    m["oracle.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["oracle.cache_entries"] = cache.get("entries", 0)
    outer = tr.outer_calls("oracle")
    m["oracle.tolerance_retries"] = tr.raised_by[("oracle", "ToleranceError")]
    m["oracle.useful_ratio"] = (outer - m["oracle.raised"]) / outer if outer else 0.0
    m["tracing_overhead_s"] = overhead_s
    m["ops.attempted"] = checker.attempted
    m["ops.refused"] = checker.outcomes["refused"]
    m["ops.failed_frac"] = checker.outcomes["failed"] / max(checker.attempted, 1)
    m["ops.err_ulps_p99"] = quantile(checker.err_ulps, 0.99) if checker.err_ulps else 0.0
    m["ops.err_ulps_max"] = max(checker.err_ulps, default=0.0)
    m.update({"audit.attempted": 0, "audit.refused": 0, "audit.failed": 0})
    m.update(extra)
    report = {**describe(checker), "traced_equals_untraced": same,
              "raised_by_layer": {f"{l} {e}": n for (l, e), n in sorted(tr.raised_by.items())}}
    return {"checker": checker, "metrics": m, "report": report, "spans": tr.span_dump()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = load_package()
    WORK.mkdir(exist_ok=True)
    setup = None if args.trace else SetupTimer()
    rng = np.random.default_rng(args.seed)
    if args.workload == "certify":
        result = workload_certify(pkg, args, rng, setup)
    else:
        result = workload_ops(pkg, args, rng, args.workload, setup)

    checker, metrics = result["checker"], result["metrics"]
    if args.trace:
        spans = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps(result["spans"]))
    # BENCHMARK.json names the metrics of each mode, in order, with units.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        sys.exit(f"perfbench: metrics {sorted(set(units) ^ set(metrics))} "
                 "differ from BENCHMARK.json")
    metrics = {name: metrics[name] for name in units}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("report " + json.dumps(result["report"]))
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    failed = checker.outcomes["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
