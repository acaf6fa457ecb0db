"""Command-line front end: evaluate functions, run sweeps, emit tables.

Exit codes: 0 success / all-pass, 1 verification failure, 2 usage, domain or
output-file error, 3 unknown function or family name.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import re
import sys

from .errors import DomainError

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_UNKNOWN_NAME = 3


def _value_text(value: float, radius: float | None) -> str:
    # The shortest round-trip representation, with the radius beside it if any.
    return repr(value) if radius is None else f"{value!r} ± {radius:.1e}"


def _exp_radius(log_value, exp=math.exp):
    value = exp(log_value.value)
    return value, value * (log_value.error_radius + 2.0 * 2.0**-52)


def _with_radius(r):
    return r.value, r.error_radius


# Names the oracle evaluates with a rigorous radius, at eps = inf as sweeps
# do (the radius is printed); every other name of bounds.FUNCTIONS is printed
# without one.  The lambdas here and below read the layers from the module
# globals that _eval_target binds.
_ORACLE_EVAL = {
    "gamma": lambda x: _exp_radius(oracle.ref_log_gamma(x, math.inf), bounds.gamma_from_log),
    "log_gamma": lambda x: _with_radius(oracle.ref_log_gamma(x, math.inf)),
    "digamma": lambda x: _with_radius(oracle.ref_digamma(x, math.inf)),
    "trigamma": lambda x: _with_radius(oracle.ref_trigamma(x, math.inf)),
    "stirling_ratio": lambda x: _exp_radius(oracle.ref_binet_mu(x, math.inf)),
}

# 'name:<parameter>' forms: (parameter letter, its converter, fn(parameter, x)).
_PARAMETRISED = {
    "polygamma": ("n", int, lambda n, x: specfun.polygamma(n, x)),
    "tau": ("k", int, lambda k, x: bounds.tau(k, x)),
    "g_c": ("c", float, lambda c, x: bounds.g_c(x, c)),
}


def _eval_target(name: str, x: float):
    """Resolve an eval function name to (value, radius-or-None)."""
    global bounds, oracle, specfun
    from . import bounds, specfun
    if name in _ORACLE_EVAL:
        from . import oracle
        return _ORACLE_EVAL[name](x)
    head, colon, param = name.partition(":")
    if colon and head in _PARAMETRISED:
        letter, convert, fn = _PARAMETRISED[head]
        try:
            value = convert(param)
        except ValueError:
            kind = "an integer" if convert is int else "a real"
            raise DomainError(f"{head}:{letter} needs {kind} {letter}, got {param!r}") from None
        return fn(value, x), None
    if name not in bounds.FUNCTIONS:
        raise KeyError(f"unknown function {name!r}; choose from {_eval_names()}")
    return bounds.FUNCTIONS[name](x), None


def _eval_names() -> list[str]:
    """Every name eval takes, as --help and the unknown-name error list them."""
    from .bounds import FUNCTIONS
    return [*FUNCTIONS, *(f"{name}:{letter}" for name, (letter, *_) in _PARAMETRISED.items())]


def cmd_eval(args) -> int:
    print(_value_text(*_eval_target(args.fn, args.x)))
    return EXIT_OK


# Lower grid edge when --xmin is not given, before clipping into the
# families' domain.
_DEFAULT_XMIN = 1e-3


def _grid_from_args(args, families):
    from .verifier import GridSpec
    # Only a *defaulted* lower edge is clipped into the families' domain; an
    # explicit out-of-domain request is an error, not a silent adjustment.
    x_min = args.xmin
    if x_min is None:
        x_min = max([_DEFAULT_XMIN] + [f.domain_min for f in families])
    return GridSpec(x_min=x_min, x_max=args.xmax, points=args.points, spacing=args.scale)


def _report_rows(report) -> list[dict]:
    rows = []
    for r in report.records:
        rows.append(
            {
                "x": r.x,
                "target": r.target.value,
                "target_radius": r.target.error_radius,
                "lower": r.interval.lower,
                "upper": r.interval.upper,
                "lower_margin": r.lower_margin,
                "upper_margin": r.upper_margin,
                "lower_threshold": r.lower_threshold,
                "upper_threshold": r.upper_threshold,
                "rel_lower_margin": r.rel_lower_margin,
                "rel_upper_margin": r.rel_upper_margin,
                "pass": r.passed,
            }
        )
    return rows


def _emit(doc: dict, rows: list[dict], fmt: str, stream) -> None:
    if fmt == "json":
        # A row a line: json.dumps without an indent takes the C encoder.
        import json
        stream.write(f'{json.dumps(doc)[:-1]}, "rows": [\n')
        stream.write(",\n".join(map(json.dumps, rows)))
        stream.write("\n]}\n")
        return
    import csv
    writer = csv.DictWriter(stream, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for row in rows:
        writer.writerow({k: (repr(v) if isinstance(v, float) else v)
                         for k, v in row.items()})


def cmd_verify(args) -> int:
    from dataclasses import asdict
    from . import verifier
    from .bounds import BoundFamily
    family = BoundFamily.parse(args.family)
    grid = _grid_from_args(args, [family])
    report = verifier.sweep(grid, family)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "family": family.value,
        "grid": asdict(grid),
        "scale": report.scale,
        "notes": list(report.notes),
        "summary": report.summary(),
    }
    with _open_out(args) as stream:
        _emit(doc, _report_rows(report), args.format, stream)
    return EXIT_OK if report.all_pass else EXIT_VERIFY_FAILED


def cmd_compare(args) -> int:
    from dataclasses import asdict
    from . import verifier
    from .bounds import BoundFamily
    families = [BoundFamily.parse(tag) for tag in args.families.split(",") if tag]
    grid = _grid_from_args(args, families)
    rows_raw = verifier.compare(grid, families, args.side)
    rows = [
        {"x": row.x, **{f.value: row.gap_by_family[f] for f in families}}
        for row in rows_raw
    ]
    smaller = {
        f.value: sum(
            1 for row in rows_raw
            if row.gap_by_family[f] == min(row.gap_by_family.values())
        )
        for f in families
    }
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "compare",
        "families": [f.value for f in families],
        "side": args.side,
        "grid": asdict(grid),
        "summary": {
            "smallest_gap_counts": smaller,
            "note": "observed direction recorded, not asserted",
        },
    }
    with _open_out(args) as stream:
        _emit(doc, rows, args.format, stream)
    return EXIT_OK


def cmd_constants(args) -> int:
    from . import oracle, specfun
    gam = oracle.ref_euler_gamma()
    log_two_pi = specfun.LOG_TWO_PI
    rows = [
        {"name": "euler_gamma", "value": gam.value, "error_radius": gam.error_radius},
        {"name": "log_two_pi", "value": log_two_pi,
         "error_radius": 2.0 * math.ulp(log_two_pi)},
        {"name": "half_log_two_pi", "value": specfun.HALF_LOG_TWO_PI,
         "error_radius": math.ulp(log_two_pi)},
    ]
    with _open_out(args) as stream:
        if args.format != "text":
            doc = {"schema_version": SCHEMA_VERSION, "command": "constants"}
            _emit(doc, rows, args.format, stream)
        else:
            for row in rows:
                stream.write(f"{row['name']} = {_value_text(row['value'], row['error_radius'])}\n")
    return EXIT_OK


def _open_out(args):
    """The --output file, or stdout (left open), as a context manager."""
    if args.output:
        return open(args.output, "w", newline="")
    return contextlib.nullcontext(sys.stdout)


class _EvalHelpFormatter(argparse.HelpFormatter):
    """Lists the eval names only when help is printed, so parsing loads no layer."""

    def _get_help_string(self, action):
        if action.dest != "fn":
            return super()._get_help_string(action)
        return ", ".join(_eval_names())


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--xmin", type=float,
                   help=f"default {_DEFAULT_XMIN}, raised to the families' domain start")
    p.add_argument("--xmax", type=float, default=1e4)
    p.add_argument("--points", type=int, default=500)
    p.add_argument("--scale", choices=("log", "linear"), default="log")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", help="write the artifact here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psibounds",
        description="Evaluate digamma-family functions and certify their bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one function at one point",
                            formatter_class=_EvalHelpFormatter)
    p_eval.add_argument("fn", help="function name")
    p_eval.add_argument("x", type=float)
    # argparse's own negative-number pattern has no exponent: "-1e-3" was an option.
    p_eval._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    p_eval.set_defaults(run=cmd_eval)

    p_verify = sub.add_parser("verify", help="sweep one bound family over a grid")
    p_verify.add_argument("--family", required=True)
    _add_common(p_verify)
    p_verify.set_defaults(run=cmd_verify)

    p_cmp = sub.add_parser("compare", help="tabulate per-family bound gaps")
    p_cmp.add_argument("--families", required=True,
                       help="comma-separated family tags sharing one target")
    p_cmp.add_argument("--side", choices=("lower", "upper", "width"),
                       default="upper")
    _add_common(p_cmp)
    p_cmp.set_defaults(run=cmd_compare)

    p_const = sub.add_parser("constants", help="print the library constants")
    p_const.add_argument("--format", choices=("csv", "json", "text"), default="text")
    p_const.add_argument("--output")
    p_const.set_defaults(run=cmd_constants)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_UNKNOWN_NAME
    except (DomainError, OverflowError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
