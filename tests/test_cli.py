import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from psibounds import bounds, cli
from psibounds.errors import DomainError

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _value_and_radius(out):
    value, radius = out.split(" ± ")
    return float(value), float(radius)


def test_eval_digamma_at_one(capsys):
    # The value's repr: it reads back as the oracle's double, -gamma rounded.
    code, out, _ = run(capsys, "eval", "digamma", "1")
    assert code == 0
    value, radius = _value_and_radius(out)
    assert out.split(" ± ")[0] == repr(value) == "-0.5772156649015329"
    assert abs(value + 0.57721566490153286061) <= radius < 4e-16


def test_eval_gamma_factorial(capsys):
    # exp of log Gamma(5) is not 24 to the last digit, but its radius covers it.
    code, out, _ = run(capsys, "eval", "gamma", "5")
    assert code == 0
    value, radius = _value_and_radius(out)
    assert abs(value - 24.0) <= radius < 1e-12


def test_eval_gamma_overflow_names_log_gamma(capsys):
    # Gamma(200) ~ 4e372 passes the largest double; log Gamma(200) does not.
    code, out, err = run(capsys, "eval", "gamma", "200")
    assert code == 2 and out == ""
    assert "eval log_gamma" in err
    with pytest.raises(DomainError, match="eval log_gamma"):
        bounds.FUNCTIONS["gamma"](200.0)
    code, out, _ = run(capsys, "eval", "log_gamma", "200")
    assert code == 0 and out.startswith("857.93366982")


@pytest.mark.parametrize("exponent, plain", [("-1e-3", "-0.001"), ("-2E+5", "-200000"),
                                             ("-.5e1", "-5")])
def test_eval_takes_a_negative_x_with_an_exponent(capsys, exponent, plain):
    # argparse's own negative-number pattern has no exponent, so "-1e-3" was
    # parsed as an option and x reported missing.  Both spellings reach x's
    # domain check.
    with_exponent = run(capsys, "eval", "digamma", exponent)
    assert with_exponent == run(capsys, "eval", "digamma", plain)
    code, out, err = with_exponent
    assert code == 2 and out == ""
    assert "positive finite real" in err


def _eval_reads_back(capsys, name, x):
    # eval prints the value's repr: the function's own double, read back exactly.
    code, out, _ = run(capsys, "eval", name, x)
    assert code == 0
    value = float(out)
    assert out.strip() == repr(value) and value == bounds.FUNCTIONS[name](float(x))
    return value


# The expected values are 60-digit mpmath to 12 significant digits.
@pytest.mark.parametrize("name, x, expected", [("beta", "1e160", "1e+160"),
                                               ("beta", "1e300", "1e+300"),
                                               ("f", "1e300", "0.333333333333")])
def test_eval_where_kernel_r_underflows(capsys, name, x, expected):
    assert f"{_eval_reads_back(capsys, name, x):.12g}" == expected


@pytest.mark.parametrize("name, x, expected", [("f", "1e17", "0.333333333333"),
                                               ("H", "1e5", "2.17588213795e-27")])
def test_eval_where_the_direct_forms_cancel(capsys, name, x, expected):
    assert f"{_eval_reads_back(capsys, name, x):.12g}" == expected


@pytest.mark.parametrize("argv, expected", [
    (["trigamma", "1e-3"], "1000001.6425331959 ± 5.0e-10"),
    (["log_gamma", "1e5"], "1051287.7089736569 ± 4.1e-10"),
    (["trigamma", "1e5"], "1.0000050000166667e-05 ± 8.5e-22"),
])
def test_eval_prints_the_oracle_radius(capsys, argv, expected):
    # The oracle is asked at eps = inf, so its radius prints whatever its size.
    code, out, _ = run(capsys, "eval", *argv)
    assert code == 0 and out.strip() == expected


def test_eval_domain_error_exit_2(capsys):
    code, _, err = run(capsys, "eval", "digamma", "-1")
    assert code == 2
    assert err.strip()


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "eq4", "--precision", "1e-6"],
    ["compare", "--families", "eq4,eq5", "--precision", "1e-6"],
    ["constants", "--precision", "1e-6"],
    ["eval", "digamma", "1", "--precision", "1e-6"],
])
def test_no_command_takes_a_precision(capsys, argv):
    # A sweep takes each oracle radius as it is and the strictness rule
    # judges it; eval prints the value's repr and the radius.  No command
    # has a tolerance or a digit count to set.
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --precision" in capsys.readouterr().err


def test_eval_unknown_function_exit_3(capsys):
    code, _, err = run(capsys, "eval", "zeta", "2")
    assert code == 3
    assert "zeta" in err
    assert "choose from" in err and "'digamma'" in err


@pytest.mark.parametrize("name", sorted(bounds.FUNCTIONS))
def test_eval_every_registered_function(capsys, name):
    code, out, err = run(capsys, "eval", name, "2")
    assert code == 0, err
    assert math.isfinite(float(out.split("±")[0]))


def test_eval_help_lists_every_name(capsys):
    with pytest.raises(SystemExit):
        cli.main(["eval", "--help"])
    flat = " ".join(capsys.readouterr().out.split())
    for name in [*bounds.FUNCTIONS, "polygamma:n", "tau:k", "g_c:c"]:
        assert name in flat


@pytest.mark.parametrize("name", ["nope", "polygamma"])
def test_eval_unknown_name_lists_the_help_names(capsys, name):
    # The unknown-name error and eval --help read one list of names.
    with pytest.raises(SystemExit):
        cli.main(["eval", "--help"])
    flat = " ".join(capsys.readouterr().out.split())
    start = flat.index("arguments: fn ") + len("arguments: fn ")
    helped = flat[start:flat.index(" x ", start)].split(", ")
    code, _, err = run(capsys, "eval", name, "1")
    assert code == cli.EXIT_UNKNOWN_NAME
    listed = err[err.index("choose from [") + len("choose from ["):err.rindex("]")]
    assert [part.strip("'") for part in listed.split(", ")] == helped
    assert {"polygamma:n", "tau:k", "g_c:c"} <= set(helped)


def test_eval_parametrized_names(capsys):
    code, out, _ = run(capsys, "eval", "polygamma:2", "1.5")
    assert code == 0
    assert float(out.strip()) == pytest.approx(-0.82879664423432, rel=1e-10)
    code, out, _ = run(capsys, "eval", "tau:2", "1")
    assert code == 0
    assert float(out.strip()) == pytest.approx(0.2997939980315226, rel=1e-10)
    code, out, _ = run(capsys, "eval", "g_c:0", "1")
    assert code == 0
    assert float(out.strip()) == pytest.approx(-0.20754636565543919, rel=1e-8)
    # psi^(200)'s terms underflow at 1000 and its value does not; at order
    # 10^6 the value at 2 passes the largest double, known before any sum.
    assert run(capsys, "eval", "polygamma:200", "1000") == (0, "-4.350819270597102e-228\n", "")
    code, _, err = run(capsys, "eval", "polygamma:1000000", "2")
    assert code == 2 and "exceeds the largest double" in err
    # A parameter out of range is the library's own error.
    code, _, err = run(capsys, "eval", "polygamma:0", "1")
    assert code == 2 and "order must be an integer >= 1" in err


@pytest.mark.parametrize("name, form", [("polygamma:x", "polygamma:n"), ("tau:1.5", "tau:k"),
                                        ("polygamma:", "polygamma:n"), ("g_c:abc", "g_c:c")])
def test_eval_names_the_parameter_it_cannot_read(capsys, name, form):
    # A usage error that names the form, not the converter's own message.
    code, _, err = run(capsys, "eval", name, "1")
    assert code == 2 and form in err, err


def test_verify_json_document(capsys):
    code, out, _ = run(capsys, "verify", "--family", "thm22", "--xmin", "1e-2",
                       "--xmax", "1e3", "--points", "50", "--scale", "log",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["command"] == "verify"
    assert doc["family"] == "thm22"
    assert doc["summary"]["all_pass"] is True
    assert len(doc["rows"]) == 50
    assert {"x", "target", "lower", "upper", "pass"} <= set(doc["rows"][0])


def test_verify_json_rows_one_a_line_parse_as_the_indented_layout(capsys, monkeypatch):
    # The report is the header, then one row a line: it parses to the same
    # object, with the same key order, as json.dump's indent=1 layout of the
    # document and rows that _emit is handed.
    handed = []
    emit = cli._emit

    def recording(doc, rows, fmt, stream):
        handed.append((doc, rows))
        emit(doc, rows, fmt, stream)

    monkeypatch.setattr(cli, "_emit", recording)
    code, out, _ = run(capsys, "verify", "--family", "eq5", "--points", "40",
                       "--format", "json")
    assert code == 0
    (doc, rows), = handed
    indented = json.loads(json.dumps({**doc, "rows": rows}, indent=1))
    parsed = json.loads(out)
    assert parsed == indented and list(parsed) == list(indented)
    lines = out.splitlines()
    assert lines[0].endswith('"rows": [') and lines[-1] == "]}" and len(lines) == len(rows) + 2
    for line, row in zip(lines[1:-1], indented["rows"]):
        assert json.loads(line.removesuffix(",")) == row


def test_verify_explicit_domain_violation_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--family", "eq6", "--xmin", "1")
    assert code == 2
    assert "eq6" in err


def test_verify_default_grid_is_clipped_for_eq6(capsys):
    code, out, _ = run(capsys, "verify", "--family", "eq6", "--xmax", "50",
                       "--points", "40", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["grid"]["x_min"] == 2.0


def test_compare_default_grid_is_clipped_to_largest_domain(capsys):
    code, out, _ = run(capsys, "compare", "--families", "eq4,eq6", "--points", "20",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["grid"]["x_min"] == 2.0
    assert len(doc["rows"]) == 20


def test_verify_unknown_family_exit_3(capsys):
    code, _, _ = run(capsys, "verify", "--family", "eq99")
    assert code == 3


def test_verify_csv_json_numeric_identity(capsys, tmp_path):
    common = ["verify", "--family", "eq9", "--xmin", "0.5", "--xmax", "20",
              "--points", "10"]
    code, csv_out, _ = run(capsys, *common, "--format", "csv")
    assert code == 0
    code, json_out, _ = run(capsys, *common, "--format", "json")
    assert code == 0
    doc = json.loads(json_out)
    lines = csv_out.strip().splitlines()
    header = lines[0].split(",")
    for line, row in zip(lines[1:], doc["rows"]):
        parsed = dict(zip(header, line.split(",")))
        for key in ("x", "target", "lower", "upper", "lower_margin"):
            assert float(parsed[key]) == row[key]  # exact round-trip


def test_compare_csv_three_columns(capsys):
    code, out, _ = run(capsys, "compare", "--families", "eq5,thm21,thm22",
                       "--side", "upper", "--xmin", "0.5", "--xmax", "10",
                       "--points", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,eq5,thm21,thm22"
    assert len(lines) == 9


def test_compare_mixed_targets_exit_2(capsys):
    code, _, err = run(capsys, "compare", "--families", "eq5,eq8")
    assert code == 2
    assert "target" in err


@pytest.mark.parametrize("families", ["eq5", "eq5,eq5", "eq5,EQ5,thm21"])
def test_compare_needs_two_distinct_families_exit_2(capsys, families):
    # One family, or one named twice (tags are case-insensitive), writes no table.
    code, out, err = run(capsys, "compare", "--families", families, "--points", "5")
    assert (code, out) == (2, "")
    assert "two distinct families" in err


def test_compare_remark_probe_no_nans(capsys):
    code, out, _ = run(capsys, "compare", "--families", "eq6,thm23",
                       "--side", "upper", "--xmin", "2", "--xmax", "100",
                       "--points", "25", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 25
    for row in doc["rows"]:
        assert math.isfinite(row["eq6"]) and math.isfinite(row["thm23"])
    assert "smallest_gap_counts" in doc["summary"]
    assert "not asserted" in doc["summary"]["note"]


def test_constants_text(capsys):
    code, out, _ = run(capsys, "constants")
    assert code == 0
    assert out.startswith("euler_gamma = 0.57721566490")
    assert "log_two_pi" in out and "half_log_two_pi" in out


def test_constants_json_has_radius(capsys):
    code, out, _ = run(capsys, "constants", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    gamma_row = doc["rows"][0]
    assert gamma_row["name"] == "euler_gamma"
    assert 0.0 < gamma_row["error_radius"] <= 1e-12


def test_constants_csv_is_csv(capsys):
    code, out, _ = run(capsys, "constants", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["name"] for row in rows] == ["euler_gamma", "log_two_pi", "half_log_two_pi"]
    for row in rows:
        assert float(row["value"]) > 0.0 and float(row["error_radius"]) > 0.0
    assert abs(float(rows[0]["value"]) - 0.5772156649015329) <= float(rows[0]["error_radius"])


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--family", "eq9", "--xmin", "1",
                     "--xmax", "10", "--points", "5", "--format", "json",
                     "--output", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["family"] == "eq9"


def test_output_file_is_closed(tmp_path):
    # -X dev reports a file object that is garbage-collected while still open.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "psibounds", "verify", "--family", "eq9",
         "--xmin", "1", "--xmax", "10", "--points", "5", "--output", "f"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "ResourceWarning" not in proc.stderr
    assert (tmp_path / "f").read_text().startswith("x,target,")


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "eq9", "--xmin", "1", "--xmax", "2", "--points", "3"],
    ["compare", "--families", "eq9,eq5", "--xmin", "1", "--xmax", "2", "--points", "3"],
    ["constants"],
])
def test_unwritable_output_exit_2(tmp_path, capsys, argv):
    # Exit 1 means a certification failure: a file that cannot be opened is
    # a usage error, reported on one line.
    code, _, err = run(capsys, *argv, "--output", str(tmp_path / "missing" / "r.csv"))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_verify_exit_1_on_certification_failure(capsys):
    # eq6 beyond x ~ 630 has true margins below the noise floor: exit 1
    code, out, _ = run(capsys, "verify", "--family", "eq6", "--xmin", "2",
                       "--xmax", "1e4", "--points", "60", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["summary"]["all_pass"] is False
    assert doc["summary"]["failures"] > 0


def _python(*args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


_COLD_STARTS = [
    ["-c", "import psibounds; from psibounds import cli; cli.build_parser()"],
    ["-m", "psibounds", "--help"],
    ["-m", "psibounds", "verify"],            # usage error, exit 2
    ["-m", "psibounds", "eval", "beta", "2"],
]


@pytest.mark.parametrize("args", _COLD_STARTS)
def test_cold_start_does_not_import_numpy(args):
    # Only mu's bulk sums in the oracle use numpy, and they import it themselves.
    # -X importtime lists every module imported, one per line.
    proc = _python("-X", "importtime", *args)
    assert proc.returncode in (0, 2), proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip().split(".")[0]
                for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "psibounds" in imported
    assert "numpy" not in imported


@pytest.mark.parametrize("args", _COLD_STARTS)
def test_cold_start_loads_only_what_it_runs(args):
    # Parsing, --help and usage errors load no numeric layer; eval loads the
    # layers its function needs: beta needs neither oracle nor verifier, nor
    # the fractions that only polygamma's exact branches use, nor decimal,
    # which no part of the package needs.
    proc = _python("-X", "importtime", *args)
    assert proc.returncode in (0, 2), proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "psibounds.cli" in imported
    forbidden = {"psibounds.oracle", "psibounds.verifier", "fractions", "decimal"}
    if "eval" not in args:
        forbidden |= {"psibounds.bounds", "psibounds.specfun", "psibounds.kernels",
                      "psibounds.tails", "dataclasses", "json", "csv"}
    assert not imported & forbidden


@pytest.mark.parametrize("argv, expected", [
    (["constants"], "euler_gamma = 0.5772156649015329 ± 3.2e-16\n"
                    "log_two_pi = 1.8378770664093453 ± 4.4e-16\n"
                    "half_log_two_pi = 0.9189385332046727 ± 2.2e-16\n"),
    (["eval", "digamma", "1"], "-0.5772156649015329 ± 3.2e-16\n"),
])
def test_commands_that_sum_in_bulk_print_as_before(argv, expected):
    proc = _python("-m", "psibounds", *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def test_oracle_up_to_mu_bulk_does_not_import_numpy():
    # numpy serves only mu's bulk past y = 16: psi, psi', gamma and log Gamma
    # up to 2 (its series and the gap at 1) sum as Python floats.
    proc = _python("-c", "import sys; from psibounds import oracle; "
                         "oracle.ref_digamma(3.0); oracle.ref_trigamma(3.0); "
                         "oracle.ref_euler_gamma(); oracle.ref_log_gamma(0.5); "
                         "oracle.ref_log_gamma(1.5); print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
