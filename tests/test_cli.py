import contextlib
import csv
import functools
import io
import json
import pathlib
import re
import shlex
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cflab import casebook, cycles, geometry, report
from cflab.cli import build_parser, run_cli
from cflab.errors import InputError, PoleError

JSON_CHECK_FIELDS = {"id", "params", "computed_re", "computed_im",
                     "expected_re", "expected_im", "abs_error", "tol",
                     "pass", "quad_sizes", "runtime_ms"}


def test_third_a_zero_passes(capsys):
    rc = run_cli(["verify", "third", "A", "--a", "0", "--f", "exp(x)"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out


def test_third_a_one_constant_formula_failure_still_exit_zero(capsys):
    # computed 0 differs from f(0) = 1, but matches the closed form, so the
    # check passes; the formula failure is flagged in the params.
    rc = run_cli(["verify", "third", "A", "--a", "1", "--f", "1",
                  "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    check = payload["checks"][0]
    assert check["pass"] is True
    assert check["params"]["pass_formula"] is False


def test_first_n2_default_function_runs(capsys):
    assert run_cli(["verify", "first", "--n", "2", "--format", "json"]) == 0
    check = json.loads(capsys.readouterr().out)["checks"][0]
    assert check["params"]["f"] == "x1^2*x2+3"


def test_suite_skipping_every_check_exits_2(capsys):
    argv = ["suite"]
    for group in ("core", "A", "B", "C", "D", "E"):
        argv += ["--skip", group]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "--skip removed every check" in captured.err


def test_suite_skip_token_that_matches_nothing_exits_2(capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(casebook, "CHECKS", tuple(
        (check_id, group, lambda seed, run=run, check_id=check_id:
         ran.append(check_id) or run(seed))
        for check_id, group, run in casebook.CHECKS))
    argv = ["suite", "--skip", "firts_n1"]
    for group in ("core", "A", "B", "D", "E"):
        argv += ["--skip", group]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and ran == []
    assert captured.err == "cflab: error: --skip matches no check id or group: firts_n1\n"


def test_suite_has_no_workers_option(capsys):
    assert run_cli(["suite", "--workers", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("cflab: error: unrecognized arguments: "
                                   "--workers 2")


def test_first_rejects_n3():
    assert run_cli(["verify", "first", "--n", "3"]) == 2


def test_expression_syntax_error_exits_2(capsys):
    rc = run_cli(["verify", "second", "--f", "x1+", "--z", "0.3,0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "offset" in err


def test_negative_tolerance_exits_2():
    assert run_cli(["suite", "--tol", "-1"]) == 2


def test_verify_first_json_schema(capsys):
    rc = run_cli(["verify", "first", "--n", "1", "--f", "exp(x)",
                  "--z", "0.3,0.1", "--eps", "0.7", "--nodes", "64",
                  "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert set(payload) == {"version", "seed", "all_pass", "checks"}
    for check in payload["checks"]:
        assert set(check) == JSON_CHECK_FIELDS


def test_verify_identities_subset(capsys):
    rc = run_cli(["verify", "identities", "extend_B", "extend_C",
                  "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    ids = [c["id"] for c in payload["checks"]]
    assert ids == ["identity_extend_B", "identity_extend_C"]


def test_verify_identities_runs_each_named_id_once(capsys):
    rc = run_cli(["verify", "identities", "extend_C", "extend_B", "extend_C",
                  "extend_B", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    ids = [c["id"] for c in payload["checks"]]
    assert ids == ["identity_extend_C", "identity_extend_B"]


@pytest.mark.parametrize("argv, option, case", [
    (["third", "B", "--a", "3"], "--a", "B"),
    (["necessary", "D", "--radii", "1,2"], "--radii", "D"),
    (["necessary", "E", "--eps", "0.3"], "--eps", "E"),
], ids=["third_B_a", "necessary_D_radii", "necessary_E_eps"])
def test_an_option_of_the_other_case_exits_2_naming_it(argv, option, case, capsys):
    assert run_cli(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cflab: error: {option} does not apply to case {case}\n"


@pytest.mark.parametrize("argv, message", [
    (["necessary", "D", "--eps", "0"], "torus_D needs 0 < eps < 1"),
    (["necessary", "D", "--eps", "1"], "torus_D needs 0 < eps < 1"),
    (["necessary", "E", "--radii", "0,0.5"], "torus_E radii must be positive"),
], ids=["eps_0", "eps_1", "radius_0"])
def test_a_torus_parameter_on_its_bound_exits_2_with_one_line(argv, message, capsys):
    # the torus constructors hold the bounds; the open interval excludes its ends
    assert run_cli(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cflab: error: {message}\n"


def _verify_json(argv, capsys):
    """The JSON check objects that ``cflab verify`` prints for ``argv``, each
    timed by its runner."""
    assert run_cli(["verify", *argv, "--format=json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert all(c["runtime_ms"] > 0 for c in checks)
    return checks


def _rows_json(report_rows, ids):
    """The rows ``ids`` of ``report_rows``, in report order, as JSON check
    objects."""
    return json.loads(report.to_json([c for c in report_rows if c.id in ids], "", 7))["checks"]


def _without(checks, *fields):
    return [{k: v for k, v in c.items() if k not in fields} for c in checks]


def _family_rows():
    """(id, family, options, sub-seed name) of each table row that runs a
    verify family."""
    return [pytest.param(*run.args, id=run.args[0]) for _, _, run in casebook.CHECKS
            if isinstance(run, functools.partial) and run.func is casebook._family_report]


@pytest.mark.parametrize("check_id, family, given, subseed", _family_rows())
def test_verify_reproduces_each_family_row_of_the_table(check_id, family, given,
                                                        subseed, seed7_report, capsys):
    names = {opt.name.lstrip("-"): opt.name for opt in casebook.VERIFY[family].options}
    argv = [family] + [f"{names[key]}={value}" if names[key].startswith("-") else value
                       for key, value in given.items()]
    if subseed is not None:
        argv.append(f"--seed={casebook._subseed(7, subseed)}")
    assert _without(_verify_json(argv, capsys), "id", "runtime_ms") == \
        _without(_rows_json(seed7_report, {check_id}), "id", "runtime_ms")


def _readme_rows():
    """(argv, row id) of each ``cflab verify`` line of the README's Command
    line block whose comment names a suite row."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line")[1].split("```")[1]
    ids = {check_id for check_id, _, _ in casebook.CHECKS}
    rows = []
    for line in block.splitlines():
        match = re.search(r"#\s*(\w+)", line)
        if line.startswith("cflab verify ") and match and match.group(1) in ids:
            argv = shlex.split(line, comments=True)[2:]
            rows.append(pytest.param(argv, match.group(1), id=match.group(1)))
    return rows


@pytest.mark.parametrize("argv, check_id", _readme_rows())
def test_readme_verify_lines_reproduce_the_rows_they_name(argv, check_id, seed7_report,
                                                          capsys):
    # the README spells the options out, so a changed default shows here
    assert _without(_verify_json(argv, capsys), "id", "runtime_ms") == \
        _without(_rows_json(seed7_report, {check_id}), "id", "runtime_ms")


@pytest.mark.parametrize("ident", list(casebook.IDENTITY_CHECKS))
def test_verify_identities_reproduces_the_rows_of_each_id(ident, seed7_report, capsys):
    ids = [check_id for check_id, _, _ in casebook.IDENTITY_CHECKS[ident]]
    checks = _verify_json(["identities", ident], capsys)
    assert [c["id"] for c in checks] == ids
    assert _without(checks, "runtime_ms") == \
        _without(_rows_json(seed7_report, set(ids)), "runtime_ms")


def test_verify_identities_turns_a_raising_row_into_a_fail_row(monkeypatch, capsys):
    def raising(seed):
        raise InputError("sampler gave up")

    monkeypatch.setattr(casebook, "_identity_exact_D", raising)
    assert run_cli(["verify", "identities", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    checks = json.loads(captured.out)["checks"]
    assert len(checks) == 15
    assert [(c["id"], c["params"]) for c in checks if not c["pass"]] == \
        [("identity_exact_D", {"error": "InputError: sampler gave up"})]


def test_verify_fibration(capsys):
    rc = run_cli(["verify", "fibration", "--seed", "5", "--count", "10"])
    assert rc == 0


def test_csv_columns_and_quoting(tmp_path):
    out = tmp_path / "report.csv"
    rc = run_cli(["verify", "third", "B", "--f", "exp(x)",
                  "--format", "csv", "--out", str(out)])
    assert rc == 0
    with open(out, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert tuple(rows[0]) == report.CSV_COLUMNS
    assert len(rows) == 2
    record = dict(zip(rows[0], rows[1]))
    assert record["id"] == "third_B"
    assert record["pass"] == "true"
    json.loads(record["params"])  # params cell is embedded JSON


def test_csv_columns_are_the_json_fields_in_order(seed7_report):
    assert report.CSV_COLUMNS == tuple(report.check_to_dict(seed7_report[0]))


def test_out_file_written(tmp_path):
    out = tmp_path / "r.json"
    rc = run_cli(["verify", "third", "A", "--a", "0", "--f", "1",
                  "--format", "json", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["all_pass"] is True


@pytest.mark.parametrize("where,reason", [
    (lambda tmp: tmp / "missing" / "r.json", "No such file or directory"),
    (lambda tmp: tmp, "Is a directory"),
], ids=["missing_directory", "directory"])
def test_unwritable_out_exits_2_with_one_line(where, reason, tmp_path, capsys):
    out = where(tmp_path)
    assert run_cli(["verify", "third", "B", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cflab: error: cannot write --out {out}: {reason}\n"


def test_failed_check_exits_one(capsys):
    # An impossibly tight tolerance turns a passing value check into a
    # failing one; the CLI must signal it with exit code 1.
    rc = run_cli(["verify", "first", "--n", "1", "--f", "exp(x)",
                  "--z", "0.9,0", "--eps", "0.05", "--nodes", "8",
                  "--tol", "1e-30"])
    assert rc == 1


def test_suite_with_skips(capsys):
    # Skip the two heavy kernel integrals (by id) and Example E (by group);
    # the remaining battery must pass, and skipped checks must be absent.
    rc = run_cli(["suite", "--skip", "first_n2_const",
                  "--skip", "first_n2_poly", "--skip", "E",
                  "--format", "json", "--seed", "11"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["seed"] == 11
    assert payload["all_pass"] is True
    ids = [c["id"] for c in payload["checks"]]
    assert "first_n1" in ids
    assert "first_n2_const" not in ids
    assert "necessary_E" not in ids
    assert "vanish_tauE_SE" not in ids


@pytest.mark.parametrize("argv", [
    ["verify", "first", "--n", "1", "--eps", "inf"],
    ["verify", "necessary", "D", "--eps", "nan"],
    ["verify", "third", "B", "--tol", "nan"],
    ["verify", "first", "--n", "1", "--z", "nan,0"],
    ["verify", "second", "--radii", "nan"],
    ["verify", "third", "A", "--a", "nan"],
], ids=["eps", "eps_nan", "tol", "z", "radii", "a"])
def test_non_finite_float_input_exits_2_with_one_line(argv, capsys):
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "must be finite" in err


def test_malformed_node_count_exits_2(capsys):
    assert run_cli(["verify", "first", "--nodes", "abc"]) == 2
    assert "bad --nodes" in capsys.readouterr().err


def test_one_node_count_for_n2_names_nodes_and_its_minimum(capsys):
    # one value v gives the grid (v // 2, v, v): 6 would make a psi factor of 3
    assert run_cli(["verify", "first", "--n", "2", "--nodes", "6"]) == 2
    assert capsys.readouterr().err == \
        "cflab: error: one --nodes value for n = 2 must be >= 8\n"
    assert run_cli(["verify", "first", "--n", "2", "--nodes", "8"]) in (0, 1)


def test_fibration_count_is_bounded_before_any_draw(monkeypatch, capsys):
    def drawing(*args, **kwargs):
        raise AssertionError("drew a sample")

    monkeypatch.setattr(geometry, "rand_c", drawing)
    assert run_cli(["verify", "fibration", "--count", "100000000"]) == 2
    assert capsys.readouterr().err == \
        "cflab: error: count must be in 1..100000, got 100000000\n"


def test_an_overflowing_coefficient_is_told_apart_from_a_pole(capsys):
    assert run_cli(["verify", "second", "--radii", "1e300"]) == 2
    assert capsys.readouterr().err == (
        "cflab: error: integrand pole on the grid at param (0.0,): "
        "expression overflows: math range error\n")


@pytest.mark.parametrize("argv, point", [
    (["third", "A", "--f=1/x"], (0j,)),
    (["first", "--f=1/(x-0.3-0.1i)"], (0.3 + 0.1j,)),
    (["second", "--f=1/(x-0.3)"], (0.3 + 0j,)),
], ids=["third_A", "first", "second"])
def test_a_pole_in_the_expected_value_names_its_point(argv, point, capsys):
    # f fails at the base point, off any grid: no param, so the point is named
    assert run_cli(["verify", *argv]) == 2
    assert capsys.readouterr().err == \
        f"cflab: error: division by zero in expression at point {point}\n"


@pytest.mark.parametrize("n,z,eps,cause", [
    (1, (0j,), "1e-300", "phi evaluated on xi.z = 0"),
    (2, (0.2, -0.1), "1e100", "form coefficient overflows"),
    (1, (0.3 + 0.1j,), "1e300", "cycle point or frame is not finite"),
    (2, (0.2, -0.1), "1e200", "cycle point or frame is not finite"),
    (2, (0.2, -0.1), "1e300", "cycle point or frame is not finite"),
], ids=["pole", "overflow", "point_overflows_n1", "point_overflows_n2",
        "point_overflows_n2_1e300"])
def test_orientation_probe_errors_name_the_reference_param(n, z, eps, cause,
                                                            capsys):
    # The one-point probe of alpha_orientation_factor fails before the grid
    # and before orientation_sign, with no warning on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["verify", "first", f"--n={n}", f"--eps={eps}", "--z="
                        + ",".join(f"{complex(c).real},{complex(c).imag}"
                                   for c in z)]) == 2
    param = (0.7,) if n == 1 else (0.9, 0.7, 1.3)
    assert capsys.readouterr().err == \
        f"cflab: error: orientation probe at param {param}: {cause}\n"
    sphere = cycles.sphere_M(z, float(eps))
    with pytest.raises(PoleError) as err:
        casebook.alpha_orientation_factor(n, z, sphere)
    assert err.value.param == sphere.reference_param == param


def test_a_sphere_too_small_to_resolve_has_a_degenerate_frame(capsys):
    # At eps = 1e-300, x = z + eps exp(i theta) rounds to z.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["verify", "first", "--eps=1e-300"]) == 2
    assert capsys.readouterr().err == \
        "cflab: error: degenerate frame at the reference param (0.7,)\n"


@pytest.mark.parametrize("argv, message", [
    (["necessary", "E", "--radii", "0.5,0.5,0.5"], "--radii takes 1 or 2 values, got 3"),
    (["necessary", "D", "--nodes", "16,16,16"], "--nodes takes 1 or 2 values, got 3"),
    (["second", "--z", "0.3,0,5,5"], "--z takes 1 or 2 values, got 4"),
    (["second", "--radii", "0.4,9"], "--radii takes 1 value, got 2"),
    (["second", "--nodes", "128,64"], "--nodes takes 1 value, got 2"),
    (["third", "A", "--a", "1,0,7"], "--a takes 1 or 2 values, got 3"),
    (["third", "A", "--nodes", "16,4"], "--nodes takes 1 value, got 2"),
    (["first", "--z", "0.3,0.1,0.2"], "--z takes 1 or 2 values, got 3"),
    (["first", "--n", "2", "--z", "0.2,0"], "--z takes 3 or 4 values, got 2"),
    (["first", "--nodes", "16,16"], "--nodes takes 1 value, got 2"),
    (["first", "--n", "2", "--nodes", "16,16"], "--nodes takes 1 or 3 values, got 2"),
])
def test_list_options_take_a_fixed_number_of_values(argv, message, capsys):
    assert run_cli(["verify", *argv]) == 2
    assert capsys.readouterr().err == f"cflab: error: {message}\n"


_NO_FLOAT = "could not convert string to float: ''"


@pytest.mark.parametrize("argv, message", [
    (["second", "--z", "0.3,,0"], f"bad --z: {_NO_FLOAT}"),
    (["second", "--z", ","], f"bad --z: {_NO_FLOAT}"),
    (["second", "--z", ""], f"bad --z: {_NO_FLOAT}"),
    (["necessary", "E", "--radii", "0.5,,0.4"], f"bad --radii: {_NO_FLOAT}"),
    (["second", "--nodes", "128,"],
     "bad --nodes: invalid literal for int() with base 10: ''"),
])
def test_an_empty_field_of_a_list_option_is_a_bad_value(argv, message, capsys):
    # Every comma-separated field counts: an empty one is not skipped.
    assert run_cli(["verify", *argv]) == 2
    assert capsys.readouterr().err == f"cflab: error: {message}\n"


# ------------------------------------------------------- the cached parser

def test_build_parser_is_cached():
    assert build_parser() is build_parser()


def test_cached_parser_does_not_share_the_skip_default(capsys):
    rc = run_cli(["suite", "--skip", "core", "--skip", "D", "--skip", "E",
                  "--format", "csv"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("id,params,")
    assert run_cli(["verify", "third", "B"]) == 0
    assert capsys.readouterr().out.startswith("check ")
    args = build_parser().parse_args(["suite"])
    assert args.skip == []
    assert args.format == "table"


@pytest.mark.parametrize("argv, message", [
    (["verify", "first", "--n", "3"], "argument --n: invalid choice: 3"),
    (["verify", "first", "--f"], "argument --f: expected one argument"),
    (["verify", "first", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    (["verify"], "the following arguments are required: which"),
], ids=["invalid_choice", "missing_value", "unknown_option",
        "unknown_subcommand", "missing_subcommand"])
def test_usage_error_prints_one_line(argv, message, capsys):
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"cflab: error: {message}")


@pytest.mark.parametrize("argv", [["--help"], ["verify", "first", "--help"]])
def test_help_prints_usage_to_stdout_and_exits_0(argv, capsys):
    assert run_cli(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: cflab") and captured.err == ""


def test_usage_error_then_success_with_cached_parser(capsys):
    assert run_cli(["verify", "third", "Z"]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert run_cli(["verify", "third", "A", "--a", "0"]) == 0
    captured = capsys.readouterr()
    assert "PASS" in captured.out and captured.err == ""


def test_oversized_node_count_exits_2_before_allocating(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise AssertionError("allocated for an oversized grid")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", boom)
    monkeypatch.setattr(np, "empty", boom)
    assert run_cli(["verify", "third", "A", "--a", "0", "--f", "1",
                    "--nodes", "100000000"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("cflab: error: quadrature grid")


# ---------------------------------------------------------- fault isolation

def test_suite_turns_a_raising_check_into_one_fail_row(monkeypatch, capsys):
    def raising(*args, **kwargs):
        raise PoleError("coefficient hit a pole", point=(0j,))

    monkeypatch.setattr(casebook, "fibration_check_C2", raising)
    rc = run_cli(["suite", "--skip", "core", "--skip", "D", "--skip", "E",
                  "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert payload["all_pass"] is False
    rows = {c["id"]: c for c in payload["checks"]}
    failed = [i for i, c in rows.items() if not c["pass"]]
    assert failed == ["fibration_C2"]
    row = rows["fibration_C2"]
    assert row["params"] == {"error": "PoleError: coefficient hit a pole"}
    assert (row["computed_re"], row["computed_im"], row["expected_re"],
            row["expected_im"], row["abs_error"], row["tol"]) == (0.0,) * 6
    assert row["quad_sizes"] == []
    assert {"third_A_a0", "third_B", "transv_C2_P_Q_S"} <= set(rows)


# ------------------------------------------------ expression bounds, fuzzing

@pytest.mark.parametrize("f, message", [
    ("(" * 200 + "x" + ")" * 200, "nested deeper"),
    ("+".join(["x"] * 5001), "deeper than"),
    ("x^99999999999999999999", "at param"),
    ("exp(exp(exp(exp(x))))*1e308", "at param"),
    ("1e308", "sum overflows"),
], ids=["parens", "long_sum", "power_overflow", "exp_overflow", "sum_overflow"])
def test_expression_limits_and_overflow_exit_2_with_one_line(f, message, capsys):
    which = ["second", "--radii=0.7"] if "sum" in message else ["first"]
    assert run_cli(["verify", *which, f"--f={f}", "--nodes=32"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("cflab: error: ")
    assert message in err


def test_an_exponent_tower_with_a_huge_top_exits_2_with_one_line(capsys):
    # the parser bounds the tower before it builds 3 ** 99999999999999999999
    assert run_cli(["verify", "second", "--f=-0.5^-3^99999999999999999999"]) == 2
    assert capsys.readouterr().err == \
        "cflab: error: exponent tower too large at offset 28\n"


def _mostly(valid, invalid):
    """Seven draws in eight from ``valid``, so most commands reach a grid."""
    return st.integers(0, 7).flatmap(lambda i: invalid if i == 7 else valid)


_FINITE = st.sampled_from(["0", "1", "-1", "0.5", "2", "-0.25", "0.3",
                           "1e-300", "1e8", "3e200"])
_BAD = st.sampled_from(["nan", "inf", "x", "", "1e999"])


def _listed(values, count, bad):
    """A list option's value: 1-3 draws from ``values`` (up to ``count``
    for a longer option) seven times in eight, else 1-5 draws mixed with
    ``bad``."""
    valid = st.lists(values, min_size=1, max_size=max(3, count))
    invalid = st.lists(st.one_of(values, bad), min_size=1, max_size=5)
    return _mostly(valid, invalid).map(",".join)


def _numbers(count):
    return _listed(_FINITE, count, _BAD)


def _nodes(count, values=("4", "5", "8", "16", "31", "32")):
    return _listed(st.sampled_from(values), count,
                   st.sampled_from(["-4", "0", "3", "1.5", "x"]))


def _expressions(variables):
    return st.recursive(
        st.sampled_from(variables + ["2", "0", "0.5", "i", "1e308", "1e-300"]),
        lambda kids: st.one_of(
            st.tuples(kids, st.sampled_from("+-*/"), kids).map(
                lambda t: f"({t[0]}{t[1]}{t[2]})"),
            st.tuples(kids, st.sampled_from(["-3", "-1", "2", "9", "400",
                                             "99999999999999999999"])).map(
                lambda t: f"{t[0]}^{t[1]}"),
            kids.map(lambda e: f"exp({e})"),
            kids.map(lambda e: f"-{e}")),
        max_leaves=6)


_TEXT = st.text(alphabet="x12.+-*/^()ie ", max_size=12)
_POSITIVE = _mostly(st.sampled_from(["0.1", "0.3", "0.5", "0.7", "0.999999",
                                     "1e-300", "2"]),
                    st.sampled_from(["0", "-1", "1", "nan", "inf", "1e308"]))


def _for_case(own):
    """Whether to give an option of one case: always for its own case, one
    time in eight for the other, which must exit 2."""
    return st.just(True) if own else st.integers(0, 7).map(lambda i: i == 7)


@st.composite
def _verify_argv(draw):
    which = draw(st.sampled_from(["first", "second", "third", "necessary",
                                  "identities", "fibration"]))
    argv = ["verify", which]
    options = {}
    if which == "first":
        n = draw(st.sampled_from([1, 2]))
        options["n"] = str(n)
        options["f"] = draw(_mostly(
            _expressions(["x"] if n == 1 else ["x1", "x2"]), _TEXT))
        options["z"] = draw(_numbers(2 * n))
        options["eps"] = draw(_POSITIVE)
        options["nodes"] = draw(_nodes(1) if n == 1 else st.one_of(
            _nodes(1, ("8", "16", "32")), _nodes(3)))
    elif which == "second":
        options["f"] = draw(_mostly(_expressions(["x"]), _TEXT))
        options["z"] = draw(_numbers(2))
        options["radii"] = draw(_POSITIVE)
        options["nodes"] = draw(_nodes(1))
    elif which == "third":
        case = draw(st.sampled_from(["A", "B"]))
        argv.append(case)
        options["f"] = draw(_mostly(_expressions(["x"]), _TEXT))
        if draw(_for_case(case == "A")):
            options["a"] = draw(_numbers(2))
        options["nodes"] = draw(_nodes(1))
    elif which == "necessary":
        case = draw(st.sampled_from(["D", "E"]))
        argv.append(case)
        if draw(_for_case(case == "D")):
            options["eps"] = draw(_POSITIVE)
        if draw(_for_case(case == "E")):
            options["radii"] = draw(_numbers(2))
        options["nodes"] = draw(_nodes(2))
    elif which == "identities":
        argv.extend(draw(st.lists(st.sampled_from(
            ["chart_phi", "exact_A", "extend_B", "vanish_all", "nope"]),
            max_size=2)))
    else:
        options["count"] = str(draw(st.integers(-2, 30)))
    if which in ("first", "second", "third", "necessary") and draw(st.booleans()):
        options["tol"] = draw(st.one_of(_POSITIVE, st.sampled_from(["1e-6"])))
    options["seed"] = str(draw(st.integers(-5, 10 ** 6)))
    options["format"] = draw(st.sampled_from(["json", "table", "csv"]))
    # --name=value keeps a value that starts with '-' from reading as a flag
    return argv + [f"--{name}={value}" for name, value in options.items()]


@settings(settings.get_profile("cflab"), max_examples=300)
@given(_verify_argv())
def test_verify_fuzz_ends_in_a_row_or_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    # a warning would print to a real process's stderr
    assert not caught, (argv, [str(w.message) for w in caught])
    if code == 2:
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
        assert err.getvalue().startswith("cflab: error: ")
    else:
        assert out.getvalue() and not err.getvalue(), argv
