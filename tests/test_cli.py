import csv
import io
import json

import pytest

from cflab import report
from cflab.cli import run_cli

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


def test_out_file_written(tmp_path):
    out = tmp_path / "r.json"
    rc = run_cli(["verify", "third", "A", "--a", "0", "--f", "1",
                  "--format", "json", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["all_pass"] is True


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
