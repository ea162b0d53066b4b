"""Command-line surface: reports, exit codes, formats, and file output."""

import json

import pytest

from gfcring.cli import main
from gfcring.ideal import export_ideal, parse_ideal_json
from gfcring.params import make_curve_params


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_info(capsys):
    code, rep, _ = run_json(capsys, "info", "--k", "3", "--n", "3")
    assert code == 0
    assert rep["genus"] == 10
    assert rep["dims"]["1"] == 10 and rep["dims"]["2"] == 27


def test_info_rejects_hyperelliptic_range(capsys):
    code, out, err = run(capsys, "info", "--k", "2", "--n", "3")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_basis(capsys):
    code, rep, _ = run_json(capsys, "basis", "--k", "3", "--n", "3", "--m", "2")
    assert code == 0
    assert rep["count"] == rep["expected"] == 27
    assert rep["passed"]
    first = rep["rows"][0]
    assert len(first["index"]) == 3
    assert len(first["divisor"]) == 4
    assert min(first["divisor"]) >= 0


def test_multiplicities_nu(capsys):
    code, rep, _ = run_json(
        capsys, "multiplicities", "--k", "3", "--n", "3", "--kind", "nu", "--m", "2"
    )
    assert code == 0
    assert rep["total"] == rep["expected_total"] == 27
    assert all(row["agree"] for row in rep["rows"])
    assert len(rep["rows"]) == 27


def test_multiplicities_single_label(capsys):
    code, rep, _ = run_json(
        capsys, "multiplicities", "--k", "3", "--n", "3",
        "--kind", "syzygy", "--d", "2", "--char", "0,0,0",
    )
    assert code == 0
    assert len(rep["rows"]) == 1
    row = rep["rows"][0]
    assert row["label"] == "0,0,0"
    assert row["syzygy"] == row["mu"] - row["nu"] >= 0
    assert rep["total"] == 28  # all labels still enter the total


def test_verify_single_curve(capsys):
    code, rep, _ = run_json(capsys, "verify", "--k", "2", "--n", "4")
    assert code == 0
    assert rep["passed"]
    assert len(set(rep["primes"])) == 2
    assert all(p % 2 == 1 for p in rep["primes"])
    assert rep["standard_set_identity"]
    assert rep["equivariance_ok"]
    for per_prime in rep["basis_rank"].values():
        assert all(per_prime.values())
    for d2 in rep["degree2"].values():
        assert d2["passed"]
        assert d2["span_rank"] == 3


def test_verify_pinned_prime(capsys):
    code, rep, _ = run_json(
        capsys, "verify", "--k", "3", "--n", "3", "--prime", "103"
    )
    assert code == 0
    assert rep["primes"] == [103]
    assert rep["passed"]


def test_verify_explicit_lambda(capsys):
    code, rep, _ = run_json(
        capsys, "verify", "--k", "3", "--n", "3", "--lambda", "1,51", "--prime", "103"
    )
    assert code == 0
    assert rep["lambda"] == [1, 51]
    assert rep["passed"]


def test_verify_bad_lambda(capsys):
    code, out, err = run(
        capsys, "verify", "--k", "3", "--n", "3", "--lambda", "1,1", "--prime", "103"
    )
    assert code == 2
    assert "error" in err


def test_verify_bad_prime(capsys):
    code, _, err = run(
        capsys, "verify", "--k", "3", "--n", "3", "--prime", "100"
    )
    assert code == 2
    assert "error" in err
    # a prime that is not 1 mod k is also rejected
    code, _, err = run(
        capsys, "verify", "--k", "3", "--n", "3", "--prime", "101"
    )
    assert code == 2


def test_verify_prime_without_points(capsys):
    # p = 7 is 1 mod 3 but far too small to sample the required points
    code, _, err = run(capsys, "verify", "--k", "3", "--n", "3", "--prime", "7")
    assert code == 2
    assert "points" in err


def test_verify_plane_quintic_warns(capsys):
    code, rep, _ = run_json(capsys, "verify", "--k", "5", "--n", "2")
    assert code == 0
    assert rep["plane_quintic"]
    assert rep["warnings"]
    assert rep["degree2"] is None
    assert rep["per_character_ok"] is None
    assert rep["passed"]  # basis ranks and equivariance still verified


def test_verify_grid(capsys):
    code, rep, _ = run_json(capsys, "verify", "--grid")
    assert code == 0
    assert rep["passed"]
    rows = {(row["k"], row["n"]): row for row in rep["rows"]}
    assert set(rows) == {(2, 4), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4)}
    assert all(row["passed"] for row in rows.values())
    assert rows[(3, 3)]["degree2_ok"] is True
    assert rows[(4, 4)]["degree2_ok"] is None  # combinatorics-only member


def test_pretty_format(capsys):
    code, out, _ = run(capsys, "verify", "--k", "4", "--n", "2", "--format", "pretty")
    assert code == 0
    assert "passed: yes" in out
    assert "standard_set_identity: yes" in out


def test_report_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "info", "--k", "3", "--n", "3", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["genus"] == 10


def test_export_json_stdout(capsys):
    code, out, _ = run(
        capsys, "export", "--k", "3", "--n", "3", "--prime", "103", "--format", "json"
    )
    assert code == 0
    data = parse_ideal_json(out)
    pp = make_curve_params(3, 3, p=103)
    assert out == export_ideal(pp, "json")
    assert len(data["binomials"]) == 20
    assert len(data["trinomials"]) == 8


def test_export_cas_text_to_file(tmp_path, capsys):
    target = tmp_path / "ideal.txt"
    code, rep, _ = run_json(
        capsys, "export", "--k", "3", "--n", "3", "--prime", "103",
        "--format", "cas-text", "--out", str(target),
    )
    assert code == 0
    assert rep["written"] == str(target)
    text = target.read_text()
    assert text.startswith("// k=3 n=3 p=103")
    assert text.count("\n") >= 33


def test_export_rejects_pretty(capsys):
    code, _, err = run(
        capsys, "export", "--k", "3", "--n", "3", "--format", "pretty"
    )
    assert code == 2
    assert "error" in err


def test_prime_bound_env_override(capsys, monkeypatch):
    monkeypatch.setenv("GFC_DEFAULT_PRIME_BOUND", "200")
    code, out, _ = run(
        capsys, "export", "--k", "3", "--n", "3", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["p"] == 211  # first prime = 1 mod 3 above 200


@pytest.mark.parametrize("argv", [
    ["basis", "--k", "3", "--n", "3", "--m", "0"],
    ["multiplicities", "--k", "3", "--n", "3", "--kind", "mu", "--d", "0"],
    ["verify", "--k", "3", "--n", "3", "--prime", "foo"],
    ["multiplicities", "--k", "3", "--n", "3", "--char", "1,2"],
])
def test_bad_input_is_one_json_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert set(json.loads(lines[0])) == {"error"}
    assert "Traceback" not in err
