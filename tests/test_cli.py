"""Command-line surface: reports, exit codes, formats, and file output."""

import argparse
import hashlib
import importlib
import io
import json
import os
import pkgutil
import resource
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gfcring
from gfcring import cli, curve, ideal, indexsets, reps
from gfcring.cli import main
from gfcring.params import dim_vm, make_curve_params
import references


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


# At (3,3): dim V_1 = g = 10, dim V_2 = 27; a weight-m nu table totals
# dim V_m, a degree-d mu table comb(g + d - 1, d).  The kind's own degree
# flag (--m for nu, --d otherwise) wins over the other one.
@pytest.mark.parametrize("flags, degree, total, columns, row_ok", [
    (["--kind", "nu", "--m", "2"], 2, 27, ["nu_closed", "nu_bruteforce", "agree"],
     lambda r: r["agree"] and r["nu_closed"] == r["nu_bruteforce"]),
    (["--kind", "nu", "--d", "2"], 2, 27, ["nu_closed", "nu_bruteforce", "agree"],
     lambda r: r["agree"]),
    (["--kind", "mu", "--d", "2"], 2, comb(11, 2), ["mu"], lambda r: r["mu"] >= 0),
    (["--kind", "mu", "--m", "3"], 3, comb(12, 3), ["mu"], lambda r: r["mu"] >= 0),
    (["--kind", "mu", "--m", "3", "--d", "2"], 2, comb(11, 2), ["mu"],
     lambda r: r["mu"] >= 0),
    (["--kind", "syzygy", "--d", "1"], 1, 0, ["mu", "nu", "syzygy"],
     lambda r: r["syzygy"] == 0 and r["mu"] == r["nu"]),
], ids=["nu-m2", "nu-d2", "mu-d2", "mu-m3", "mu-m3-d2", "syzygy-d1"])
def test_multiplicities_table(capsys, flags, degree, total, columns, row_ok):
    code, rep, _ = run_json(capsys, "multiplicities", "--k", "3", "--n", "3", *flags)
    assert code == 0
    assert rep["passed"]
    assert rep["degree"] == degree
    assert rep["total"] == rep["expected_total"] == total
    assert len(rep["rows"]) == 27
    assert all(list(row) == ["label", *columns] for row in rep["rows"])
    assert all(row_ok(row) for row in rep["rows"])


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

    code, out, _ = run(
        capsys, "multiplicities", "--k", "3", "--n", "3",
        "--kind", "syzygy", "--d", "2", "--char", "0,0,0", "--format", "pretty",
    )
    assert code == 0
    assert out.splitlines()[-2:] == [
        "rows:", f"  - label=0,0,0  mu={row['mu']}  nu={row['nu']}  syzygy={row['syzygy']}",
    ]


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


def test_verify_eliminates_nothing(capsys, monkeypatch):
    # The benchmark's passing commands certify every rank they take, the
    # degree-2 ranks and the basis classes alike, and call rank_mod_p
    # nowhere: its one 2-D block at a time is sized for failing runs only.
    # Each command runs at seeds 0 and 1; the basis check is the one of
    # (4,4), m = 3, at the first prime above twice its points.
    calls = []
    for module in (curve, ideal):
        monkeypatch.setattr(module, "rank_mod_p", lambda mat, p: calls.append(mat.shape))
    need = curve.full_rank_oversample(4, 4, 3)
    for seed in ("0", "1"):
        for argv in (["verify", "--k", "5", "--n", "3"],
                     ["verify", "--grid", "--kmax", "4", "--nmax", "5", "--mmax", "3"]):
            code, rep, _ = run_json(capsys, *argv, "--seed", seed)
            assert code == 0 and rep["passed"] and calls == [], (argv, seed)
        pp = next(curve.suitable_params(4, 4, need, seed=int(seed), min_bound=2 * need))
        assert pp.p == 2833
        assert curve.basis_rank_check(pp, 3, need) and calls == [], seed


def test_verify_k_2_n_9_is_frozen(capsys):
    # Two independent routes agree at both primes: the certified span rank is
    # dim S_2 - d2, and the per-character dims are syzygy_table's mu - nu.
    code, rep, _ = run_json(capsys, "verify", "--k", "2", "--n", "9", "--seed", "1")
    assert code == 0 and rep["passed"] and rep["per_character_ok"]
    assert rep["primes"] == [11863, 11867]
    for deg2 in rep["degree2"].values():
        assert deg2["span_rank"] == deg2["dim_s2"] - dim_vm(2, 9, 2) == 293761


def test_verify_scans_each_prime_once(capsys, monkeypatch):
    # The prime search, both rank checks, the kernel and the equivariance
    # check all read one scan of each prime.
    scanned = []
    scan = curve._scan

    def spy(params):
        scanned.append(params.p)
        return scan(params)

    monkeypatch.setattr(curve, "_scan", spy)
    curve._scans.cache_clear()
    code, rep, _ = run_json(capsys, "verify", "--k", "3", "--n", "3", "--seed", "1")
    assert code == 0 and rep["passed"]
    assert set(rep["primes"]) <= set(scanned) and len(scanned) == len(set(scanned))


def ci_passes(monkeypatch) -> list[tuple[int, int]]:
    """The curves of each C_i pass made from now on, recorded by a spy."""
    calls = []
    ci_pass = indexsets._ci_pass

    def spy(k, n):
        calls.append((k, n))
        return ci_pass(k, n)

    monkeypatch.setattr(indexsets, "_ci_pass", spy)
    return calls


def test_verify_builds_standard_set_once(capsys, monkeypatch):
    # verify and both primes' degree-2 checks share one cached standard set,
    # one mask over the sumset's rows: with the C_i table cached, the one C_i
    # pass left is the mask's.
    indexsets.standard_set.cache_clear()
    indexsets.ci_shifts(4, 4)
    calls = ci_passes(monkeypatch)
    code, rep, _ = run_json(capsys, "verify", "--k", "4", "--n", "4", "--seed", "1")
    assert code == 0 and rep["passed"]
    assert calls == [(4, 4)]


def test_verify_builds_the_ci_table_once(capsys, monkeypatch):
    # Both primes' degree-2 checks read one cached C_i table: with the
    # standard set cached, the one C_i pass left is the table's.
    indexsets.ci_shifts.cache_clear()
    indexsets.standard_set(4, 4)
    calls = ci_passes(monkeypatch)
    code, rep, _ = run_json(capsys, "verify", "--k", "4", "--n", "4", "--seed", "1")
    assert code == 0 and rep["passed"] and len(rep["primes"]) == 2
    assert calls == [(4, 4)]


def test_verify_builds_no_index_set(capsys, monkeypatch):
    # verify reads every index set as lattice rows: no tuple set is built,
    # with every cache cold.
    built = []

    def spy(members):
        built.append(len(members))
        return index_set(members)

    index_set = indexsets.IndexSet
    for module in (indexsets, ideal):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
    monkeypatch.setattr(indexsets, "IndexSet", spy)
    code, rep, _ = run_json(capsys, "verify", "--k", "4", "--n", "4", "--seed", "1")
    assert code == 0 and rep["passed"]
    assert built == []


def test_verify_evaluates_through_the_matrix_kernel_only(capsys):
    # The equivariance check reads character_of through evaluation_matrix;
    # the scalar references live in the tests alone.
    assert not hasattr(curve, "evaluate_theta")
    assert not hasattr(reps, "action_exponent")
    code, rep, _ = run_json(capsys, "verify", "--k", "4", "--n", "4", "--seed", "1")
    assert code == 0 and rep["passed"] and rep["equivariance_ok"]


# The second routes that only the tests run, kept in tests/references.py.
TEST_ONLY = [
    "evaluate_theta", "divisor_of_x", "divisor_of_y", "divisor_of_dx", "divisor_degree",
    "monomial_sort_key", "compare_monomials", "reduce_stepwise", "reduce_to_basis", "phi2_matrix",
    "span_rank_by_character", "member_im", "action_exponent", "syzygy_multiplicity",
    "sumset_by_direct_sums", "count_partitions", "mu",
    "relations_vanish_at_by_monomials", "degree2_monomials", "Relation", "MonomialKey", "tau",
    "index_sum", "binomial_relations", "trinomial_relations", "parse_ideal_json",
    "enumerate_im_by_tuples", "minkowski_di1_by_tuples", "enumerate_ci_by_tuples",
    "shifted_ci_union_by_tuples", "standard_set_by_tuples", "nu_table_by_tuples",
    "rank_mod_p_array", "_eliminate", "character_blocks_one_by_one", "is_on_curve", "scan_by_x",
    "AffinePoint", "apply_group_to_point", "fiber_sizes_by_lookup", "export_text",
    "lattice_by_argsort", "ci_shifts_by_stack",
]
# Views deleted from the package, whose second routes are the tuple references
# minkowski_di1_by_tuples and enumerate_ci_by_tuples, and the J_h filter of mu;
# the stacked rank kernel with its stack bound, replaced by one 2-D
# linalg.rank_mod_p; the slice size of an export text read whole, which
# only the tests read, now through export_text; and the unsorted window grid,
# whose layout lattice_by_argsort keeps.
DELETED = ["minkowski_di1", "enumerate_ci", "enumerate_jd", "ranks_mod_p", "BASIS_STACK_CELLS",
           "SLICE_CHARS", "_window"]


def test_test_only_references_stay_out_of_the_package():
    # __main__ runs the command line on import, and defines nothing.
    modules = [gfcring] + [importlib.import_module(f"gfcring.{info.name}")
                           for info in pkgutil.iter_modules(gfcring.__path__)
                           if info.name != "__main__"]
    assert {"cli", "curve", "ideal", "indexsets", "linalg", "params", "reps"} <= {
        module.__name__.rsplit(".", 1)[-1] for module in modules}
    assert all(callable(getattr(references, name)) for name in TEST_ONLY)
    for name in TEST_ONLY + DELETED:
        assert [module.__name__ for module in modules if hasattr(module, name)] == [], name


def test_verify_compares_every_primes_per_character_dims(capsys, monkeypatch):
    # The per-character dims do not depend on the field: a second prime whose
    # dims are off by one fails the run, though its own checks all pass.
    verify_degree2_kernel = cli.verify_degree2_kernel
    primes = []

    def second_prime_off(params):
        rep = verify_degree2_kernel(params)
        primes.append(params.p)
        if len(primes) == 2:
            h = next(iter(rep["per_character"]))
            rep["per_character"][h] += 1
        return rep

    monkeypatch.setattr(cli, "verify_degree2_kernel", second_prime_off)
    code, rep, err = run_json(capsys, "verify", "--k", "3", "--n", "3", "--seed", "1")
    assert len(primes) == 2 and not err
    assert code == 1 and rep["per_character_ok"] is False
    assert all(per_prime["passed"] for per_prime in rep["degree2"].values())


def test_verify_point_floor_covers_every_sampled_check():
    # verify asks each prime for at least MIN_VERIFY_POINTS points, which the
    # degree-2 point check and the equivariance check both draw from.
    assert ideal.MIN_VERIFY_POINTS >= ideal.KERNEL_POINTS
    assert ideal.MIN_VERIFY_POINTS >= reps.EQUIVARIANCE_POINTS


def test_verify_reports_a_negative_syzygy_count(capsys, monkeypatch):
    # nu inflated at the trivial character drives mu - nu below zero there:
    # verify and the grid report it as a failed check, not a traceback.
    # nu_table hands nu_closed the label columns, h[j] the j-th entry of each.
    nu_closed = reps.nu_closed
    monkeypatch.setattr(reps, "nu_closed",
                        lambda k, n, m, h: nu_closed(k, n, m, h) + 10 * ~np.any(h, axis=0))
    code, rep, err = run_json(capsys, "verify", "--k", "3", "--n", "3")
    assert code == 1 and rep["per_character_ok"] is False and not err
    code, rep, err = run_json(capsys, "verify", "--grid", "--kmax", "3", "--nmax", "4",
                              "--mmax", "2")
    assert code == 1 and not err
    negative = {(row["k"], row["n"]) for row in rep["rows"] if not row["syzygy_nonneg_ok"]}
    assert negative == {(2, 4), (3, 3)}


def test_index_keys_past_int64_exit_2(capsys):
    # Refused before anything is allocated: one JSON error line, no output.
    for argv in (["basis", "--k", "65536", "--n", "6"],
                 ["multiplicities", "--k", "3", "--n", "3", "--kind", "nu", "--m", str(1 << 62)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and "int64" in json.loads(err)["error"], argv
        assert err.count("\n") == 1


def test_label_tables_numpy_cannot_lay_out_exit_2(capsys):
    # nu's k^n labels as n intp columns would pass 2^63 bytes (or 64 dimensions).
    for k, n in ((2, 62), (2, 64), (3, 40)):
        code, out, err = run(capsys, "multiplicities", "--kind", "nu", "--k", str(k),
                             "--n", str(n))
        assert (code, out) == (2, "") and "labels" in json.loads(err)["error"], (k, n)
        assert err.count("\n") == 1


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
    data = references.parse_ideal_json(out)
    pp = make_curve_params(3, 3, p=103)
    assert out == references.export_text(pp, "json")
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


REFERENCE = os.path.join(os.path.dirname(__file__), "reference")


# stdout and exit codes of a few cheap commands, recorded once: any change in
# what a command prints shows here.
@pytest.mark.parametrize("argv, code, name", [
    ("verify --k 3 --n 3 --seed 1", 0, "verify_k_3_n_3_seed_1"),
    ("verify --k 5 --n 2 --seed 1", 0, "verify_k_5_n_2_seed_1"),
    ("verify --k 2 --n 5 --seed 1", 0, "verify_k_2_n_5_seed_1"),
    ("verify --k 2 --n 7 --seed 1", 0, "verify_k_2_n_7_seed_1"),
    ("verify --k 4 --n 4 --seed 1", 0, "verify_k_4_n_4_seed_1"),
    ("verify --k 5 --n 3 --seed 1", 0, "verify_k_5_n_3_seed_1"),
    ("verify --k 3 --n 4 --seed 5 --prime 2147483647", 0,
     "verify_k_3_n_4_seed_5_prime_2147483647"),
    ("verify --grid --kmax 3 --nmax 4 --mmax 2 --seed 1", 0,
     "verify_grid_kmax_3_nmax_4_mmax_2_seed_1"),
    ("verify --grid --kmax 4 --nmax 5 --mmax 3 --seed 1", 0,
     "verify_grid_kmax_4_nmax_5_mmax_3_seed_1"),
    ("verify --k 3 --n 3 --seed 1 --format pretty", 0, "verify_k_3_n_3_seed_1_pretty"),
    ("export --k 3 --n 3 --format cas-text", 0, "export_k_3_n_3_cas-text"),
    ("basis --k 3 --n 3 --m 2", 0, "basis_k_3_n_3_m_2"),
    ("multiplicities --k 3 --n 3 --kind syzygy --d 3", 0,
     "multiplicities_k_3_n_3_syzygy_d_3"),
])
def test_reference_output(capsys, argv, code, name):
    with open(os.path.join(REFERENCE, name + ".txt")) as fh:
        expected = fh.read()
    assert run(capsys, *argv.split())[:2] == (code, expected)


# The help texts at 80 columns, recorded once: the top-level help lists
# every command, though a command's own parse builds only that command.
@pytest.mark.parametrize("argv, name", [
    ([], "help"), *(([command], command + "_help") for command in cli.COMMANDS)])
def test_help_is_the_reference_text(capsys, monkeypatch, argv, name):
    monkeypatch.setenv("COLUMNS", "80")
    with open(os.path.join(REFERENCE, name + ".txt")) as fh:
        expected = fh.read()
    with pytest.raises(SystemExit) as stop:
        main([*argv, "--help"])
    assert stop.value.code == 0
    assert capsys.readouterr() == (expected, "")


@pytest.mark.parametrize("argv, built", [
    (["export", "--k", "4", "--n", "4"], ["export"]),
    (["info", "--help"], ["info"]),
    ([], list(cli.COMMANDS)),
    (["--help"], list(cli.COMMANDS)),
    (["verif"], list(cli.COMMANDS)),
    (["--k", "3", "verify"], list(cli.COMMANDS)),
])
def test_parser_builds_only_the_command_argv_names(argv, built):
    parser = cli.build_parser(argv)
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(commands.choices) == built


@pytest.mark.parametrize("argv", [
    ["verify", "--k", "3", "--n", "3", "--seed", "1"],
    ["export", "--k", "3", "--n", "3"],
])
def test_a_fresh_run_never_imports_numpy_ma(argv):
    # numpy imports numpy.ma lazily, on first use by np.unique for one: some
    # 20 ms of a fresh process, more than such a run's whole computation.
    src = os.path.dirname(os.path.dirname(gfcring.__file__))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "gfcring", *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "numpy" in imported
    assert not [name for name in imported if name == "numpy.ma" or name.startswith("numpy.ma.")]


# The (4,4) export is 12.6 MB of JSON: its sha256 and length, recorded
# once, stand in for a reference file.
@pytest.mark.parametrize("fmt, size, digest", [
    ("json", 12588818, "5da865febff8d00ab3902521813cd632e5510a8207f599ea624c8d4e45317507"),
    ("cas-text", 1102623, "34da8ea8cc9127e25df1607c636e44961a63aab86c6105150139d55fec45d7cd"),
])
def test_export_k_4_n_4_digest(capsys, fmt, size, digest):
    code, out, err = run(capsys, "export", "--k", "4", "--n", "4", "--seed", "1", "--format", fmt)
    assert (code, err, len(out)) == (0, "", size)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class RecordedStdout(io.StringIO):
    """A stdout that keeps the length of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def test_output_is_written_in_slices(monkeypatch, tmp_path):
    # No write gets more than WRITE_SLICE characters, and the slices join to
    # the whole text, on stdout and in an --out file.
    monkeypatch.setattr(cli, "WRITE_SLICE", 1000)
    text = references.export_text(make_curve_params(3, 3, seed=1), "json")
    stdout = RecordedStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["export", "--k", "3", "--n", "3", "--seed", "1"]) == 0
    assert stdout.getvalue() == text
    assert max(stdout.sizes) == 1000 and len(stdout.sizes) == -(-len(text) // 1000)
    path = tmp_path / "ideal.json"
    assert main(["export", "--k", "3", "--n", "3", "--seed", "1", "--out", str(path)]) == 0
    assert path.read_text() == text
    report = tmp_path / "report.json"
    assert main(["multiplicities", "--k", "3", "--n", "3", "--out", str(report)]) == 0
    stdout.seek(0), stdout.truncate(), stdout.sizes.clear()
    assert main(["multiplicities", "--k", "3", "--n", "3"]) == 0
    assert stdout.getvalue() == report.read_text() and len(stdout.sizes) > 1


@pytest.mark.parametrize("pieces", [1, ideal.SLICE_PIECES])
@pytest.mark.parametrize("size", [1, 7, 4096, 1 << 30])
@pytest.mark.parametrize("k, n", [(3, 3), (2, 5)])
def test_streamed_export_is_the_reference_text(monkeypatch, tmp_path, k, n, size, pieces):
    # Whatever the write size and however many pieces the export reads at a
    # time, with pieces cut across writes and empty pieces read alone, stdout
    # and --out carry the reference text, WRITE_SLICE characters a write but
    # the last.
    monkeypatch.setattr(cli, "WRITE_SLICE", size)
    monkeypatch.setattr(ideal, "SLICE_PIECES", pieces)
    pp = make_curve_params(k, n, seed=1)
    for fmt, text in (("json", references.encoder_export(pp)),
                      ("cas-text", references.cas_text_export(pp))):
        argv = ["export", "--k", str(k), "--n", str(n), "--seed", "1", "--format", fmt]
        stdout = RecordedStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == 0 and stdout.getvalue() == text
        assert stdout.sizes == [size] * (len(text) // size) + [len(text) % size] * (len(text) % size > 0)
        path = tmp_path / f"ideal.{fmt}"
        assert main([*argv, "--out", str(path)]) == 0 and path.read_text() == text


def test_export_memory_is_bounded_by_a_slice(capsys, tmp_path):
    # The 12.6 MB (4,4) text is never held whole: the export peaks at a few
    # of its slices and the index rows it gathers them by.
    path = tmp_path / "ideal.json"
    argv = ["export", "--k", "4", "--n", "4", "--seed", "1", "--out", str(path)]
    assert main(argv) == 0  # the cached index sets and fiber runs
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 2


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


def test_prime_bound_env_zero_is_a_bound(capsys, monkeypatch):
    # 0 is a bound like 1, not an unset one: both start the search at k.
    primes = []
    for bound in ("0", "1"):
        monkeypatch.setenv("GFC_DEFAULT_PRIME_BOUND", bound)
        code, out, _ = run(capsys, "export", "--k", "3", "--n", "3", "--seed", "1")
        assert code == 0
        primes.append(json.loads(out)["p"])
    assert primes == [7, 7]


def test_prime_bound_env_below_the_lambda_draw(capsys, monkeypatch):
    # The bound is a starting point: the search begins at p >= n, where the
    # seeded draw of n - 2 lambda values fits.  A pinned prime is not moved.
    monkeypatch.setenv("GFC_DEFAULT_PRIME_BOUND", "3")
    code, rep, _ = run_json(capsys, "verify", "--k", "2", "--n", "4")
    assert code == 0 and rep["passed"]
    code, out, err = run(capsys, "verify", "--k", "2", "--n", "4", "--prime", "3")
    assert_one_json_error_line(code, out, err)


def assert_one_json_error_line(code, out, err, expected_code=2):
    assert code == expected_code
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert set(json.loads(lines[0])) == {"error"}
    assert "Traceback" not in err


def test_failed_embedded_check_is_one_json_error_line(capsys, monkeypatch):
    # An assertion inside the pipeline is a failed verification, exit 1,
    # reported as one line that names the function it failed in.
    def check_equivariance(params):
        raise AssertionError("planted")

    monkeypatch.setattr(cli, "check_equivariance", check_equivariance)
    code, out, err = run(capsys, "verify", "--k", "3", "--n", "3", "--seed", "1")
    assert_one_json_error_line(code, out, err, 1)
    assert json.loads(err) == {"error": "internal check failed in check_equivariance: planted"}


def test_prime_bound_env_rejects_junk(capsys, monkeypatch):
    monkeypatch.setenv("GFC_DEFAULT_PRIME_BOUND", "abc")
    code, out, err = run(capsys, "export", "--k", "3", "--n", "3")
    assert_one_json_error_line(code, out, err)
    assert "GFC_DEFAULT_PRIME_BOUND" in err


# A path below the null device, which cannot be created.
UNWRITABLE = os.path.join(os.devnull, "report.json")


@pytest.mark.parametrize("argv", [
    ["basis", "--k", "3", "--n", "3", "--m", "0"],
    ["multiplicities", "--k", "3", "--n", "3", "--kind", "mu", "--d", "0"],
    ["verify", "--k", "3", "--n", "3", "--prime", "foo"],
    ["multiplicities", "--k", "3", "--n", "3", "--char", "1,2"],
    ["info", "--k", "3", "--n", "3", "--out", UNWRITABLE],
    ["export", "--k", "3", "--n", "3", "--out", UNWRITABLE],
    ["info", "--k", "foo", "--n", "3"],
    ["info", "--k", "3"],
    ["export", "--k", "3", "--n", "3", "--format", "pretty"],
    ["info", "--k", "3", "--n", "3", "--format", "cas-text"],
    ["verify", "--lambda", "1,2", "--seed", "3"],
    ["verify", "--k", "3", "--n", "3", "--prime", "4294967311"],
    ["multiplicities", "--k", "3", "--n", "3", "--kind", "mu", "--d", "40000"],
    ["verify", "--grid", "--kmax", "3", "--nmax", "2"],
    ["verify", "--grid", "--mmax", "0"],
    ["verify", "--grid", "--kmax", "3", "--nmax", "3", "--lambda", "1,5"],
    ["export", "--k", "2", "--n", "4", "--prime", "3"],
    ["verify", "--k", "2", "--n", "6", "--prime", "5"],
    ["basis", "--k", "2", "--n", "56"],
    ["multiplicities", "--kind", "mu", "--k", "2", "--n", "56"],
    ["verify"],
    ["verify", "--k", "0", "--n", "0"],
    ["verify", "--k", "2", "--n", "56"],
    ["verify", "--k", "40", "--n", "13"],
    ["info", "--k", "10", "--n", "5000"],
    ["info", "--k", "2", "--n", "20000"],
])
@pytest.mark.usefixtures("hang_guard")
def test_bad_input_is_one_json_error_line(capsys, argv):
    assert_one_json_error_line(*run(capsys, *argv))


def test_lambda_error_names_the_value_as_given(capsys):
    # The default prime of (3,3) is 103, where 104 is the forbidden value 1.
    code, out, err = run(capsys, "verify", "--k", "3", "--n", "3", "--lambda", "1,104")
    assert_one_json_error_line(code, out, err)
    assert "104" in err and "103" in err


def test_grid_error_names_the_curve(capsys):
    # A pinned prime serves every curve of the grid; the error line names the
    # first curve it yields too few points for.
    code, out, err = run(capsys, "verify", "--grid", "--kmax", "4", "--nmax", "4",
                         "--mmax", "2", "--prime", "109")
    assert_one_json_error_line(code, out, err)
    assert json.loads(err)["error"].startswith("(k, n) = (3, 4): p = 109 yields only 81 points")


def test_failing_export_writes_no_file(capsys, tmp_path):
    # Every step of an export that can raise runs before --out is opened.
    path = tmp_path / "ideal.json"
    assert_one_json_error_line(*run(capsys, "export", "--k", "2", "--n", "56", "--out", str(path)))
    assert not path.exists()


@pytest.mark.parametrize("argv, bound", [
    (["verify", "--k", "3", "--n", "3", "--prime", "1000000000000000003"], None),
    (["verify", "--k", "3", "--n", "3"], "100000000000000000000"),
])
@pytest.mark.usefixtures("hang_guard")
def test_verify_rejects_a_huge_prime_before_testing_it(capsys, monkeypatch, argv, bound):
    # Trial division would take hours at these sizes; verify samples points,
    # and no prime this large passes the int64 guard, so it is refused first.
    if bound:
        monkeypatch.setenv("GFC_DEFAULT_PRIME_BOUND", bound)
    code, out, err = run(capsys, *argv)
    assert_one_json_error_line(code, out, err)
    assert "int64" in err


# A child process under an address-space limit that this interpreter, numpy
# and the gfcring imports fit in, but the command's enumeration does not.
# gfcring loads numpy with one BLAS thread, so only one thread's buffers
# count against the limit.
MEMORY_LIMIT = 600 * 2**20


def test_out_of_memory_is_one_json_error_line():
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))

    src = os.path.dirname(os.path.dirname(gfcring.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    argv = ["multiplicities", "--k", "30", "--n", "6", "--kind", "nu", "--m", "2"]
    proc = subprocess.run([sys.executable, "-m", "gfcring", *argv], capture_output=True,
                          text=True, env=env, preexec_fn=limit, timeout=60)
    assert_one_json_error_line(proc.returncode, proc.stdout, proc.stderr)
    assert "memory" in json.loads(proc.stderr)["error"]


@pytest.mark.parametrize("argv, key, value", [
    (["verify", "--k", "3", "--n", "3", "--prime", "1000000009"], "primes", [1000000009]),
    (["export", "--k", "3", "--n", "3", "--prime", "4294967311"], "p", 4294967311),
])
@pytest.mark.usefixtures("hang_guard")
def test_large_prime_exits_zero(capsys, argv, key, value):
    # Points at a prime near 2^30 are found without scanning the field, and
    # export runs no int64 code, so it takes primes above the int64 limit.
    code, report, err = run_json(capsys, *argv)
    assert code == 0 and err == ""
    assert report[key] == value


@pytest.mark.parametrize("prime, code", [
    ("4611686018427387847", 0),  # the largest prime below 2^62
    ("6000001968000013483", 0),  # p - 1 = 6 * 1000000007 * 1000000321
    ("226673612279295318930847", 0),  # p - 1 = 6 * 137438965819 * 274877907839
    ("1000000016000000063", 2),  # 1000000007 * 1000000009
])
@pytest.mark.usefixtures("hang_guard")
def test_export_decides_a_large_pinned_prime(capsys, prime, code):
    # export samples no points, so no int64 guard stands before the
    # primality test; the root of unity needs the divisors of k only, not
    # the factors of p - 1, so a p - 1 with two large factors costs nothing.
    got, out, err = run(capsys, "export", "--k", "3", "--n", "3", "--prime", prime)
    if code:
        assert_one_json_error_line(got, out, err)
        assert "not prime" in err
    else:
        assert got == 0 and err == "" and json.loads(out)["p"] == int(prime)


@pytest.mark.parametrize("kind", ["mu", "syzygy"])
@pytest.mark.usefixtures("hang_guard")
def test_multiplicities_refuse_a_degree_past_the_loop_limit(capsys, kind):
    # at (4,2), g = 3, the int64 guard admits degrees up to 2,642,244
    code, out, err = run(capsys, "multiplicities", "--k", "4", "--n", "2",
                         "--kind", kind, "--d", "2000000")
    assert_one_json_error_line(code, out, err)
    assert "2000000" in err and str(reps.MAX_MU_DEGREE) in err


# argv grammar for the fuzz test: every command with --k/--n, then any of its
# own flags and one stray flag, values drawn from small ints, negatives and
# junk.  Curves and grids stay at k, n <= 3 so that each run is fast, and
# --out is left out so that nothing is written.
INT_VALUES = ["3", "3", "2", "1", "0", "-1", "x", "", "1.5"]
INTS = st.sampled_from(INT_VALUES)
# A degree also runs a long multiplicity recurrence (80) or meets its int64
# guard (40000, for mu and syzygy).
DEGREES = st.sampled_from(INT_VALUES + ["80", "40000"])
LABELS = st.sampled_from(["1,51", "1,2", "0,0,0", "4,5,6", "1,1", "1,-2", "", "x"])
FLAG_VALUES = {
    "--k": INTS, "--n": INTS, "--m": INTS, "--d": DEGREES, "--seed": INTS,
    "--kmax": INTS, "--nmax": INTS, "--mmax": INTS,
    "--kind": st.sampled_from(["nu", "mu", "syzygy", "x"]),
    "--format": st.sampled_from(["json", "pretty", "cas-text", "x"]),
    "--char": LABELS, "--lambda": LABELS,
    "--prime": st.sampled_from(["auto", "7", "13", "101", "103", "109", "-5", "x",
                                 "1000000009", "4294967311"]),
    "--grid": None,
}
CURVE_SPEC = ["--lambda", "--seed", "--prime"]
OWN_FLAGS = {
    "info": [], "basis": ["--m"], "multiplicities": ["--kind", "--m", "--d", "--char"],
    "verify": ["--grid", "--kmax", "--nmax", "--mmax", *CURVE_SPEC], "export": CURVE_SPEC,
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(OWN_FLAGS)))
    stray = draw(st.sampled_from(sorted(FLAG_VALUES)))
    pool = ["--format", *OWN_FLAGS[command], stray]
    argv = [command]
    for flag in ["--k", "--n", *draw(st.lists(st.sampled_from(pool), unique=True))]:
        argv.append(flag)
        if FLAG_VALUES[flag] is not None:
            argv.append(draw(FLAG_VALUES[flag]))
    return argv


# More examples than the profile's 8: most argv stop at a parse error within
# microseconds, and 60 reach a successful run of every command.
@settings(max_examples=60)
@given(cli_argv())
def test_cli_fuzz_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert_one_json_error_line(code, out.getvalue(), err.getvalue())
    elif "--format" not in argv or argv[argv.index("--format") + 1] == "json":
        json.loads(out.getvalue())
