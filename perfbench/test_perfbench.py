"""Tests of the benchmark itself: span arithmetic, oracles, tracer restore.

    python3 -m pytest perfbench
"""

import contextlib
import copy
import io
import json
import sys

import pytest

import oracles
import run
import tracer

sys.path.insert(0, str(run.SRC))

from gfcring import cli  # noqa: E402


def span(name, start, end, parent, rss0=0, rss1=0):
    return [name, start, end, parent, rss0, rss1]


def test_self_time_of_nested_spans():
    spans = [
        span("cli.main", 0.0, 10.0, -1, 100, 400),
        span("ideal.verify", 1.0, 7.0, 0, 100, 350),
        span("linalg.rank", 2.0, 3.0, 1, 100, 150),
        span("linalg.rank", 4.0, 6.5, 1, 150, 300),
        span("curve.sample_points", 8.0, 9.0, 0, 350, 360),
    ]
    selfs = tracer.self_values(spans)
    assert [round(t, 9) for t, _ in selfs] == [3.0, 2.5, 1.0, 2.5, 1.0]
    assert [rss for _, rss in selfs] == [40, 50, 50, 150, 10]
    m = tracer.layer_metrics(spans, {"linalg.cells": 600})
    assert m["linalg.self_s"] == pytest.approx(3.5)
    assert m["linalg.calls"] == 2
    assert m["linalg.s_per_call"] == pytest.approx(1.75)
    assert m["linalg.cells_per_s"] == pytest.approx(600 / 3.5)
    assert m["ideal.rss_rise_mb"] == pytest.approx(50 / 1024)
    # Self times add up to the root span: nothing is counted twice.
    assert sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS) == pytest.approx(10.0)


def test_overlapping_children_are_covered_once():
    spans = [span("cli.main", 0.0, 10.0, -1), span("ideal.a", 1.0, 5.0, 0),
             span("ideal.b", 3.0, 12.0, 0)]
    assert tracer.self_values(spans)[0][0] == pytest.approx(1.0)


def _cli_output(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def kernel_report():
    code, out = _cli_output(["verify", "--k", "3", "--n", "3", "--seed", "4"])
    return code, json.loads(out)


def test_kernel_oracle_accepts_a_correct_report(kernel_report):
    code, report = kernel_report
    errors, facts = oracles.check_kernel(code, report, 3, 3)
    assert errors == []
    assert facts["primes"] == report["primes"]


def _first_prime(report):
    return next(iter(report["degree2"].values()))


@pytest.mark.parametrize("corrupt", [
    lambda r: _first_prime(r).update(span_rank=_first_prime(r)["span_rank"] + 1),
    lambda r: r.update(passed=False),
    lambda r: _first_prime(r).update(point_kernel_ok=False),
    lambda r: r.update(primes=[r["primes"][0]] * 2),
])
def test_kernel_oracle_rejects_a_corrupted_report(kernel_report, corrupt):
    code, report = kernel_report
    report = copy.deepcopy(report)
    corrupt(report)
    errors, _ = oracles.check_kernel(code, report, 3, 3)
    assert errors


def test_kernel_oracle_rejects_a_failing_exit(kernel_report):
    assert oracles.check_kernel(1, kernel_report[1], 3, 3)[0]


def test_grid_oracle_rejects_a_failed_row():
    code, out = _cli_output(["verify", "--grid", "--kmax", "3", "--nmax", "4", "--mmax", "2"])
    report = json.loads(out)
    assert oracles.check_grid(code, report, 3, 4, 2)[0] == []
    report["rows"][-1]["passed"] = False
    assert oracles.check_grid(code, report, 3, 4, 2)[0]
    del report["rows"][-1]
    assert oracles.check_grid(code, report, 3, 4, 2)[0]


def test_export_oracle_rejects_truncated_json(tmp_path):
    path = tmp_path / "ideal.json"
    code, out = _cli_output(["export", "--k", "4", "--n", "3", "--seed", "2", "--out", str(path)])
    report = json.loads(out)
    assert oracles.check_export(code, report, str(path), 4, 3)[0] == []
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    assert oracles.check_export(code, report, str(path), 4, 3)[0]


def test_export_oracle_rejects_a_binomial_across_fibers(tmp_path):
    path = tmp_path / "ideal.json"
    code, out = _cli_output(["export", "--k", "3", "--n", "3", "--out", str(path)])
    data = json.loads(path.read_text())
    data["binomials"][0][0]["factors"][0][0] += 1
    path.write_text(json.dumps(data))
    report = dict(json.loads(out), bytes=len(path.read_text()))
    assert oracles.check_export(code, report, str(path), 3, 3)[0]


def test_oracle_counts_match_the_frozen_values():
    assert oracles.degree2_counts(5, 3) == {
        "dim_s2": 2926, "phi2_rank": 225, "ker_dim": 2701, "span_rank": 2701,
        "standard_count": 225, "n_binomials": 2511, "n_trinomials": 200}
    assert oracles.genus(5, 4) == 626
    assert oracles.degree2_counts(5, 4)["n_binomials"] == 189675
    assert oracles.degree2_counts(5, 4)["n_trinomials"] == 6363
    assert oracles.dim_vm(4, 4, 3) == 1120
    assert oracles.full_rank_points(4, 4, 3) == 1408


def _bindings():
    return {(layer, attr): obj
            for layer in tracer.LAYERS
            for attr, obj in vars(sys.modules[f"gfcring.{layer}"]).items()}


def test_tracer_restores_every_binding():
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.verify_degree2_kernel is not before[("cli", "verify_degree2_kernel")]
        _cli_output(["verify", "--k", "3", "--n", "3"])
    finally:
        t.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    names = {s[tracer.NAME] for s in t.spans}
    assert {"ideal.verify_degree2_kernel", "linalg.rank_mod_p_array",
            "curve.evaluate_theta"} <= names
    assert t.work["ideal.relations"] > 0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
