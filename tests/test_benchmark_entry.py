"""The benchmark's entry points run against this checkout's package.

perfbench/child.py reaches each workload through names of the package
(cli.main, curve.basis_rank_check, curve.sample_points, ...), and a traced
run patches more of them by name.  Each workload runs once here, its output
checked by the benchmark's own oracles, so that a renamed or re-typed name
fails here before it fails a benchmark run.  Nothing is written under
perfbench/: the children write no bytecode, and the oracles are run from
source.
"""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
ORACLES = runpy.run_path(str(BENCH / "oracles.py"))

# workload -> check of (exit code, printed output, work directory), as run.py checks it
CHECKS = {
    "kernel-5-3": lambda code, out, work: ORACLES["check_kernel"](code, json.loads(out), 5, 3),
    "basis-4-4-m3": lambda code, out, work: ORACLES["check_basis"](
        code, json.loads(out), 4, 4, 3),
    "grid-4x5": lambda code, out, work: ORACLES["check_grid"](code, json.loads(out), 4, 5, 3),
    "export-4-4": lambda code, out, work: ORACLES["check_export"](
        code, json.loads(out), str(work / "ideal.json"), 4, 4),
}


def spawn(workload: str, work: Path, trace: bool = False) -> dict:
    spec = {"workload": workload, "seed": 0, "trace": trace, "work": str(work)}
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                          capture_output=True, text=True, env=env, cwd=work, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_workloads_pass_their_oracles(tmp_path):
    for name, check in CHECKS.items():
        rec = spawn(name, tmp_path)
        assert Path(rec["gfcring"]).is_relative_to(ROOT / "src")
        assert check(rec["exit"], rec["output"], tmp_path)[0] == [], name
    # tracer.install finds every binding it patches, or the child fails
    rec = spawn("kernel-5-3", tmp_path, trace=True)
    assert CHECKS["kernel-5-3"](rec["exit"], rec["output"], tmp_path)[0] == []
    names = {span[0] for span in rec["spans"]}
    assert {"cli.main", "ideal.verify_degree2_kernel", "curve.basis_rank_check"} <= names


def test_traced_export_counts_the_bytes_it_wrote(tmp_path):
    # the tracer books export_ideal's work as len() of the text it returns
    rec = spawn("export-4-4", tmp_path, trace=True)
    assert CHECKS["export-4-4"](rec["exit"], rec["output"], tmp_path)[0] == []
    assert "ideal.export_ideal" in {span[0] for span in rec["spans"]}
    assert rec["work"]["ideal.export_bytes"] == json.loads(rec["output"])["bytes"]
    # and the generators as the rows of the two generator arrays it read
    # (23352 binomials and 1809 trinomials at seed 0)
    written = json.loads((tmp_path / "ideal.json").read_text())
    assert rec["work"]["ideal.relations"] == len(written["binomials"]) + len(written["trinomials"])
