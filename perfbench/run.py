"""End-to-end benchmark of gfcring: one-shot child processes, checked outputs.

    python3 perfbench/run.py --workload kernel-5-3 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --summary

Each workload runs as a fresh child process, one at a time, in a closed loop
with a single client: that is how the CLI is used, and every call starts with
cold caches.  Every output is checked against oracles.py.  The last line of
standard output is one JSON object: with --trace 0 it carries the end-to-end
metrics, with --trace 1 the per-layer metrics of one extra traced child.
The line before it is the full result record.  --summary runs every workload
at the default and the held-out seed and prints every end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = BENCH / ".work"

DEFAULT_SEED = 0
# Confirm a gain on this seed only after it was found on others.
HELD_OUT_SEED = 7321
SETUP_SAMPLES = 9
# Every run ends within three minutes, the slowest child included.
RUN_DEADLINE_S = 170.0

WORKLOADS = {
    "kernel-5-3": lambda code, out: oracles.check_kernel(code, json.loads(out), 5, 3),
    "basis-4-4-m3": lambda code, out: oracles.check_basis(code, json.loads(out), 4, 4, 3),
    "grid-4x5": lambda code, out: oracles.check_grid(code, json.loads(out), 4, 5, 3),
    "export-4-4": lambda code, out: oracles.check_export(
        code, json.loads(out), str(WORK / "ideal.json"), 4, 4),
}

END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    **{f"{layer}.{name}": unit
       for layer in tracer.LAYERS
       for name, unit in (("self_s", "s"), ("calls", "count"), ("rss_rise_mb", "MB"))
       if f"{layer}.{name}" != "cli.calls"},
    "ideal.relations": "count",
    "ideal.export_bytes": "B",
    "curve.eval_entries": "count",
    "curve.eval_entries_per_s": "1/s",
    "linalg.cells": "count",
    "linalg.cells_per_s": "1/s",
    "linalg.s_per_call": "s",
    "indexsets.cache_hit_ratio": "ratio",
    "params.prime_accept_ratio": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def spawn(spec: dict, deadline: float) -> dict:
    """Run child.py once and reap it with wait4, so its rusage is its own.

    Returns the child's record, plus its wall time, CPU time and peak RSS,
    or an "error" entry when it failed or overran the deadline.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(WORK / "child.out", "w+") as out, open(WORK / "child.err", "w+") as err:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    proc.returncode = os.waitstatus_to_exitcode(status)
                    return {"error": "deadline passed", "spawned_at": start}
                time.sleep(0.005)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        text, errtext = out.read(), err.read()
    if proc.returncode != 0:
        return {"error": f"child exit {proc.returncode}: {errtext.strip()[-500:]}",
                "spawned_at": start}
    try:
        rec = json.loads(text.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"child printed no record: {text[-200:]!r}", "spawned_at": start}
    rec.update(spawned_at=start, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
               peak_rss_mb=usage.ru_maxrss / 1024)
    if not rec.get("gfcring", "").startswith(str(SRC)):
        raise BenchError(f"gfcring imported from {rec.get('gfcring')}, not from {SRC}")
    return rec


def setup_sample(deadline: float) -> float:
    """Seconds from spawning an interpreter until `import gfcring` returned."""
    rec = spawn({"workload": "setup"}, deadline)
    if "error" in rec:
        raise BenchError(f"gfcring does not import: {rec['error']}")
    return rec["imported_at"] - rec["spawned_at"]


def run_checked(name: str, seed: int, trace: bool, deadline: float) -> dict:
    """One child on one workload, with its output checked."""
    rec = spawn({"workload": name, "seed": seed, "trace": trace, "work": str(WORK)}, deadline)
    if "error" not in rec:
        try:
            errors, facts = WORKLOADS[name](rec["exit"], rec["output"])
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            errors, facts = [f"malformed output: {exc!r}"], {}
        rec.update(facts)
        if errors:
            rec["error"] = "; ".join(errors[:5])
    rec.pop("output", None)
    (WORK / "ideal.json").unlink(missing_ok=True)
    return rec


def per_layer_metrics(rec: dict, untraced_run_s: float) -> dict[str, float]:
    """Layer metrics of the traced child, plus the ratios that need its output
    or the untraced runs."""
    spans = rec["spans"]
    out = tracer.layer_metrics(spans, rec["work"])
    tried = sum(1 for s in spans if s[tracer.NAME] == "params.make_curve_params")
    out["params.prime_accept_ratio"] = rec["primes_used"] / tried if tried else 0.0
    out["indexsets.cache_hit_ratio"] = rec["cache_hit_ratio"]
    attributed = sum(out[f"{layer}.self_s"] for layer in tracer.LAYERS)
    out["trace.unattributed_frac"] = 1 - attributed / rec["run_s"]
    out["trace.overhead_frac"] = rec["run_s"] / untraced_run_s - 1
    return out


def commit_id() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload: children back to back while one more, as long
    as the last, still ends within `seconds`; set-up samples go between the
    first of them."""
    if not (SRC / "gfcring" / "__init__.py").is_file():
        raise BenchError(f"no gfcring sources under {SRC}")
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        # The first import writes the bytecode caches, as an installed package
        # would have them, and is not timed.  The timed imports are spread
        # over the run, since the machine's speed drifts within seconds.
        setup_sample(deadline)
        setup: list[float] = []
        runs: list[dict] = []
        loop_start, took = time.monotonic(), 0.0
        while not runs or time.monotonic() - loop_start + took <= seconds:
            began = time.monotonic()
            if len(setup) < SETUP_SAMPLES:
                setup.append(setup_sample(deadline))
            runs.append(run_checked(name, seed, False, deadline))
            took = time.monotonic() - began
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample(deadline))
        traced = run_checked(name, seed, True, deadline) if trace else None
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    good = [r for r in runs if "error" not in r]
    if not good:
        raise BenchError(f"every run of {name} failed: {runs[0]['error']}")
    attempted = len(runs) + (traced is not None)
    failed = len(runs) - len(good) + (traced is not None and "error" in traced)
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(r["run_s"] for r in good),
        "cpu_s": statistics.median(r["cpu_s"] for r in good),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
    }
    if traced is not None and "error" in traced:
        raise BenchError(f"the traced run of {name} failed: {traced['error']}")
    layers = per_layer_metrics(traced, metrics["run_s"]) if traced is not None else None
    record = {
        "workload": name, "seed": seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds, "trace": trace,
        "commit": commit_id(), "nproc": os.cpu_count(),
        "python": good[0]["python"], "numpy": good[0]["numpy"],
        "setup_samples_s": setup,
        "runs": [{k: r.get(k) for k in ("run_s", "cpu_s", "peak_rss_mb", "wall_s",
                                        "primes", "lambda", "error")} for r in runs],
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "max_run_s": max(r["run_s"] for r in good),
        "metrics": metrics, "layers": layers,
    }
    return record


def result_line(record: dict) -> dict:
    if record["layers"] is None:
        values, units = record["metrics"], END_TO_END
    else:
        values, units = record["layers"], PER_LAYER
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
    }


def summary(seconds: float) -> int:
    """Every workload at the default and the held-out seed, one metric a line."""
    worst = 0.0
    for name in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            rec = run_workload(name, seed, seconds, trace=False)
            rows = [(k, v, END_TO_END[k]) for k, v in rec["metrics"].items()]
            rows.append(("fail_frac", rec["fail_frac"], "ratio"))
            for k, v, unit in rows:
                print(f"{name:13} seed={seed:<5} {k:12} {v:12.4f} {unit}  "
                      f"({len(rec['runs'])} samples, primes {rec['runs'][0]['primes']})")
            worst = max(worst, rec["fail_frac"])
            sys.stdout.flush()
    return 0 if worst == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summary", action="store_true",
                        help="every workload at the default and held-out seeds")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so spawn() kills the running child first.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.summary:
            return summary(args.seconds)
        if not args.workload:
            parser.error("--workload or --summary is required")
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record))
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
