"""One-shot child: import gfcring, run one workload once, print one JSON line.

    python3 child.py '{"workload": "kernel-5-3", "seed": 1, "trace": false, "work": DIR}'

The workload "setup" only imports the package.  The printed line holds the
moment the import returned (time.monotonic, comparable with the parent's
clock), the wall time of the workload call, its exit code and output, and,
when tracing, the spans and work counters.  run.py checks the output.
"""

import json
import sys
import time

spec = json.loads(sys.argv[1])
import gfcring  # noqa: E402  -- the import is the set-up being timed

imported_at = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402

import numpy  # noqa: E402


def _cli(argv: list[str]):
    from gfcring import cli

    return "cli.main", cli.main, (argv,), lambda result, stdout: (result, stdout)


def _basis(seed: int, k: int = 4, n: int = 4, m: int = 3):
    """The first prime above twice the point count that has enough points,
    found outside the timed call.  That is 2833, the Tier-1 test's prime, for
    nearly every seed, so the seed changes lambda but not the problem size."""
    from gfcring import curve, params

    need = curve.full_rank_oversample(k, n, m)
    bound = 2 * need
    while True:
        pp = params.make_curve_params(k, n, seed=seed, min_bound=bound)
        if len(curve.sample_points(pp, need)[0]) >= need:
            break
        bound = pp.p + 1

    def output(result, stdout):
        from gfcring import indexsets
        out = {"primes": [pp.p], "lambda": list(pp.lam), "points": need,
               "basis_size": len(indexsets.enumerate_im(k, n, m).members),
               "full_rank": result}
        return 0, json.dumps(out)

    return "curve.basis_rank_check", curve.basis_rank_check, (pp, m, need), output


def workload_call(name: str, seed: int, work: str):
    """(span name, function, arguments, output formatter) of one workload."""
    if name == "kernel-5-3":
        return _cli(["verify", "--k", "5", "--n", "3", "--seed", str(seed)])
    if name == "grid-4x5":
        return _cli(["verify", "--grid", "--kmax", "4", "--nmax", "5", "--mmax", "3",
                     "--seed", str(seed)])
    if name == "export-4-4":
        return _cli(["export", "--k", "4", "--n", "4", "--seed", str(seed),
                     "--out", os.path.join(work, "ideal.json")])
    if name == "basis-4-4-m3":
        return _basis(seed)
    raise SystemExit(f"unknown workload {name!r}")


def cache_hit_ratio(module) -> float:
    """Hits over lookups of the module's lru-cached functions."""
    infos = [f.cache_info() for f in vars(module).values() if hasattr(f, "cache_info")]
    hits = sum(i.hits for i in infos)
    lookups = hits + sum(i.misses for i in infos)
    return hits / lookups if lookups else 0.0


def main() -> None:
    record = {"imported_at": imported_at, "gfcring": gfcring.__file__}
    if spec["workload"] != "setup":
        name, fn, args, output = workload_call(spec["workload"], spec["seed"], spec["work"])
        tracer = None
        if spec["trace"]:
            import tracer as tracing
            tracer = tracing.Tracer()
            tracer.install()
            fn = tracer.wrap(fn, name)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            result = fn(*args)
            record["run_s"] = time.perf_counter() - start
        if tracer:
            tracer.restore()
            from gfcring import indexsets
            record["spans"] = tracer.spans
            record["work"] = dict(tracer.work)
            record["cache_hit_ratio"] = cache_hit_ratio(indexsets)
        record["exit"], record["output"] = output(result, buf.getvalue())
        record["python"] = platform.python_version()
        record["numpy"] = numpy.__version__
    sys.stdout.write(json.dumps(record) + "\n")


main()
