"""Expected outputs of each workload, from closed forms only.

Nothing here imports gfcring: every number the benchmark checks a run
against is derived independently, so a wrong answer from the program cannot
also be the answer it is checked against.  Each check returns a list of
problems (empty when the output is right) and the facts a result record keeps.
"""

from __future__ import annotations

import itertools
import json


def genus(k: int, n: int) -> int:
    """g = 1 + k^(n-1) ((k-1)(n-1) - 2) / 2; the product is always even."""
    return 1 + k ** (n - 1) * ((k - 1) * (n - 1) - 2) // 2


def dim_vm(k: int, n: int, m: int) -> int:
    """Riemann-Roch: g for m = 1, (2m-1)(g-1) above."""
    g = genus(k, n)
    return g if m == 1 else (2 * m - 1) * (g - 1)


def _a_vectors(k: int, n: int):
    return itertools.product(range(2 * k - 1), repeat=n - 1)


def sumset_size(k: int, n: int) -> int:
    """|I_1 + I_1| = sum over a in [0, 2k-2]^(n-1) of max(0, |a| - 3)."""
    return sum(max(0, sum(a) - 3) for a in _a_vectors(k, n))


def ci_size(k: int, n: int, i: int) -> int:
    """|C_i| = sum over a with k <= a_i <= 2k-2 of max(0, |a| - k - 3)."""
    return sum(max(0, sum(a) - k - 3) for a in _a_vectors(k, n) if a[i - 1] >= k)


def degree2_counts(k: int, n: int) -> dict[str, int]:
    g = genus(k, n)
    dim_s2 = g * (g + 1) // 2
    d2 = dim_vm(k, n, 2)
    return {
        "dim_s2": dim_s2,
        "phi2_rank": d2,
        "ker_dim": dim_s2 - d2,
        "span_rank": dim_s2 - d2,
        "standard_count": d2,
        "n_binomials": dim_s2 - sumset_size(k, n),
        "n_trinomials": sum(ci_size(k, n, i) for i in range(1, n)),
    }


def full_rank_points(k: int, n: int, m: int) -> int:
    """Points in m((k-1)(n-1)-2)+1 complete x-fibers of k^(n-1) points."""
    return k ** (n - 1) * (m * ((k - 1) * (n - 1) - 2) + 1)


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _check_primes(primes, k: int, count: int) -> list[str]:
    errs = []
    if not isinstance(primes, list) or len(primes) != count or len(set(primes)) != count:
        return [f"expected {count} distinct primes, got {primes!r}"]
    for p in primes:
        if not (isinstance(p, int) and is_prime(p) and p % k == 1):
            errs.append(f"{p!r} is not a prime = 1 mod {k}")
    return errs


def _check_lambda(lam, n: int, p: int) -> list[str]:
    if not (isinstance(lam, list) and len(lam) == n - 1 and lam[0] == 1
            and len(set(lam)) == n - 1 and all(isinstance(v, int) and 1 < v < p for v in lam[1:])):
        return [f"bad lambda vector {lam!r}"]
    return []


def check_kernel(code: int, report: dict, k: int, n: int) -> tuple[list[str], dict]:
    """`gfcring verify --k K --n N`: every check passes at two primes, with
    the frozen degree-2 counts."""
    if code != 0:
        return [f"exit code {code}"], {}
    errs: list[str] = []
    primes = report.get("primes")
    errs += _check_primes(primes, k, 2)
    if errs:
        return errs, {}
    errs += _check_lambda(report.get("lambda"), n, min(primes))
    if (report.get("k"), report.get("n")) != (k, n):
        errs.append(f"curve {(report.get('k'), report.get('n'))} != {(k, n)}")
    for flag in ("passed", "standard_set_identity", "equivariance_ok", "per_character_ok"):
        if report.get(flag) is not True:
            errs.append(f"{flag} is {report.get(flag)!r}")
    for m in (1, 2):
        got = report.get("basis_rank", {}).get(f"m={m}", {})
        if got != {str(p): True for p in primes}:
            errs.append(f"basis rank m={m}: {got!r}")
    want = degree2_counts(k, n)
    degree2 = report.get("degree2") or {}
    if sorted(degree2) != sorted(str(p) for p in primes):
        errs.append(f"degree2 primes {sorted(degree2)} != {primes}")
    for p, rep in degree2.items():
        for key, val in want.items():
            if rep.get(key) != val:
                errs.append(f"p={p}: {key} = {rep.get(key)!r}, expected {val}")
        for key, val in rep.items():
            if (key.endswith("_ok") or key == "passed") and val is not True:
                errs.append(f"p={p}: {key} is {val!r}")
        if sum(rep.get("per_character", {}).values()) != want["span_rank"]:
            errs.append(f"p={p}: per-character dims do not sum to the span rank")
        if not rep.get("points_used", 0) >= 50:
            errs.append(f"p={p}: only {rep.get('points_used')!r} points used")
    return errs, {"primes": primes, "lambda": report.get("lambda"), "primes_used": 2}


def grid_curves(kmax: int, nmax: int) -> list[tuple[int, int]]:
    return [(k, n) for k in range(2, kmax + 1) for n in range(2, nmax + 1)
            if (k - 1) * (n - 1) > 2]


def check_grid(code: int, report: dict, kmax: int, nmax: int, mmax: int) -> tuple[list[str], dict]:
    """`gfcring verify --grid`: one passing row per non-hyperelliptic curve."""
    if code != 0:
        return [f"exit code {code}"], {}
    errs: list[str] = []
    if report.get("grid") != {"kmax": kmax, "nmax": nmax, "mmax": mmax}:
        errs.append(f"grid header {report.get('grid')!r}")
    if report.get("passed") is not True:
        errs.append(f"passed is {report.get('passed')!r}")
    rows = report.get("rows", [])
    got = [(r.get("k"), r.get("n")) for r in rows]
    if got != grid_curves(kmax, nmax):
        errs.append(f"rows {got} != {grid_curves(kmax, nmax)}")
    for r in rows:
        bad = [key for key, val in r.items() if key not in ("k", "n") and val not in (True, None)]
        if bad or r.get("passed") is not True:
            errs.append(f"row {(r.get('k'), r.get('n'))} fails {bad}")
    # Each curve whose degree-2 kernel was verified used two primes.
    kernel_rows = sum(1 for r in rows if r.get("degree2_ok") is not None)
    return errs, {"primes_used": 2 * kernel_rows}


def check_basis(code: int, out: dict, k: int, n: int, m: int) -> tuple[list[str], dict]:
    """basis_rank_check: full rank d_m on the oversampled points."""
    if code != 0:
        return [f"exit code {code}"], {}
    errs = _check_primes(out.get("primes"), k, 1)
    if errs:
        return errs, {}
    errs += _check_lambda(out.get("lambda"), n, out["primes"][0])
    if out.get("basis_size") != dim_vm(k, n, m):
        errs.append(f"|I_{m}| = {out.get('basis_size')!r}, expected {dim_vm(k, n, m)}")
    if out.get("points") != full_rank_points(k, n, m):
        errs.append(f"{out.get('points')!r} points, expected {full_rank_points(k, n, m)}")
    if out.get("full_rank") is not True:
        errs.append(f"full rank {out.get('full_rank')!r}")
    return errs, {"primes": out["primes"], "lambda": out.get("lambda"), "primes_used": 1}


def _index_sum(mono) -> tuple[int, ...]:
    return tuple(map(sum, zip(*mono)))


def _in_window1(t, k: int, n: int) -> bool:
    return (len(t) == n and all(0 <= a <= k - 1 for a in t[1:])
            and 0 <= t[0] <= sum(t[1:]) - 2)


def check_export(code: int, report: dict, path: str, k: int, n: int) -> tuple[list[str], dict]:
    """`gfcring export --format json --out PATH`: the file parses and holds
    the generator counts, and every binomial lies over one index-sum."""
    if code != 0:
        return [f"exit code {code}"], {}
    try:
        with open(path) as fh:
            text = fh.read()
        data = json.loads(text)
    except (OSError, ValueError) as exc:
        return [f"export file unreadable: {exc}"], {}
    errs: list[str] = []
    p = data.get("p")
    errs += _check_primes([p], k, 1)
    if errs:
        return errs, {}
    if report.get("bytes") != len(text) or report.get("p") != p:
        errs.append(f"stdout report {report!r} disagrees with the file")
    if (data.get("k"), data.get("n")) != (k, n):
        errs.append(f"curve {(data.get('k'), data.get('n'))} != {(k, n)}")
    errs += _check_lambda(data.get("lambda"), n, p)
    variables = [tuple(v) for v in data.get("variables", [])]
    if len(variables) != genus(k, n) or len(set(variables)) != len(variables):
        errs.append(f"{len(variables)} variables, expected {genus(k, n)} distinct")
    if not all(_in_window1(t, k, n) for t in variables):
        errs.append("a variable lies outside the degree-1 window")
    want = degree2_counts(k, n)
    bins, tris = data.get("binomials", []), data.get("trinomials", [])
    if len(bins) != want["n_binomials"]:
        errs.append(f"{len(bins)} binomials, expected {want['n_binomials']}")
    if len(tris) != want["n_trinomials"]:
        errs.append(f"{len(tris)} trinomials, expected {want['n_trinomials']}")
    for rel in bins:
        if (len(rel) != 2 or [t["coeff"] for t in rel] != [1, -1]
                or _index_sum(rel[0]["factors"]) != _index_sum(rel[1]["factors"])):
            errs.append(f"binomial {rel!r} is not M - M' over one index-sum")
            break
    if any(len(rel) != 3 for rel in tris):
        errs.append("a trinomial does not have three terms")
    return errs, {"primes": [p], "lambda": data.get("lambda"), "primes_used": 1}
