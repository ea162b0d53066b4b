"""Command-line surface: JSON-first reports, exit codes for scripted grids.

Exit codes: 0 = all embedded assertions passed, 1 = a verification failed
(a false check, or a failed embedded assertion: nothing on stdout, one JSON
line {"error": "internal check failed in <function>: <message>"} on stderr),
2 = bad input: an argument argparse rejects, a parameter outside the domain,
a prime too small to sample points, a non-integer GFC_DEFAULT_PRIME_BOUND,
an unwritable --out or an input too large for memory.  Exit 2 writes one
JSON line {"error": ...} to stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from typing import Iterator, NoReturn, Sequence

from .curve import (
    InsufficientPointsError,
    basis_rank_check,
    divisor_of_theta,
    full_rank_oversample,
    suitable_params,
)
from .ideal import MIN_VERIFY_POINTS, SlicedText, export_ideal, verify_degree2_kernel
from .indexsets import count_im, enumerate_im, standard_set_identity, total_degree_d_monomials
from .params import (
    CurveParams,
    ParameterError,
    dim_vm,
    genus,
    is_nonhyperelliptic,
    require_nonhyperelliptic,
)
from .reps import all_labels, check_equivariance, mu_table, nu_table, syzygy_table

# Curves on which the degree-2 kernel pipeline runs in grid mode; larger
# grid members are combinatorics-only to keep the default grid under a minute.
KERNEL_GRID = {(2, 4), (2, 5), (3, 3), (4, 2), (3, 4)}


def _label_str(h) -> str:
    return ",".join(str(x) for x in h)


def _curve_params(
    args: argparse.Namespace, needed_points: int = 0
) -> Iterator[CurveParams]:
    """The library's prime iterator for this run's curve specification."""
    env = os.environ.get("GFC_DEFAULT_PRIME_BOUND", "") if args.prime is None else ""
    if env and not env.isdecimal():
        raise ParameterError(f"GFC_DEFAULT_PRIME_BOUND must be a decimal integer, got {env!r}")
    return suitable_params(args.k, args.n, needed_points, lam=args.lam, seed=args.seed,
                           p=args.prime, min_bound=int(env) if env else None)


# --- commands -----------------------------------------------------------------

def cmd_info(args: argparse.Namespace) -> dict:
    require_nonhyperelliptic(args.k, args.n)
    dims = {str(m): dim_vm(args.k, args.n, m) for m in range(1, 7)}
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if limit and dims["6"] >= 10 ** limit:  # the largest integer of the report
        raise ParameterError(f"curve ({args.k}, {args.n}) has dimensions of more than {limit} "
                             "digits, the limit sys.get_int_max_str_digits() sets on "
                             "printing an integer")
    return {"k": args.k, "n": args.n, "genus": genus(args.k, args.n), "dims": dims}


def cmd_basis(args: argparse.Namespace) -> dict:
    require_nonhyperelliptic(args.k, args.n)
    m = args.m
    members = enumerate_im(args.k, args.n, m).members
    expected = dim_vm(args.k, args.n, m)
    rows = [
        {"index": list(t), "divisor": list(divisor_of_theta(args.k, args.n, m, t))}
        for t in members
    ]
    ok = len(rows) == expected and all(min(r["divisor"]) >= 0 for r in rows)
    return {
        "k": args.k, "n": args.n, "m": m,
        "count": len(rows), "expected": expected, "passed": ok,
        "rows": rows,
    }


def cmd_multiplicities(args: argparse.Namespace) -> dict:
    k, n, kind = args.k, args.n, args.kind
    # nu is graded by the weight --m, mu and syzygy by the degree --d; either
    # flag stands in for the other.
    own, other = (args.m, args.d) if kind == "nu" else (args.d, args.m)
    degree = own if own is not None else (other if other is not None else 1)
    require_nonhyperelliptic(k, n)
    wanted = None if args.char is None else tuple(x % k for x in args.char)
    if wanted is not None and len(wanted) != n:
        raise ParameterError(f"--char label {_label_str(args.char)} has length "
                             f"{len(wanted)}, expected n = {n}")

    if kind == "nu":
        closed = nu_table(k, n, degree, closed=True)
        brute = nu_table(k, n, degree, closed=False)
        agree = {h: closed[h] == brute[h] for h in closed}
        columns = {"nu_closed": closed, "nu_bruteforce": brute, "agree": agree}
        counted, expected_total, ok = closed, dim_vm(k, n, degree), all(agree.values())
    else:
        mu_d = mu_table(k, n, degree)
        sym_dim = total_degree_d_monomials(k, n, degree)
        if kind == "mu":
            columns = {"mu": mu_d}
            counted, expected_total, ok = mu_d, sym_dim, True
        else:
            nu_d = nu_table(k, n, degree)
            syz = {h: mu_d[h] - nu_d[h] for h in mu_d}
            columns = {"mu": mu_d, "nu": nu_d, "syzygy": syz}
            counted, expected_total = syz, sym_dim - dim_vm(k, n, degree)
            # degree 1 has no relations: the degree-1 part of the ring is V_1
            ok = all(v >= 0 if degree > 1 else v == 0 for v in syz.values())

    rows = [
        {"label": _label_str(h), **{name: col[h] for name, col in columns.items()}}
        for h in all_labels(k, n) if wanted in (None, h)
    ]
    total = sum(counted.values())
    return {
        "k": k, "n": n, "kind": kind, "degree": degree,
        "total": total, "expected_total": expected_total,
        "passed": ok and total == expected_total,
        "rows": rows,
    }


def _verify_one(args: argparse.Namespace) -> dict:
    k, n = args.k, args.n
    require_nonhyperelliptic(k, n)
    # Enough points for the degree-2 point check, the equivariance check and
    # complete-fiber coverage of both evaluation-rank checks (points arrive in
    # x-fibers; m = 2 needs more than m = 1 on every curve here).
    needed = max(full_rank_oversample(k, n, 2), MIN_VERIFY_POINTS)
    # Two primes, or the one pinned prime.
    params_list = list(itertools.islice(_curve_params(args, needed), 2))
    params1 = params_list[0]

    report: dict = {
        "k": k, "n": n,
        "lambda": list(params1.lam),
        "primes": [pp.p for pp in params_list],
        "plane_quintic": params1.plane_quintic,
        "warnings": [],
        "standard_set_identity": standard_set_identity(k, n),
        "basis_rank": {
            f"m={m}": {str(pp.p): basis_rank_check(pp, m, full_rank_oversample(k, n, m))
                       for pp in params_list}
            for m in (1, 2)
        },
        "equivariance_ok": check_equivariance(params1),
    }

    if params1.plane_quintic:
        report["warnings"].append(
            "plane quintic (k, n) = (5, 2): degree-2 generation assertions skipped"
        )
        report["degree2"] = None
        report["per_character_ok"] = None
    else:
        reps = [verify_degree2_kernel(pp) for pp in params_list]
        report["degree2"] = {
            str(rep["p"]): {**rep, "per_character": {
                _label_str(h): d for h, d in rep["per_character"].items()}}
            for rep in reps
        }
        syz = syzygy_table(k, n, 2)  # the same at every prime
        report["per_character_ok"] = all(rep["per_character"].get(h, 0) == syz[h]
                                         for rep in reps for h in all_labels(k, n))

    report["passed"] = (
        all(ok for per_prime in report["basis_rank"].values() for ok in per_prime.values())
        and report["equivariance_ok"]
        and all(rep["passed"] for rep in (report["degree2"] or {}).values())
        and report["per_character_ok"] is not False  # None on the plane quintic
    )
    return report


def _verify_grid(args: argparse.Namespace) -> dict:
    if args.lam is not None:
        raise ParameterError("--lambda gives one curve's n - 1 values; "
                             "it cannot apply across a grid")
    if args.mmax < 1:
        raise ParameterError(f"need --mmax >= 1, got {args.mmax}")
    curves = [(k, n) for k in range(2, args.kmax + 1) for n in range(2, args.nmax + 1)
              if is_nonhyperelliptic(k, n)]
    if not curves:
        raise ParameterError(f"the grid up to (kmax, nmax) = ({args.kmax}, {args.nmax}) "
                             "holds no curve with (k-1)(n-1) > 2")
    rows = []
    for k, n in curves:
        row = {
            "k": k, "n": n,
            "cardinalities_ok": all(count_im(k, n, m) == dim_vm(k, n, m)
                                    for m in range(1, args.mmax + 1)),
            "nu_oracle_ok": all(nu_table(k, n, m, closed=True) == nu_table(k, n, m, closed=False)
                                for m in range(1, args.mmax + 1)),
            "standard_set_ok": standard_set_identity(k, n),
            "syzygy_nonneg_ok": all(v >= 0 for v in syzygy_table(k, n, 2).values()),
        }
        sub = argparse.Namespace(**{**vars(args), "k": k, "n": n, "lam": None})
        try:
            row["degree2_ok"] = _verify_one(sub)["passed"] if (k, n) in KERNEL_GRID else None
        except (InsufficientPointsError, ParameterError) as exc:  # name the curve that failed
            raise type(exc)(f"(k, n) = ({k}, {n}): {exc}") from exc
        row["passed"] = all(v for v in row.values() if isinstance(v, bool))
        rows.append(row)
    return {
        "grid": {"kmax": args.kmax, "nmax": args.nmax, "mmax": args.mmax},
        "rows": rows,
        "passed": all(row["passed"] for row in rows),
    }


def cmd_export(args: argparse.Namespace) -> dict:
    params = next(_curve_params(args))
    text = export_ideal(params, args.fmt)
    if args.out:
        with open(args.out, "w") as fh:
            _write_sliced(fh, text)
        return {"written": args.out, "bytes": len(text), "p": params.p}
    # raw payload straight to stdout
    _write_sliced(sys.stdout, text)
    return {}


# --- rendering / entry ----------------------------------------------------------

# Characters per write: a text-mode write encodes a copy of what it is given,
# so slicing bounds that copy.  An export's slices are joined from its
# pieces (ideal.SlicedText), one write at a time.
WRITE_SLICE = 1 << 20


def _write_sliced(fh, text: str | SlicedText) -> None:
    """Write text, WRITE_SLICE characters a write but the last."""
    if isinstance(text, str):
        slices = (text[start:start + WRITE_SLICE] for start in range(0, len(text), WRITE_SLICE))
    else:
        slices = text.slices(WRITE_SLICE)
    # A slice is freed only once the next one is built, so its memory takes
    # the next encoded copy; freed first, it would go back to the system,
    # and each write would touch fresh pages.
    for piece in slices:
        fh.write(piece)


def _fmt_scalar(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if v is None:
        return "-"
    return str(v)


def _inline(v) -> str | None:
    """Single-line form for scalars and flat lists; None when nesting forces
    a block."""
    if isinstance(v, list):
        if all(not isinstance(x, (dict, list)) for x in v):
            return "[" + ", ".join(_fmt_scalar(x) for x in v) + "]"
        return None
    if isinstance(v, dict):
        return None
    return _fmt_scalar(v)


def render_pretty(obj) -> str:
    lines: list[str] = []

    def walk(x, pad: str, label: str | None) -> None:
        flat = _inline(x)
        if flat is not None:
            lines.append(f"{pad}{label}: {flat}" if label is not None else pad + flat)
            return
        if label is not None:
            lines.append(f"{pad}{label}:")
            pad += "  "
        if isinstance(x, dict):
            for key, val in x.items():
                walk(val, pad, str(key))
        else:
            for item in x:
                if isinstance(item, dict):
                    lines.append(pad + "- " + "  ".join(
                        f"{a}={v}" for a, b in item.items()
                        if (v := _inline(b)) is not None
                    ))
                else:
                    lines.append(pad + "- " + _fmt_scalar(item))

    walk(obj, "", None)
    return "\n".join(lines) + "\n"


def _emit(report: dict, args: argparse.Namespace) -> None:
    if not report:
        return
    text = render_pretty(report) if args.fmt == "pretty" else json.dumps(report, indent=2) + "\n"
    if args.out and args.command != "export":
        with open(args.out, "w") as fh:
            _write_sliced(fh, text)
    else:
        _write_sliced(sys.stdout, text)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.replace(" ", "").split(",") if x != "")


def _prime(text: str) -> int | None:
    return None if text == "auto" else int(text)


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so that main reports them as one JSON line."""

    def error(self, message: str) -> NoReturn:
        raise ParameterError(message)


COMMANDS = ("info", "basis", "multiplicities", "verify", "export")


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The gfcring parser.  When argv leads with a command, only that
    command's subparser is built, as parsing reads no other; for anything
    else (top-level help, no command, an unknown one) all of them are, so
    that help and errors list every command."""
    parser = _Parser(
        prog="gfcring",
        description="Canonical-ring computations for the k-th power Fermat-type curve family",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    built = argv[:1] if argv and argv[0] in COMMANDS else COMMANDS

    def add_command(name: str, help_text: str, run, with_curve_spec: bool = False,
                    curve_required: bool = True) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(run=run)
        sp.add_argument("--k", type=int, required=curve_required, default=0)
        sp.add_argument("--n", type=int, required=curve_required, default=0)
        sp.add_argument("--format", dest="fmt", default="json",
                        choices=["json", "cas-text" if name == "export" else "pretty"])
        sp.add_argument("--out", default=None)
        if with_curve_spec:
            group = sp.add_mutually_exclusive_group()
            group.add_argument("--lambda", dest="lam", type=_int_list, default=None,
                               help="comma-separated lambda values, leading value 1")
            group.add_argument("--seed", type=int, default=None)
            sp.add_argument("--prime", type=_prime, default="auto",
                            help="explicit prime, or 'auto' (default)")
        return sp

    if "info" in built:
        add_command("info", "genus and graded dimensions", cmd_info)

    if "basis" in built:
        sp = add_command("basis", "weight-m basis with divisors", cmd_basis)
        sp.add_argument("--m", type=int, default=1)

    if "multiplicities" in built:
        sp = add_command("multiplicities", "character multiplicity tables", cmd_multiplicities)
        sp.add_argument("--kind", default="nu", choices=["nu", "mu", "syzygy"])
        sp.add_argument("--m", type=int, default=None)
        sp.add_argument("--d", type=int, default=None)
        sp.add_argument("--char", type=_int_list, default=None,
                        help="restrict rows to one label, e.g. 1,0,1")

    if "verify" in built:
        sp = add_command("verify", "run the verification pipeline",
                         lambda args: (_verify_grid if args.grid else _verify_one)(args),
                         with_curve_spec=True, curve_required=False)
        sp.add_argument("--grid", action="store_true",
                        help="aggregate the property suite over a (k, n) grid")
        sp.add_argument("--kmax", type=int, default=4)
        sp.add_argument("--nmax", type=int, default=4)
        sp.add_argument("--mmax", type=int, default=3)

    if "export" in built:
        add_command("export", "serialize the degree-2 generators", cmd_export,
                    with_curve_spec=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser(argv).parse_args(argv)
        report = args.run(args)
        _emit(report, args)
    except (ParameterError, InsufficientPointsError, OSError, MemoryError) as exc:
        error = "out of memory; try a smaller input" if isinstance(exc, MemoryError) else str(exc)
        sys.stderr.write(json.dumps({"error": error}) + "\n")
        return 2
    except AssertionError as exc:
        import traceback  # here, not at the top: only a failed check pays its import
        where = traceback.extract_tb(exc.__traceback__)[-1].name
        sys.stderr.write(json.dumps({"error": f"internal check failed in {where}: {exc}"}) + "\n")
        return 1
    return 1 if report.get("passed") is False else 0


def entry() -> None:
    sys.exit(main())
