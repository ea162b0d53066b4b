"""Degree-2 relations of the canonical coordinate ring, and their verification.

Variables z_t are indexed by the degree-1 window; a degree-2 monomial z_i*z_j
is a pair of window indices i <= j.  The term order compares (degree, -sum of
leading exponents, coordinate sums of a, factor sequence lexicographically);
within a fixed fiber (= index sum) only the final lexicographic clause can
differ, and tau(t) is each fiber's order-minimal monomial.

Two relation families span the degree-2 kernel of the evaluation map:
  - binomials  M - tau(t)            for every monomial M above fiber t,
  - trinomials lam_i*tau(t) + tau(t + (k,0,...)) + tau(t - k*e_i)
    for every relation index i and t in the corresponding C_i set,
the latter vanishing because lam_i + x^k + y_{i+1}^k = 0 on the curve.

The monomials are one (N, 2) array of window-index pairs in term order, sorted
by one integer key per index sum, and each fiber is one run of its rows, tau
first.  The generators are window-index arrays read off these runs, with no
field in them: generate_binomials gives each binomial as a run's row after
the first and that first row, tau; generate_trinomials gives each trinomial
as its relation index i and the first rows of its three fibers, and its
lam_i coefficient is read off the curve's parameters.

verify_degree2_kernel writes each trinomial only as a fiber row {fiber:
coefficient}, and both kernel checks take these rows.  The symbolic check
works one (Z/k)^n character block and one phi2 row at a time, with no dense
matrix: each row must lie in the kernel of its character's block of the
evaluation map phi2 (a binomial's fiber coordinates are zero), and every rank
is a sum of block ranks.  The independent pointwise check matches each
binomial run's index sums to its fiber and evaluates the trinomials at
sampled points with curve.evaluation_matrix.  The verdict is a plain dict,
which verify prints per prime, character labels joined to strings.

export_ideal writes the generator arrays as the JSON text that
json.dumps(payload, indent=2) gives, byte for byte, without running the
encoder: each variable is laid out once as an indented fragment (a name, in
cas-text), each relation family is one template whose holes take those
fragments, and the whole text is one gather of these shared pieces and one
join.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest

import numpy as np

from .curve import AffinePoint, InsufficientPointsError, evaluation_matrix, sample_points
from .indexsets import (
    IndexTuple,
    ci_shifts,
    enumerate_im,
    minkowski_di1,
    standard_set,
    standard_set_identity,
    total_degree_d_monomials,
)
from .linalg import rank_mod_p_array
from .params import CurveParams, ParameterError, dim_vm
from .reps import character_of


@lru_cache(maxsize=None)
def _degree2_data(k: int, n: int) -> tuple[np.ndarray, dict[IndexTuple, tuple[int, int]]]:
    """(the degree-2 monomials in term order, as an (N, 2) int32 array of
    degree-1 window indices i <= j; fiber -> its run [start, stop) of rows,
    tau first, fibers in run order).  Treat both as immutable.  The fibers, read
    off one sorted integer key per index sum, must equal minkowski_di1's
    closed form: an independent enumeration of the 2-fold sumset."""
    window = np.array(enumerate_im(k, n, 1).members, dtype=np.int32).reshape(-1, n)
    # The term order without its constant degree: a sum's key has base-(2k-1)
    # digits -r, a_2, ..., a_n (an a-coordinate of a sum is at most 2(k-1)), and
    # a pair's key is the sum of its members' keys.  A stable sort keeps each
    # fiber's pairs in (i, j) order, the last clause, as the window is sorted.
    # |key| < (2k-1)^(n-1) * (r_max + 1): far below 2^63 for any window in memory.
    # Pairs are laid out row by row, (i, i..W-1) for each i: the triu order.
    w = (2 * k - 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    w[0] = -w[0]
    wkey = window @ w
    rows = range(len(window))
    key = np.concatenate([wkey[a] + wkey[a:] for a in rows])
    order = np.argsort(key, kind="stable")
    key.sort()  # in place: the sorted values are those of key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    stops = np.r_[starts[1:], len(key)]
    del key
    i = np.repeat(np.arange(len(window), dtype=np.int32), np.arange(len(window), 0, -1))[order]
    j = np.concatenate([np.arange(a, len(window), dtype=np.int32) for a in rows])[order]
    del order
    sums = window[i[starts]] + window[j[starts]]
    fibers = {tuple(t): (int(a), int(b)) for t, a, b in zip(sums.tolist(), starts, stops)}
    assert set(fibers) == set(minkowski_di1(k, n, 2).members)
    return np.stack((i, j), axis=1), fibers


def generate_binomials(k: int, n: int) -> np.ndarray:
    """(B, 4) int32 window indices (i, j, i', j') of each binomial
    z_i*z_j - z_i'*z_j': every row of every fiber run after the first, paired
    with the first, tau; fibers in sorted order.  B is dim S_2 minus the
    number of fibers."""
    pairs, fibers = _degree2_data(k, n)
    first, stop = np.array([fibers[t] for t in sorted(fibers)]).T
    size = stop - first - 1
    tau_row = np.repeat(first, size)
    # the b-th binomial overall is row b - (binomials before its fiber) + 1 of its run
    row = tau_row + 1 + np.arange(len(tau_row)) - np.repeat(np.cumsum(size) - size, size)
    return np.concatenate((pairs[row], pairs[tau_row]), axis=1)


def _trinomial_rows(params: CurveParams) -> list[dict[IndexTuple, int]]:
    """The trinomials in fiber coordinates: {t: lam_i, t+(k,0,..): 1,
    t-k*e_i: 1} for each relation index i and t in C_i."""
    return [{t: params.lam[i - 1] % params.p, up: 1, down: 1}
            for i, t, up, down in ci_shifts(params.k, params.n)]


def generate_trinomials(k: int, n: int) -> np.ndarray:
    """(T, 7) int32 rows (i, a, b, c, d, e, f) of each trinomial
    lam_i*z_a*z_b + z_c*z_d + z_e*z_f: the relation index i, then the window
    indices of the taus of its fibers t, t+(k,0,..), t-k*e_i, in
    _trinomial_rows order.  The coefficient lam_i is lam[i-1] mod p."""
    pairs, fibers = _degree2_data(k, n)
    shifts = list(ci_shifts(k, n))
    rows = [fibers[s][0] for _, *three in shifts for s in three]
    index = np.array([i for i, *_ in shifts], dtype=np.int32)
    return np.column_stack((index, pairs[rows].reshape(-1, 6)))


# --- rewriting into the weight-2 basis ---------------------------------------

def _reduce(params: CurveParams, t: IndexTuple) -> dict[IndexTuple, int]:
    k, p = params.k, params.p
    terms: dict[IndexTuple, int] = {t: 1}
    for j in range(1, params.n):
        lam_j = params.lam[j - 1] % p
        new: dict[IndexTuple, int] = {}
        for s, c in terms.items():
            if s[j] >= k - 1:
                new[s] = (new.get(s, 0) + c) % p
            else:
                # Raise the low coordinate: the j-th curve equation rewrites
                # the element at s as -lam_j*(a_j + k branch) - (r + k branch).
                up = (*s[:j], s[j] + k, *s[j + 1:])
                up_r = (s[0] + k, *up[1:])
                new[up] = (new.get(up, 0) - c * lam_j) % p
                new[up_r] = (new.get(up_r, 0) - c) % p
        terms = new
    return {s: c for s, c in terms.items() if c}


def _relations_vanish_at(
    params: CurveParams, rows: list[dict[IndexTuple, int]], points: list[AffinePoint]
) -> bool:
    """Whether every binomial, and every fiber row at every point, vanishes.

    x^r * prod y_j^(-a_j) is multiplicative in the index, so M - tau(t)
    vanishes exactly when M has index sum t, checked with no points.  The
    rows {fiber: coefficient}, padded with zero coefficients, are read off
    one evaluation matrix of points x the fibers the rows name.
    """
    p = params.p
    window = np.array(enumerate_im(params.k, params.n, 1).members, dtype=np.int32)
    pairs, fibers = _degree2_data(params.k, params.n)
    sizes = [stop - start for start, stop in fibers.values()]
    for w, key in zip(window.T, zip(*fibers)):  # one int32 coordinate at a time
        if np.any(w[pairs[:, 0]] + w[pairs[:, 1]] != np.repeat(np.array(key, np.int32), sizes)):
            return False
    col = {t: c for c, t in enumerate(dict.fromkeys(t for row in rows for t in row))}
    width = max(map(len, rows), default=0)
    coeff = np.zeros((len(rows), width), dtype=np.int64)
    at = np.zeros((len(rows), width), dtype=np.intp)
    for r, row in enumerate(rows):
        for j, (t, c) in enumerate(row.items()):
            coeff[r, j], at[r, j] = c % p, col[t]
    for vals in evaluation_matrix(params, points, list(col)):
        if np.any((vals[at] * coeff % p).sum(axis=1) % p):
            return False
    return True


# --- span-rank bookkeeping ----------------------------------------------------

def _character_blocks(
    params: CurveParams, rels: list[dict[IndexTuple, int]]
) -> tuple[bool, int, dict[IndexTuple, int]]:
    """(whether every relation maps to zero, rank of phi2, span ranks by
    character of the binomials and the relations, nonzero ones only), in one
    pass over the character blocks.

    Each relation comes in fiber coordinates, {fiber: coefficient mod p},
    where every binomial M - tau(t) is zero.  _reduce moves coordinates
    by multiples of k, so each fiber's phi2 column lies in its own
    character's rows (a miss raises KeyError), and a relation vanishes
    iff each character's part of it is in the kernel of that character's
    phi2 block.  The product is reduced per term, so it is exact for every p
    that the ranks accept.  The binomials span every within-fiber
    difference, sum(|fiber| - 1) per character; the relations add the rank
    of their parts.
    """
    k, n, p = params.k, params.n, params.p
    fibers = _degree2_data(k, n)[1]
    character = {t: character_of(k, 2, t) for t in fibers}
    columns: dict[IndexTuple, list[IndexTuple]] = {}
    for t in sorted(fibers):
        columns.setdefault(character[t], []).append(t)
    rows: dict[IndexTuple, list[IndexTuple]] = {}
    for s in enumerate_im(k, n, 2).members:
        rows.setdefault(character_of(k, 2, s), []).append(s)
    parts: dict[IndexTuple, list[dict[IndexTuple, int]]] = {}
    for rel in rels:
        by_char: dict[IndexTuple, dict[IndexTuple, int]] = {}
        for t, c in rel.items():
            if c % p:
                by_char.setdefault(character[t], {})[t] = c % p
        for h, part in by_char.items():
            parts.setdefault(h, []).append(part)

    vanish, phi2_rank, dims = True, 0, {}
    for h, ts in sorted(columns.items()):
        col = {t: i for i, t in enumerate(ts)}
        row = {s: i for i, s in enumerate(rows.get(h, ()))}
        phi2 = np.zeros((len(row), len(col)), dtype=np.int64)
        for t in ts:
            for s, c in _reduce(params, t).items():
                phi2[row[s], col[t]] = c
        phi2_rank += rank_mod_p_array(phi2, p)
        block = np.zeros((len(parts.get(h, ())), len(col)), dtype=np.int64)
        for r, part in enumerate(parts.get(h, ())):
            for t, c in part.items():
                block[r, col[t]] = c
        vanish = vanish and not any(np.any((block * row % p).sum(axis=1) % p) for row in phi2)
        dim = sum(fibers[t][1] - fibers[t][0] - 1 for t in ts) + rank_mod_p_array(block, p)
        if dim:
            dims[h] = dim
    return vanish, phi2_rank, dims


# --- the verification report ---------------------------------------------------

# Curve points at which every trinomial is evaluated in check (a).
KERNEL_POINTS = 50

# The fewest points verify asks of each prime: at least KERNEL_POINTS and
# reps.EQUIVARIANCE_POINTS.  It picks the primes of small curves.
MIN_VERIFY_POINTS = 60


def verify_degree2_kernel(params: CurveParams) -> dict:
    """Run every degree-2 check.  Returns one dict, keys in this order: the
    counts p, dim_s2, n_binomials, n_trinomials, phi2_rank, ker_dim,
    span_rank, standard_count, points_used; the flags symbolic_kernel_ok and
    point_kernel_ok (a), span_rank_ok (b), standard_count_ok (c),
    trinomial_initial_ok (d); per_character, {label: span rank} over the
    sorted labels whose rank is nonzero; passed, the five flags' conjunction.

    (a) each trinomial's fiber row, built once, maps to zero in the weight-2
        basis (against each character's phi2 block, exactly mod p; a
        binomial's row is zero), every binomial's monomials share an index
        sum, and every trinomial row vanishes at KERNEL_POINTS curve points;
    (b) the relation span has rank dim S_2 - dim V_2 (with the evaluation
        matrix itself of full rank dim V_2), both ranks summed over the
        character blocks;
    (c) the surviving-fiber count from the shifted C_i sets equals both the
        weight-2 window size and dim S_2 - span rank;
    (d) each trinomial's order-maximal term is its lam_i-term, the first of
        its three distinct fibers, which the term order compares first.
    Raises InsufficientPointsError when the prime is too small for (a).
    """
    k, n, p = params.k, params.n, params.p
    d2 = dim_vm(k, n, 2)
    pairs, fibers = _degree2_data(k, n)
    dim_s2 = len(pairs)
    assert dim_s2 == total_degree_d_monomials(k, n, 2)
    rows = _trinomial_rows(params)

    # (a) pointwise: binomials by their index sums, trinomials at points.
    points, shortfall = sample_points(params, KERNEL_POINTS)
    if shortfall:
        raise InsufficientPointsError(
            f"only {len(points)} points over p = {p}, wanted {KERNEL_POINTS}"
        )
    point_kernel_ok = _relations_vanish_at(params, rows, points)

    # (a) symbolic and (b) the phi2 and span ranks, one pass over the
    # character blocks.
    symbolic_kernel_ok, phi2_rank, per_char = _character_blocks(params, rows)
    span_rank = sum(per_char.values())
    span_rank_ok = phi2_rank == d2 and span_rank == dim_s2 - d2

    # (c) standard-fiber count, combinatorial vs rank-based.
    standard_count = len(standard_set(k, n))
    standard_count_ok = (
        standard_set_identity(k, n)
        and standard_count == d2
        and standard_count == dim_s2 - span_rank
    )

    # (d) initial terms of trinomials, read off the fibers.
    trinomial_initial_ok = all(
        max(row, key=lambda s: (-s[0], *s[1:])) == next(iter(row)) for row in rows
    )

    report = {
        "p": p,
        "dim_s2": dim_s2,
        "n_binomials": dim_s2 - len(fibers),
        "n_trinomials": len(rows),
        "phi2_rank": phi2_rank,
        "ker_dim": dim_s2 - phi2_rank,
        "span_rank": span_rank,
        "standard_count": standard_count,
        "points_used": len(points),
        "symbolic_kernel_ok": symbolic_kernel_ok,
        "point_kernel_ok": point_kernel_ok,
        "span_rank_ok": span_rank_ok,
        "standard_count_ok": standard_count_ok,
        "trinomial_initial_ok": trinomial_initial_ok,
        "per_character": per_char,
    }
    report["passed"] = all(ok for key, ok in report.items() if key.endswith("_ok"))
    return report


# --- export -------------------------------------------------------------------

def variable_name(t: IndexTuple) -> str:
    return "z_" + "_".join(str(c) for c in t)


# Marks a slot of a text template; no number or variable name contains it.
HOLE = "\0"


def _json_block(brackets: str, items: list[str], depth: int) -> str:
    """An array ("[]") or object ("{}") of already-encoded items, laid out
    as json.dumps(..., indent=2) lays it out at nesting depth `depth`."""
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return f'{brackets[0]}{pad}{("," + pad).join(items)}\n{"  " * depth}{brackets[1]}'


def _write(pieces: list[str], frame: str, runs: list[tuple[str, np.ndarray, str]]) -> str:
    """frame with its holes filled in order by runs (template, slots, sep):
    template once per row of slots, its holes taking the pieces the row names,
    sep between rows.  One gather of the shared pieces and one join."""
    idx = []
    for part, run in zip_longest(frame.split(HOLE), runs):
        idx.append([len(pieces)])
        pieces.append(part)
        if run:
            template, slots, sep = run
            lits = template.split(HOLE)
            base = len(pieces)
            pieces += [lits[0], sep + lits[0], *lits[1:]]
            rows = np.empty((len(slots), 2 * len(lits) - 1), dtype=np.intp)
            rows[:, 0] = base + 1
            rows[:1, 0] = base  # no sep before the first row
            rows[:, 1::2] = slots
            rows[:, 2::2] = np.arange(base + 2, base + len(lits) + 1)
            idx.append(rows.ravel())
    return "".join(np.array(pieces, dtype=object)[np.concatenate(idx)].tolist())


def export_ideal(params: CurveParams, fmt: str) -> str:
    """Serialize the generators: "json" (machine round-trip) or "cas-text"
    (one generator per line, pasteable into a computer algebra system)."""
    k, n, p = params.k, params.n, params.p
    variables = enumerate_im(k, n, 1).members
    bins = generate_binomials(k, n)
    tris = generate_trinomials(k, n)
    index, taus = tris[:, 0], tris[:, 1:]
    width = len(variables)

    if fmt == "json":
        # Assembled from text (see the module docstring): with an indent,
        # json.dumps runs its pure-Python encoder over every number.
        pieces = [_json_block("[]", [str(c) for c in t], 5) for t in variables]
        pieces += [str(v % p) for v in params.lam]  # the trinomials' lam_i coefficients

        def relation(coeffs: list) -> str:
            return _json_block("[]", [_json_block("{}", [
                f'"coeff": {c}',
                '"factors": ' + _json_block("[]", [HOLE, HOLE], 4),
            ], 3) for c in coeffs], 2)

        def listed(rows: np.ndarray) -> str:  # an empty list takes its empty fill after "[]"
            return _json_block("[]", [HOLE], 1) if len(rows) else "[]" + HOLE

        sep = ",\n" + "  " * 2  # between the items of a list at depth 1
        frame = _json_block("{}", [
            f'"k": {k}',
            f'"n": {n}',
            f'"p": {p}',
            '"lambda": ' + _json_block("[]", [str(v) for v in params.lam], 1),
            '"variables": ' + _json_block("[]", [
                _json_block("[]", [str(c) for c in t], 2) for t in variables
            ], 1),
            '"binomials": ' + listed(bins),
            '"trinomials": ' + listed(taus),
        ], 0)
        return _write(pieces, frame, [
            (relation([1, -1]), bins, sep),
            (relation([HOLE, 1, 1]), np.column_stack((width + index - 1, taus)), sep),
        ])

    if fmt == "cas-text":
        # A monomial is two slots: its first variable's name, then "*" and
        # the second's name, or "^2" for a square.
        pieces = [variable_name(t) for t in variables]
        pieces += ["*" + name for name in pieces] + ["^2"]
        pieces += [f"l{i}*" for i in range(1, n)]

        def monomials(rows: np.ndarray) -> np.ndarray:
            out = rows.astype(np.intp)
            first, second = rows[:, 0::2], rows[:, 1::2]
            out[:, 1::2] = np.where(first == second, 2 * width, width + second)
            return out

        frame = "\n".join([
            f"// k={k} n={n} p={p}",
            "// lambda parameters: "
            + " ".join(f"l{i + 1}={v}" for i, v in enumerate(params.lam)),
            f"// variables ({width}), binomials ({len(bins)}), "
            f"trinomials ({len(taus)})",
            "ring R = (0, "
            + ", ".join(f"l{i + 1}" for i in range(n - 1))
            + "), ("
            + ", ".join(pieces[:width])
            + "), dp;",
            "// generators:",
        ]) + "\n" + HOLE + HOLE
        return _write(pieces, frame, [
            (HOLE * 2 + " - " + HOLE * 2 + "\n", monomials(bins), ""),
            (HOLE * 3 + (" + " + HOLE * 2) * 2 + "\n",
             np.column_stack((2 * width + index, monomials(taus))), ""),
        ])

    raise ParameterError(f"unknown export format: {fmt!r}")
