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
first, named by its row in the sumset minkowski_di1(k, n, 2).  The generators
are window-index arrays read off these runs, with no field in them:
generate_binomials gives each binomial as a run's row after the first and
that first row, tau; generate_trinomials gives each trinomial as its relation
index i and the first rows of its three fibers, and its lam_i coefficient is
read off the curve's parameters.

verify_degree2_kernel writes the trinomials once, as the sumset rows of their
three fibers and their coefficients, and both kernel checks read these
arrays.  The symbolic check builds the (Z/k)^n character blocks of phi2,
from its closed form, and of the relations' parts (a binomial's fiber
coordinates are zero), stacks the blocks of one shape, ranks each stack in
one call and multiplies them one phi2 row at a time; every rank is a sum of
block ranks.  The independent pointwise check matches each binomial run's
index sums to its fiber and evaluates the trinomials at sampled points with
curve.evaluation_matrix.  The verdict is a plain dict,
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
from itertools import pairwise, zip_longest
from math import prod

import numpy as np

from .curve import AffinePoint, InsufficientPointsError, evaluation_matrix, sample_points
from .indexsets import (
    IndexTuple,
    _lattice,
    ci_shifts,
    enumerate_im,
    standard_set,
    standard_set_identity,
    total_degree_d_monomials,
)
from .linalg import CHUNK_CELLS, ranks_mod_p
from .params import CurveParams, ParameterError, dim_vm
from .reps import character_of


@lru_cache(maxsize=None)
def _degree2_data(k: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(the degree-2 monomials in term order, as an (N, 2) int32 array of
    degree-1 window indices i <= j; start, stop: the fiber at row f of
    minkowski_di1(k, n, 2) is the run [start[f], stop[f]) of rows, tau
    first).  Treat all three as immutable.  The runs, read off one sorted
    integer key per index sum, must be the sumset's closed form exactly."""
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
    # No digit of a sum carries in the sumset's mixed radix, so a run's key
    # there is the sum of its first pair's keys.
    skey = np.ravel_multi_index(window.T, _lattice(k, n, 2, 0)[2])
    sums = skey[i[starts]] + skey[j[starts]]
    run = np.argsort(sums)
    assert np.array_equal(sums[run], _lattice(k, n, 2, 0)[1])
    return np.stack((i, j), axis=1), starts[run], stops[run]


def generate_binomials(k: int, n: int) -> np.ndarray:
    """(B, 4) int32 window indices (i, j, i', j') of each binomial
    z_i*z_j - z_i'*z_j': every row of every fiber run after the first, paired
    with the first, tau; fibers in sorted order.  B is dim S_2 minus the
    number of fibers."""
    pairs, first, stop = _degree2_data(k, n)
    size = stop - first - 1
    tau_row = np.repeat(first, size)
    # the b-th binomial overall is row b - (binomials before its fiber) + 1 of its run
    row = tau_row + 1 + np.arange(len(tau_row)) - np.repeat(np.cumsum(size) - size, size)
    return np.concatenate((pairs[row], pairs[tau_row]), axis=1)


def _trinomial_rows(params: CurveParams) -> tuple[np.ndarray, np.ndarray]:
    """The trinomials in fiber coordinates, one row for each relation index
    i and t in C_i: (T, 3) sumset rows of t, t+(k,0,..), t-k*e_i and (T, 3)
    int64 coefficients lam_i, 1, 1 mod p."""
    shifts = ci_shifts(params.k, params.n)
    lam = np.array([v % params.p for v in params.lam], dtype=np.int64)[shifts[:, :1] - 1]
    return shifts[:, 1:], np.column_stack((lam, np.ones((len(shifts), 2), dtype=np.int64)))


def generate_trinomials(k: int, n: int) -> np.ndarray:
    """(T, 7) int32 rows (i, a, b, c, d, e, f) of each trinomial
    lam_i*z_a*z_b + z_c*z_d + z_e*z_f: the relation index i, then the window
    indices of the taus of its fibers t, t+(k,0,..), t-k*e_i, in
    _trinomial_rows order.  The coefficient lam_i is lam[i-1] mod p."""
    pairs, start, _ = _degree2_data(k, n)
    shifts = ci_shifts(k, n)
    return np.column_stack((shifts[:, 0].astype(np.int32),
                            pairs[start[shifts[:, 1:]]].reshape(-1, 6)))


# --- rewriting into the weight-2 basis ---------------------------------------

def _phi2_entries(params: CurveParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi2 as (row of enumerate_im(k, n, 2), fiber, value mod p) arrays,
    fibers ascending, zero values kept.  The j-th curve equation raises each
    low coordinate a_j < k-1 of the fiber t once, by k, as -lam_j times that
    branch minus the branch with r raised too: with L the z low coordinates,
    the element at t is the sum over s = 0..z of (-1)^z e_(z-s)(lam_L) at
    t + k*(s, 1_L), e the elementary symmetric polynomials; that value is the
    coefficient of x^s in the product of (-lam_j - x) over L.  Every term
    lies in the weight-2 window, under t's character."""
    k, n, p = params.k, params.n, params.p
    rows, keys, dims = _lattice(k, n, 2, 0)
    low = rows[:, 1:] < k - 1
    # poly[m]: the coefficients of that product over the bits j-1 set in m
    poly = [[1]]
    for lam_j in params.lam:
        poly += [[(-lam_j * a - b) % p for a, b in zip(e + [0], [0] + e)] for e in poly]
    value = np.array([e + [0] * (n - len(e)) for e in poly], dtype=np.int64)
    fiber, s = np.divmod(np.flatnonzero(np.arange(n) <= low.sum(axis=1)[:, None]), n)
    raised = keys + k * (low @ np.array([prod(dims[j + 1:]) for j in range(1, n)]))
    at = np.searchsorted(_lattice(k, n, 2)[1], raised[fiber] + k * prod(dims[1:]) * s)
    return at, fiber, value[(low @ (1 << np.arange(n - 1)))[fiber], s]


def _relations_vanish_at(
    params: CurveParams, rels: tuple[np.ndarray, np.ndarray], points: list[AffinePoint]
) -> bool:
    """Whether every binomial, and every fiber row at every point, vanishes.

    x^r * prod y_j^(-a_j) is multiplicative in the index, so M - tau(t)
    vanishes exactly when M has index sum t, checked with no points.  The
    rows (fibers, coeff), sumset rows and coefficients, are read off one
    evaluation matrix of points x sumset rows.
    """
    p = params.p
    fibers, coeff = rels[0], rels[1] % p
    window = _lattice(params.k, params.n, 1)[0].astype(np.int32)
    sumset = _lattice(params.k, params.n, 2, 0)[0]
    pairs, start, stop = _degree2_data(params.k, params.n)
    run = np.argsort(start)  # the fibers in the order of their runs
    for w, t in zip(window.T, sumset[run].T.astype(np.int32)):  # one coordinate at a time
        if np.any(w[pairs[:, 0]] + w[pairs[:, 1]] != np.repeat(t, (stop - start)[run])):
            return False
    for vals in evaluation_matrix(params, points, sumset):
        if np.any((vals[fibers] * coeff % p).sum(axis=1) % p):
            return False
    return True


# --- span-rank bookkeeping ----------------------------------------------------

def _character_blocks(
    params: CurveParams, rels: tuple[np.ndarray, np.ndarray]
) -> tuple[bool, int, dict[IndexTuple, int]]:
    """(whether every relation maps to zero, rank of phi2, span ranks by
    character of the binomials and the relations, nonzero ones only), in one
    pass over the character blocks.

    Each relation comes in fiber coordinates, a row of (fibers, coeff) that
    names a fiber at most once, where every binomial M - tau(t) is zero.
    phi2 moves coordinates by multiples of k, so each fiber's phi2 column
    lies in its own character's rows, and a relation vanishes iff each
    character's part of it is in the kernel of that character's phi2 block.
    The product is reduced per term, so it is exact for every p that the
    ranks accept.  The binomials span every within-fiber difference,
    sum(|fiber| - 1) per character; the relations add the rank of their
    parts.  The characters whose blocks have one shape (phi2 rows, fibers,
    parts) are stacked, in chunks of at most CHUNK_CELLS cells or one
    character: one scatter and one ranks_mod_p call per chunk and stack.
    """
    k, n, p = params.k, params.n, params.p
    _, start, stop = _degree2_data(k, n)
    fibers, coeff = rels
    sumset, keys, _ = _lattice(k, n, 2, 0)
    char = np.ravel_multi_index(character_of(k, 2, sumset.T), (k,) * n)

    def local(of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(each position's index among those of its label; each label's count)."""
        order = np.argsort(of, kind="stable")
        count = np.bincount(of, minlength=k ** n)
        at = np.empty_like(order)
        at[order] = np.arange(len(of)) - np.repeat(np.cumsum(count) - count, count)
        return at, count

    def parts(term: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """local() of each term's part, its relation's terms under its character."""
        key = char[fibers.flat[term]] * len(fibers) + term // 3
        order = np.argsort(key, kind="stable")
        first = np.diff(key[order], prepend=-1) != 0
        at, count = local(key[order][first] // len(fibers))
        part = np.empty_like(order)
        part[order] = at[np.cumsum(first) - 1]
        return part, count

    col_at, n_cols = local(char)
    row_at, n_rows = local(char[np.searchsorted(keys, _lattice(k, n, 2)[1])])
    term = np.flatnonzero(coeff % p)  # flat positions of the nonzero coefficients
    part, n_parts = parts(term)
    # The present characters grouped by shape, ascending within a group, the
    # largest first: smaller ones reuse their freed memory (smallest first
    # peaks about 9 MB higher at (2,9)).
    shape = (n_rows * (n_cols.max() + 1) + n_cols) * (n_parts.max() + 1) + n_parts
    cells = n_cols * (n_rows + n_parts)
    order = np.flatnonzero(n_cols)
    order = order[np.lexsort((shape[order], -cells[order]))]
    group = np.flatnonzero(np.diff(shape[order], prepend=-1))
    within = np.arange(len(order)) - np.repeat(group, np.diff(group, append=len(order)))
    edges = np.r_[np.flatnonzero(within % np.maximum(1, CHUNK_CELLS // cells[order]) == 0),
                  len(order)]
    pos = np.zeros(k ** n, dtype=np.intp)  # each character's place in order
    pos[order] = np.arange(len(order))

    def by_chunk(label: np.ndarray, *arrays: np.ndarray) -> list[np.ndarray]:
        """The arrays sorted by the place of label, then each chunk's start."""
        at = np.argsort(pos[label], kind="stable")
        return [a[at] for a in arrays] + [np.searchsorted(pos[label][at], edges)]

    row, col, value = _phi2_entries(params)
    row, col, value, e = by_chunk(char[col], row, col, value)
    term, part, t = by_chunk(char[fibers.flat[term]], term, part)
    vanish, phi2_rank = True, 0
    dims = np.bincount(char, stop - start - 1, k ** n).astype(np.int64)
    for c, (lo, hi) in enumerate(pairwise(edges.tolist())):
        h, at, f = order[lo], slice(e[c], e[c + 1]), fibers.flat[term[t[c]:t[c + 1]]]
        phi2 = np.zeros((hi - lo, n_rows[h], n_cols[h]), dtype=np.int64)
        phi2[pos[char[col[at]]] - lo, row_at[row[at]], col_at[col[at]]] = value[at]
        block = np.zeros((hi - lo, n_parts[h], n_cols[h]), dtype=np.int64)
        block[pos[char[f]] - lo, part[t[c]:t[c + 1]], col_at[f]] = (
            coeff.flat[term[t[c]:t[c + 1]]] % p)
        phi2_rank += int(ranks_mod_p(phi2, p).sum())
        dims[order[lo:hi]] += ranks_mod_p(block, p)
        image = np.empty_like(block)  # one phi2 row's image at a time
        vanish = vanish and not any(
            np.any(np.remainder(np.multiply(block, phi2[:, None, r], out=image), p,
                                out=image).sum(axis=2) % p) for r in range(n_rows[h]))
    nonzero = np.flatnonzero(dims)
    label = zip(*(a.tolist() for a in np.unravel_index(nonzero, (k,) * n)))
    return vanish, phi2_rank, dict(zip(label, dims[nonzero].tolist()))


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
    pairs, start, _ = _degree2_data(k, n)
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

    # (d) initial terms of trinomials: the runs lie in term order.
    top = start[rows[0]]
    trinomial_initial_ok = bool(np.all(top[:, :1] > top[:, 1:]))

    report = {
        "p": p,
        "dim_s2": dim_s2,
        "n_binomials": dim_s2 - len(start),
        "n_trinomials": len(top),
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
