"""Degree-2 relations of the canonical coordinate ring, and their verification.

Variables z_t are indexed by the degree-1 window; a degree-d monomial is a
sorted d-tuple of index tuples.  The term order compares (degree, -sum of
leading exponents, coordinate sums of a, factor sequence lexicographically);
within a fixed fiber (= index-sum) only the final lexicographic clause can
differ, and tau picks each fiber's order-minimal monomial.

Two relation families span the degree-2 kernel of the evaluation map:
  - binomials  M - tau(t)            for every monomial M above fiber t,
  - trinomials lam_i*tau(t) + tau(t + (k,0,...)) + tau(t - k*e_i)
    for every relation index i and t in the corresponding C_i set,
the latter vanishing because lam_i + x^k + y_{i+1}^k = 0 on the curve.

The monomials are one (N, 2) array of window-index pairs in term order, and
each fiber is one run of its rows, tau first.  The binomials carry nothing
beyond these runs.  verify_degree2_kernel writes each trinomial only as a
fiber row {fiber: coefficient}, and both kernel checks take these rows;
Relation objects, tau and the sort key serve export, parse_ideal_json and
the tests.  The symbolic check works one (Z/k)^n character block at a time,
with no dense matrix: each row must lie in the kernel of its character's
block of the evaluation map phi2 (a binomial's fiber coordinates are zero),
and every rank is a sum of block ranks.  The independent pointwise check
evaluates the degree-1 window at sampled points with curve.evaluation_matrix.
phi2_matrix is the dense form, kept as an oracle for tests.  The verdict
is a plain dict, which the verify command prints per prime as it is, with
only the character labels joined into strings.

export_ideal writes the JSON text that json.dumps(payload, indent=2) gives,
byte for byte, without running the encoder: each variable is laid out once
as an indented fragment, every term fills one template with its coefficient
and two fragments, and the lists around them are joined with the encoder's
separators and indents (an empty list is "[]").
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

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

MonomialKey = tuple[IndexTuple, ...]


def monomial_sort_key(mono: MonomialKey):
    """Total-order key: degree, then larger exponent-sum of x first, then
    smaller coordinate sums of a, then the factor sequence."""
    sums = tuple(sum(c) for c in zip(*mono))
    return (len(mono), -sums[0], *sums[1:], mono)


def compare_monomials(m1: MonomialKey, m2: MonomialKey) -> int:
    """-1, 0, or 1 as m1 precedes, equals, or follows m2 in the term order."""
    k1, k2 = monomial_sort_key(m1), monomial_sort_key(m2)
    return (k1 > k2) - (k1 < k2)


def index_sum(mono: MonomialKey) -> IndexTuple:
    return tuple(sum(c) for c in zip(*mono))


@lru_cache(maxsize=None)
def _degree2_data(k: int, n: int) -> tuple[np.ndarray, dict[IndexTuple, tuple[int, int]]]:
    """(the degree-2 monomials in term order, as an (N, 2) int32 array of
    degree-1 window indices i <= j; fiber -> its run [start, stop) of rows,
    tau first, in term order).  Treat both as immutable.  The fibers, read
    off the sorted index sums, must equal minkowski_di1's closed form: an
    independent enumeration of the 2-fold sumset."""
    window = np.array(enumerate_im(k, n, 1).members, dtype=np.int32).reshape(-1, n)
    i, j = np.triu_indices(len(window))
    sums = window[i] + window[j]
    # monomial_sort_key without its constant degree: the window is sorted, so
    # the pair (i, j) orders the monomials (window[i], window[j]), and the
    # leading coordinate sums name the fiber, so each fiber is one run.
    order = np.lexsort((j, i, *sums[:, :0:-1].T, -sums[:, 0]))
    sums = sums[order]
    starts = np.flatnonzero(np.r_[True, np.any(sums[1:] != sums[:-1], axis=1)])
    stops = np.r_[starts[1:], len(sums)]
    fibers = {tuple(t): (int(a), int(b)) for t, a, b in zip(sums[starts].tolist(), starts, stops)}
    assert set(fibers) == set(minkowski_di1(k, n, 2).members)
    return np.stack((i[order], j[order]), axis=1).astype(np.int32), fibers


def degree2_monomials(k: int, n: int) -> tuple[MonomialKey, ...]:
    window = enumerate_im(k, n, 1).members
    return tuple((window[i], window[j]) for i, j in _degree2_data(k, n)[0].tolist())


def tau(k: int, n: int, t: IndexTuple) -> MonomialKey:
    """The order-minimal degree-2 monomial with index-sum t."""
    pairs, fibers = _degree2_data(k, n)
    if tuple(t) not in fibers:
        raise ParameterError(f"{t} is not a sum of two degree-1 window members")
    window = enumerate_im(k, n, 1).members
    i, j = pairs[fibers[tuple(t)][0]].tolist()
    return window[i], window[j]


@dataclass(frozen=True)
class Relation:
    """Formal combination of degree-2 monomials; coefficients are integers
    read mod p (binomials use 1 and -1 and are field-independent)."""

    terms: tuple[tuple[int, MonomialKey], ...]
    kind: str  # "binomial" | "trinomial"
    index: int | None = None  # relation index for trinomials


def generate_binomials(k: int, n: int) -> list[Relation]:
    """One relation M - tau(t) per monomial M above t other than tau(t),
    fibers in sorted order: the fiber runs written out, built anew per call.

    Spans all pairwise differences within every fiber; the count is
    (number of degree-2 monomials) - (number of fibers).
    """
    monos = degree2_monomials(k, n)
    return [Relation(((1, monos[row]), (-1, monos[start])), "binomial")
            for _, (start, stop) in sorted(_degree2_data(k, n)[1].items())
            for row in range(start + 1, stop)]


def _trinomial_rows(params: CurveParams) -> list[tuple[int, dict[IndexTuple, int]]]:
    """The trinomials in fiber coordinates: (i, {t: lam_i, t+(k,0,..): 1,
    t-k*e_i: 1}) for each relation index i and t in C_i."""
    return [(i, {t: params.lam[i - 1] % params.p, up: 1, down: 1})
            for i, t, up, down in ci_shifts(params.k, params.n)]


def generate_trinomials(params: CurveParams) -> list[Relation]:
    """lam_i*tau(t) + tau(t+(k,0,..)) + tau(t-k*e_i) for each i and t in C_i."""
    return [Relation(tuple((c, tau(params.k, params.n, s)) for s, c in row.items()),
                     "trinomial", index=i)
            for i, row in _trinomial_rows(params)]


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


def reduce_to_basis(params: CurveParams, t: IndexTuple) -> dict[IndexTuple, int]:
    """Express the weight-2 element at t (any 2-fold sumset point) as a
    combination of weight-2 window members, as a dict index -> coefficient.

    Each coordinate below the window is raised once by k, so the expansion
    has at most 2^(number of low coordinates) terms and every output index
    lies in the weight-2 window.
    """
    t = tuple(t)
    if t not in minkowski_di1(params.k, params.n, 2):
        raise ParameterError(f"{t} is not a 2-fold sumset point")
    out = _reduce(params, t)
    assert all(s in enumerate_im(params.k, params.n, 2) for s in out)
    return out


def phi2_matrix(params: CurveParams) -> np.ndarray:
    """Evaluation matrix of degree-2 monomials in the weight-2 basis.

    Rows follow the sorted weight-2 window, columns follow the term order on
    monomials; column M holds the basis expansion of the element at M's
    index-sum.  Full row rank (= dim V_2) is the surjectivity statement.
    """
    k, n = params.k, params.n
    pairs, fibers = _degree2_data(k, n)
    row = {s: i for i, s in enumerate(enumerate_im(k, n, 2).members)}
    mat = np.zeros((len(row), len(pairs)), dtype=np.int64)
    for t, (start, stop) in fibers.items():
        for s, c in _reduce(params, t).items():
            mat[row[s], start:stop] = c
    return mat


def _relations_vanish_at(
    params: CurveParams, rows: list[dict[IndexTuple, int]], points: list[AffinePoint]
) -> bool:
    """Whether every binomial and every fiber row {fiber: coefficient} in
    rows evaluates to zero at every point.

    The degree-1 window is evaluated once as a (points x variables) matrix.
    The binomials stay implicit: at each point every monomial's value
    vals[i]*vals[j] must equal that of its fiber's first row, so a row reads
    fiber t at prod[fibers[t][0]].  The rows are padded to a common length
    with zero coefficients and checked as one int64 expression.  The scan
    stops at the first point where a check fails; one point at a time keeps
    the working set at a few monomial-sized arrays.
    """
    p = params.p
    window = enumerate_im(params.k, params.n, 1).members
    pairs, fibers = _degree2_data(params.k, params.n)
    runs = np.array(sorted(fibers.values()), dtype=np.intp)
    first = np.repeat(runs[:, 0], runs[:, 1] - runs[:, 0])
    mono_i, mono_j = pairs.T.astype(np.intp)  # an intp index is not converted per gather
    width = max(map(len, rows), default=0)
    coeff = np.zeros((len(rows), width), dtype=np.int64)
    at = np.zeros((len(rows), width), dtype=np.intp)
    for r, row in enumerate(rows):
        for j, (t, c) in enumerate(row.items()):
            coeff[r, j], at[r, j] = c % p, fibers[t][0]
    for vals in evaluation_matrix(params, points, window):
        prod = vals[mono_i] * vals[mono_j] % p
        if np.any(prod != prod[first]) or np.any((prod[at] * coeff % p).sum(axis=1) % p):
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
        image = (block[:, :, None] * phi2.T % p).sum(axis=1) % p
        vanish = vanish and not np.any(image)
        dim = sum(fibers[t][1] - fibers[t][0] - 1 for t in ts) + rank_mod_p_array(block, p)
        if dim:
            dims[h] = dim
    return vanish, phi2_rank, dims


def span_rank_by_character(params: CurveParams) -> dict[IndexTuple, int]:
    """Rank of each character's block of the degree-2 relation span; labels
    with no relations are omitted (their dimension is 0)."""
    return _character_blocks(params, [row for _, row in _trinomial_rows(params)])[2]


# --- the verification report ---------------------------------------------------

# Curve points at which every relation is evaluated in check (a).
KERNEL_POINTS = 50


def verify_degree2_kernel(params: CurveParams) -> dict:
    """Run every degree-2 check.  Returns one dict, keys in this order: the
    counts p, dim_s2, n_binomials, n_trinomials, phi2_rank, ker_dim,
    span_rank, standard_count, points_used; the flags symbolic_kernel_ok and
    point_kernel_ok (a), span_rank_ok (b), standard_count_ok (c),
    trinomial_initial_ok (d); per_character, {label: span rank} over the
    sorted labels whose rank is nonzero; passed, the five flags' conjunction.

    (a) each trinomial's fiber row, built once, maps to zero in the weight-2
        basis (against each character's phi2 block, exactly mod p; a
        binomial's row is zero), and every binomial and trinomial row
        evaluates to zero at KERNEL_POINTS curve points;
    (b) the relation span has rank dim S_2 - dim V_2 (with the evaluation
        matrix itself of full rank dim V_2), both ranks summed over the
        character blocks;
    (c) the surviving-fiber count from the shifted C_i sets equals both the
        weight-2 window size and dim S_2 - span rank;
    (d) each trinomial's order-maximal term is its lam_i-term, the first of
        its three distinct fibers, which monomial_sort_key compares first.
    Raises InsufficientPointsError when the prime is too small for (a).
    """
    k, n, p = params.k, params.n, params.p
    d2 = dim_vm(k, n, 2)
    pairs, fibers = _degree2_data(k, n)
    dim_s2 = len(pairs)
    assert dim_s2 == total_degree_d_monomials(k, n, 2)
    rows = [row for _, row in _trinomial_rows(params)]

    # (a) pointwise: evaluate every relation at sampled points.
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


def _monomial_text(mono: MonomialKey) -> str:
    if mono[0] == mono[1]:
        return f"{variable_name(mono[0])}^2"
    return f"{variable_name(mono[0])}*{variable_name(mono[1])}"


def _json_block(brackets: str, items: list[str], depth: int) -> str:
    """An array ("[]") or object ("{}") of already-encoded items, laid out
    as json.dumps(..., indent=2) lays it out at nesting depth `depth`."""
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return f'{brackets[0]}{pad}{("," + pad).join(items)}\n{"  " * depth}{brackets[1]}'


def export_ideal(params: CurveParams, fmt: str) -> str:
    """Serialize the generators: "json" (machine round-trip) or "cas-text"
    (one generator per line, pasteable into a computer algebra system)."""
    k, n, p = params.k, params.n, params.p
    variables = enumerate_im(k, n, 1).members
    bins = generate_binomials(k, n)
    tris = generate_trinomials(params)

    if fmt == "json":
        # Assembled from text (see the module docstring): with an indent,
        # json.dumps runs its pure-Python encoder over every number.
        factor = {t: _json_block("[]", [str(c) for c in t], 5) for t in variables}
        term = _json_block("{}", [
            '"coeff": %d',
            '"factors": ' + _json_block("[]", ["%s", "%s"], 4),
        ], 3)

        def relations(rels: list[Relation]) -> str:
            return _json_block("[]", [
                _json_block("[]", [
                    term % (c, factor[a], factor[b]) for c, (a, b) in rel.terms
                ], 2)
                for rel in rels
            ], 1)

        return _json_block("{}", [
            f'"k": {k}',
            f'"n": {n}',
            f'"p": {p}',
            '"lambda": ' + _json_block("[]", [str(v) for v in params.lam], 1),
            '"variables": ' + _json_block("[]", [
                _json_block("[]", [str(c) for c in t], 2) for t in variables
            ], 1),
            '"binomials": ' + relations(bins),
            '"trinomials": ' + relations(tris),
        ], 0)

    if fmt == "cas-text":
        lines = [
            f"// k={k} n={n} p={p}",
            "// lambda parameters: "
            + " ".join(f"l{i + 1}={v}" for i, v in enumerate(params.lam)),
            f"// variables ({len(variables)}), binomials ({len(bins)}), "
            f"trinomials ({len(tris)})",
            "ring R = (0, "
            + ", ".join(f"l{i + 1}" for i in range(n - 1))
            + "), ("
            + ", ".join(variable_name(t) for t in variables)
            + "), dp;",
            "// generators:",
        ]
        for rel in bins:
            (_, m1), (_, m2) = rel.terms
            lines.append(f"{_monomial_text(m1)} - {_monomial_text(m2)}")
        for rel in tris:
            (_, m0), (_, m1), (_, m2) = rel.terms
            lines.append(
                f"l{rel.index}*{_monomial_text(m0)} + "
                f"{_monomial_text(m1)} + {_monomial_text(m2)}"
            )
        return "\n".join(lines) + "\n"

    raise ParameterError(f"unknown export format: {fmt!r}")


def parse_ideal_json(text: str) -> dict:
    """Inverse of the json export: returns the parsed payload with relations
    rebuilt as Relation objects under keys "binomials"/"trinomials".  A
    missing key or a malformed relation raises ParameterError."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ParameterError("ideal payload is not a JSON object")
    missing = sorted({"k", "n", "p", "lambda", "variables", "binomials", "trinomials"} - set(data))
    if missing:
        raise ParameterError(f"ideal payload lacks {', '.join(missing)}")
    k, n = data["k"], data["n"]

    def rebuild(raw: list[dict], kind: str, size: int) -> Relation:
        try:  # a term that is not {"coeff": ..., "factors": ...} leaves no terms
            terms = tuple((item["coeff"], tuple(map(tuple, item["factors"]))) for item in raw)
        except (KeyError, TypeError):
            terms = ()
        if len(terms) != size or any(
            len(mono) != 2 or any(len(f) != n or not all(isinstance(c, int) for c in f)
                                  for f in mono) for _, mono in terms
        ):
            raise ParameterError(f"{kind} {raw} is not {size} products of two "
                                 f"length-{n} integer index tuples")
        fibers = [index_sum(mono) for _, mono in terms]
        if kind == "binomial":
            if fibers[0] != fibers[1]:
                raise ParameterError(f"binomial {raw} has terms over different fibers")
            return Relation(terms, kind)
        # Recover the relation index from the fiber drop of the third term.
        drop = [b - d for b, d in zip(fibers[0], fibers[2])]
        if drop[0] or sorted(drop) != [0] * (len(drop) - 1) + [k]:
            raise ParameterError(f"trinomial {raw} does not lower exactly one "
                                 f"a-coordinate by k = {k}")
        return Relation(terms, kind, index=drop.index(k))

    for kind in ("binomials", "trinomials"):
        if not isinstance(data[kind], list):
            raise ParameterError(f"{kind} is not a list of relations")
    return {
        "k": k,
        "n": n,
        "p": data["p"],
        "lambda": tuple(data["lambda"]),
        "variables": tuple(tuple(t) for t in data["variables"]),
        "binomials": [rebuild(r, "binomial", 2) for r in data["binomials"]],
        "trinomials": [rebuild(r, "trinomial", 3) for r in data["trinomials"]],
    }
