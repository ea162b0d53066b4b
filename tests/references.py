"""Test-only reference implementations: second routes to jobs that
gfcring computes on one production path, kept here as oracles.

  - rank_mod_p_array with its _eliminate, the rank of one matrix, one
    Python step per pivot: the oracle of linalg.rank_mod_p;
  - evaluate_theta, the scalar form of curve.evaluation_matrix;
  - is_on_curve and scan_by_x, the point test and the point scan one x
    and one point at a time: the oracle of curve._scan, which tests x in
    blocks;
  - AffinePoint and apply_group_to_point, a point as Python ints and the
    scalar form of curve.apply_group, which scales the columns of an array
    of points;
  - the divisors of x, y_j and dx, and a divisor's degree, which the
    canonical-divisor tests combine into divisor_of_theta;
  - monomial_sort_key and compare_monomials, the term order that
    ideal._degree2_data keeps within each fiber and verify's check (d)
    reads off the fibers;
  - degree2_monomials, the rows of ideal._degree2_data as tuples of
    window members, which export alone reads, as index arrays (verify reads
    only ideal._fiber_sizes, their count per fiber);
  - reduce_stepwise, the weight-2 rewriting one curve equation at a time,
    the oracle for the closed form of ideal._phi2_entries;
  - reduce_to_basis and phi2_matrix, one fiber's closed-form rewriting and
    the dense evaluation map whose character blocks verify_degree2_kernel
    ranks;
  - span_rank_by_character, the per-character ranks without the checks;
  - character_blocks_one_by_one, ideal._character_blocks by elimination:
    every character block ranked on its own and multiplied by its phi2
    block, the oracle of the certified ranks and of the sparse join;
  - relations_vanish_at_by_monomials, the degree-2 point check that
    multiplies every monomial's window values at every point;
  - member_im, the window test behind enumerate_im;
  - enumerate_im_by_tuples, minkowski_di1_by_tuples, enumerate_ci_by_tuples,
    shifted_ci_union_by_tuples and standard_set_by_tuples, the index sets
    that indexsets lays out as key arrays, built one tuple at a time;
  - nu_table_by_tuples, both nu routes one label or one window member at a
    time;
  - action_exponent, the scalar form of reps.character_of's action;
  - count_partitions, the depth-first count of a d-fold sum's multisets of
    window members, and mu, its total over J_h, the d-fold direct sums
    (sumset_by_direct_sums) of character h: the per-label oracle of
    reps.mu_table, which counts in the group ring of (Z/k)^n;
  - syzygy_multiplicity, mu - nu per label through the DFS mu;
  - Relation (with MonomialKey), the generators as formal sums of monomials
    of window tuples, built by binomial_relations and trinomial_relations
    from the arrays of ideal.generate_binomials and generate_trinomials;
  - tau and index_sum, a fiber's order-minimal monomial and a monomial's
    fiber, as tuples;
  - parse_ideal_json, the json export read back as Relations: its
    round-trip oracle;
  - encoder_export and cas_text_export, both export formats written from
    the Relations, the json one by json.dumps.
"""

from __future__ import annotations

import bisect
import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from gfcring.curve import _kth_roots, evaluation_matrix
from gfcring.ideal import (
    _character_blocks,
    _degree2_data,
    _phi2_entries,
    _trinomial_rows,
    generate_binomials,
    generate_trinomials,
    variable_name,
)
from gfcring.indexsets import IndexTuple, _lattice, enumerate_im
from gfcring.params import CurveParams, ParameterError, require_int64_prime
from gfcring.reps import all_labels, character_of, nu_closed


# --- linalg -------------------------------------------------------------------

def rank_mod_p_array(mat: np.ndarray | Sequence[Sequence[int]], p: int) -> int:
    """Rank over F_p of an integer array or list of rows (never clobbered).

    The working copy is C-ordered whatever the input's layout: elimination
    walks rows, and on a column-strided copy it runs about 3x slower.
    Raises ParameterError when p^2 >= 2^62, where int64 products would wrap.
    """
    require_int64_prime(p)
    mat = np.array(mat, dtype=np.int64, order="C")
    return _eliminate(mat, p) if mat.size else 0


def _eliminate(mat: np.ndarray, p: int) -> int:
    """In-place row reduction; returns the number of pivots.

    Full-matrix reduction mod p after every pivot would dominate the runtime
    (int64 division is slow), so entries are left to drift and only the
    pivot row and the column being cleared are canonicalized.  One update
    step grows magnitudes by at most p^2, so a counter renormalizes the
    trailing block before int64 could overflow; for desk-scale primes that
    never actually triggers.
    """
    n_rows, n_cols = mat.shape
    mat %= p
    rank = 0
    dirty = 0
    max_dirty = 2**62 // (p * p) - 1
    for col in range(n_cols):
        if rank == n_rows:
            break
        colvals = mat[rank:, col] % p
        nz = np.nonzero(colvals)[0]
        if nz.size == 0:
            continue
        pivot = rank + int(nz[0])
        if pivot != rank:
            mat[[rank, pivot]] = mat[[pivot, rank]]
        # Columns left of the pivot are never read again, so scaling and
        # clearing both act on the trailing block only.
        row = mat[rank, col:]
        row %= p
        inv = pow(int(row[0]), p - 2, p)
        row *= inv
        row %= p
        below = mat[rank + 1:, col:]
        if below.size:
            factors = below[:, 0] % p
            below -= np.outer(factors, row)
            dirty += 1
            if dirty >= max_dirty:
                below %= p
                dirty = 0
        rank += 1
    return rank


# --- curve --------------------------------------------------------------------

def evaluate_theta(params: CurveParams, pt: Sequence[int], t: IndexTuple) -> int:
    """Value of x^r * prod y_j^(-a_j) at the point row (x, y_2, ..., y_n)
    (tensor factor omitted)."""
    p = params.p
    x, *ys = map(int, pt)
    val = pow(x, t[0], p)
    for yj, aj in zip(ys, t[1:]):
        if aj:
            val = val * pow(pow(yj, aj, p), p - 2, p) % p
    return val


def is_on_curve(params: CurveParams, pt: Sequence[int]) -> bool:
    k, p = params.k, params.p
    x, *ys = map(int, pt)
    xk = pow(x, k, p)
    return all(
        (lam_j + xk + pow(yj, k, p)) % p == 0 and yj % p != 0
        for lam_j, yj in zip(params.lam, ys)
    )


def scan_by_x(params: CurveParams) -> Iterator[tuple[int, ...]]:
    """The point rows (x, y_2, ..., y_n) of curve._scan, one x at a time."""
    k, p, zeta = params.k, params.p, params.zeta
    res_exp = (p - 1) // k
    for x in range(p):
        xk = pow(x, k, p)
        targets = [(-(lam_j + xk)) % p for lam_j in params.lam]
        if any(c == 0 or pow(c, res_exp, p) != 1 for c in targets):
            continue
        root_lists = [_kth_roots(c, k, p, zeta) for c in targets]
        for ys in itertools.product(*root_lists):
            pt = (x, *ys)
            assert is_on_curve(params, pt)
            yield pt


@dataclass(frozen=True, slots=True)
class AffinePoint:
    x: int
    y: tuple[int, ...]  # (y_2, ..., y_n), all nonzero mod p


def apply_group_to_point(params: CurveParams, pt: AffinePoint, g: IndexTuple) -> AffinePoint:
    """Translate the point by the automorphism indexed by g = (e_1, ..., e_n):
    x scales by zeta^(e_1) and y_{j+1} by zeta^(e_{j+1})."""
    p, zeta = params.p, params.zeta
    x = pt.x * pow(zeta, g[0] % params.k, p) % p
    ys = tuple(
        yj * pow(zeta, e % params.k, p) % p for yj, e in zip(pt.y, g[1:])
    )
    return AffinePoint(x, ys)


def divisor_of_x(n: int) -> tuple[int, ...]:
    return (-1, 1) + (0,) * (n - 1)


def divisor_of_y(n: int, j: int) -> tuple[int, ...]:
    """Divisor of y_j for j in 2..n: a pole on D_0, a zero on D_j."""
    if not 2 <= j <= n:
        raise ParameterError(f"y index must be in 2..{n}, got {j}")
    c = [0] * (n + 1)
    c[0], c[j] = -1, 1
    return tuple(c)


def divisor_of_dx(k: int, n: int) -> tuple[int, ...]:
    return (-2, 0) + (k - 1,) * (n - 1)


def divisor_degree(k: int, n: int, c: tuple[int, ...]) -> int:
    """Total degree: every class D_j consists of k^(n-1) points."""
    return sum(c) * k ** (n - 1)


# --- ideal --------------------------------------------------------------------

MonomialKey = tuple[IndexTuple, ...]


def index_sum(mono: MonomialKey) -> IndexTuple:
    return tuple(sum(c) for c in zip(*mono))


def tau(k: int, n: int, t: IndexTuple) -> MonomialKey:
    """The order-minimal degree-2 monomial with index-sum t."""
    pairs, edges = _degree2_data(k, n)
    fibers = minkowski_di1_by_tuples(k, n)
    f = bisect.bisect_left(fibers, tuple(t))
    if fibers[f:f + 1] != (tuple(t),):
        raise ParameterError(f"{t} is not a sum of two degree-1 window members")
    window = enumerate_im(k, n, 1).members
    i, j = pairs[edges[f]].tolist()
    return window[i], window[j]


@dataclass(frozen=True)
class Relation:
    """Formal combination of degree-2 monomials; coefficients are integers
    read mod p (binomials use 1 and -1 and are field-independent)."""

    terms: tuple[tuple[int, MonomialKey], ...]
    kind: str  # "binomial" | "trinomial"
    index: int | None = None  # relation index for trinomials


def binomial_relations(k: int, n: int) -> list[Relation]:
    """One relation M - tau(t) per monomial M above t other than tau(t),
    fibers in sorted order: generate_binomials as Relations.

    Spans all pairwise differences within every fiber; the count is
    (number of degree-2 monomials) - (number of fibers).
    """
    w = enumerate_im(k, n, 1).members
    return [Relation(((1, (w[a], w[b])), (-1, (w[c], w[d]))), "binomial")
            for a, b, c, d in generate_binomials(k, n).tolist()]


def trinomial_relations(params: CurveParams) -> list[Relation]:
    """lam_i*tau(t) + tau(t+(k,0,..)) + tau(t-k*e_i) for each i and t in C_i:
    generate_trinomials as Relations."""
    w = enumerate_im(params.k, params.n, 1).members
    return [Relation(((params.lam[i - 1] % params.p, (w[a], w[b])), (1, (w[c], w[d])),
                      (1, (w[e], w[f]))), "trinomial", index=i)
            for i, a, b, c, d, e, f in generate_trinomials(params.k, params.n).tolist()]


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


def encoder_export(params: CurveParams) -> str:
    """The json export through json.dumps(indent=2), from the Relations."""
    def rel_json(rel):
        return [{"coeff": c, "factors": [list(f) for f in mono]} for c, mono in rel.terms]

    return json.dumps(
        {
            "k": params.k,
            "n": params.n,
            "p": params.p,
            "lambda": list(params.lam),
            "variables": [list(t) for t in enumerate_im(params.k, params.n, 1).members],
            "binomials": [rel_json(r) for r in binomial_relations(params.k, params.n)],
            "trinomials": [rel_json(r) for r in trinomial_relations(params)],
        },
        indent=2,
    )


def cas_text_export(params: CurveParams) -> str:
    """The cas-text export line by line, from the Relations."""
    k, n = params.k, params.n
    names = [variable_name(t) for t in enumerate_im(k, n, 1).members]
    bins, tris = binomial_relations(k, n), trinomial_relations(params)

    def product(mono: MonomialKey) -> str:
        a, b = map(variable_name, mono)
        return f"{a}^2" if a == b else f"{a}*{b}"

    return "\n".join([
        f"// k={k} n={n} p={params.p}",
        "// lambda parameters: " + " ".join(f"l{i}={v}" for i, v in enumerate(params.lam, 1)),
        f"// variables ({len(names)}), binomials ({len(bins)}), trinomials ({len(tris)})",
        f"ring R = (0, {', '.join(f'l{i}' for i in range(1, n))}), ({', '.join(names)}), dp;",
        "// generators:",
        *(f"{product(rel.terms[0][1])} - {product(rel.terms[1][1])}" for rel in bins),
        *(f"l{rel.index}*" + " + ".join(product(mono) for _, mono in rel.terms) for rel in tris),
    ]) + "\n"


def monomial_sort_key(mono: MonomialKey):
    """Total-order key: degree, then larger exponent-sum of x first, then
    smaller coordinate sums of a, then the factor sequence."""
    sums = tuple(sum(c) for c in zip(*mono))
    return (len(mono), -sums[0], *sums[1:], mono)


def compare_monomials(m1: MonomialKey, m2: MonomialKey) -> int:
    """-1, 0, or 1 as m1 precedes, equals, or follows m2 in the term order."""
    k1, k2 = monomial_sort_key(m1), monomial_sort_key(m2)
    return (k1 > k2) - (k1 < k2)


def degree2_monomials(k: int, n: int) -> tuple[MonomialKey, ...]:
    window = enumerate_im(k, n, 1).members
    return tuple((window[i], window[j]) for i, j in _degree2_data(k, n)[0].tolist())


def reduce_stepwise(params: CurveParams, t: IndexTuple) -> dict[IndexTuple, int]:
    """The weight-2 element at t rewritten one curve equation at a time,
    {window member: nonzero coefficient mod p}: each equation rewrites every
    term whose coordinate j is below the window, one dict per equation."""
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
    combination of weight-2 window members, as a dict index -> nonzero
    coefficient: t's entries of ideal._phi2_entries.

    Each coordinate below the window is raised once by k, so the expansion
    has at most 1 + (number of low coordinates) terms and every output index
    lies in the weight-2 window.
    """
    fibers = minkowski_di1_by_tuples(params.k, params.n)
    f = bisect.bisect_left(fibers, tuple(t))
    if fibers[f:f + 1] != (tuple(t),):
        raise ParameterError(f"{t} is not a 2-fold sumset point")
    window = enumerate_im(params.k, params.n, 2).members
    row, fiber, value = _phi2_entries(params)
    at = fiber == f
    return {window[r]: v for r, v in zip(row[at].tolist(), value[at].tolist()) if v}


def phi2_matrix(params: CurveParams) -> np.ndarray:
    """Evaluation matrix of degree-2 monomials in the weight-2 basis.

    Rows follow the sorted weight-2 window, columns the rows of
    ideal._degree2_data: the fibers in sumset order, each in term order;
    column M holds the basis expansion of the element at M's index-sum.
    Full row rank (= dim V_2) is the surjectivity statement.
    """
    k, n = params.k, params.n
    pairs, edges = _degree2_data(k, n)
    mat = np.zeros((len(enumerate_im(k, n, 2)), len(pairs)), dtype=np.int64)
    for r, f, c in zip(*(a.tolist() for a in _phi2_entries(params))):
        mat[r, edges[f]:edges[f + 1]] = c
    return mat


def span_rank_by_character(params: CurveParams) -> dict[IndexTuple, int]:
    """Rank of each character's block of the degree-2 relation span; labels
    with no relations are omitted (their dimension is 0)."""
    return _character_blocks(params, _trinomial_rows(params))[2]


def character_blocks_one_by_one(
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
    parts.
    """
    k, n, p = params.k, params.n, params.p
    size = np.diff(_degree2_data(k, n)[1])
    fibers, coeff = rels
    row, col, value = _phi2_entries(params)
    term = np.flatnonzero(coeff % p)  # flat positions of the nonzero coefficients

    sumset, keys, _ = _lattice(k, n, 2, 0)
    char = np.ravel_multi_index(character_of(k, 2, sumset.T), (k,) * n)
    window_char = char[np.searchsorted(keys, _lattice(k, n, 2)[1])]  # at the same points
    present = np.flatnonzero(np.bincount(char))

    def split(labels: np.ndarray) -> list[np.ndarray]:
        """The positions of each present label in turn, ascending."""
        order = np.argsort(labels, kind="stable")
        return np.split(order, np.searchsorted(labels[order], present[1:]))

    vanish, phi2_rank, dims = True, 0, {}
    blocks = zip(present.tolist(), split(char), split(window_char), split(char[col]),
                 split(char[fibers.flat[term]]))
    for h, cols, rows, e, t in blocks:
        phi2 = np.zeros((len(rows), len(cols)), dtype=np.int64)
        phi2[np.searchsorted(rows, row[e]), np.searchsorted(cols, col[e])] = value[e]
        phi2_rank += rank_mod_p_array(phi2, p)
        at = term[t]
        new = np.diff(at // 3, prepend=-1) != 0  # the first term of each relation's part
        block = np.zeros((new.sum(), len(cols)), dtype=np.int64)
        block[np.cumsum(new) - 1, np.searchsorted(cols, fibers.flat[at])] = coeff.flat[at] % p
        vanish = vanish and not any(np.any((block * r % p).sum(axis=1) % p) for r in phi2)
        dim = int((size - 1)[cols].sum()) + rank_mod_p_array(block, p)
        if dim:
            dims[tuple(map(int, np.unravel_index(h, (k,) * n)))] = dim
    return vanish, phi2_rank, dims


def relations_vanish_at_by_monomials(
    params: CurveParams, rels: tuple[np.ndarray, np.ndarray], points: np.ndarray
) -> bool:
    """Whether every binomial and every fiber row of rels = (fibers, coeff),
    sumset rows and their coefficients, evaluates to zero at every point.

    The degree-1 window is evaluated once as a (points x variables) matrix.
    The binomials stay implicit: at each point every monomial's value
    vals[i]*vals[j] must equal that of its fiber's first row, so a row reads
    fiber f at prod[edges[f]], checked as one int64 expression.  The scan
    stops at the first point where a check fails; one point at a time keeps
    the working set at a few monomial-sized arrays.
    """
    p = params.p
    window = enumerate_im(params.k, params.n, 1).members
    pairs, edges = _degree2_data(params.k, params.n)
    first = np.repeat(edges[:-1], np.diff(edges))
    mono_i, mono_j = pairs.T.astype(np.intp)  # an intp index is not converted per gather
    fibers, coeff = rels
    for vals in evaluation_matrix(params, points, window):
        prod = vals[mono_i] * vals[mono_j] % p
        terms = prod[edges[fibers]] * (coeff % p) % p
        if np.any(prod != prod[first]) or np.any(terms.sum(axis=1) % p):
            return False
    return True


# --- indexsets ----------------------------------------------------------------

def member_im(k: int, n: int, m: int, t: IndexTuple) -> bool:
    """Whether t lies in the m-th basis window: (m-1)(k-1) <= a_j <= m(k-1)
    for every coordinate and 0 <= r <= |a| - 2m."""
    if m < 1:
        raise ParameterError(f"need m >= 1, got {m}")
    if len(t) != n:
        raise ParameterError(f"index tuple {t} has length {len(t)}, expected n = {n}")
    r, a = t[0], t[1:]
    lo, hi = (m - 1) * (k - 1), m * (k - 1)
    return all(lo <= aj <= hi for aj in a) and 0 <= r <= sum(a) - 2 * m


def enumerate_im_by_tuples(k: int, n: int, m: int) -> tuple[IndexTuple, ...]:
    """The m-th window, r looped per a and the tuples sorted."""
    lo, hi = (m - 1) * (k - 1), m * (k - 1)
    members = []
    for a in itertools.product(range(lo, hi + 1), repeat=n - 1):
        for r in range(sum(a) - 2 * m + 1):
            members.append((r, *a))
    members.sort()
    return tuple(members)


@lru_cache(maxsize=None)
def minkowski_di1_by_tuples(k: int, n: int) -> tuple[IndexTuple, ...]:
    """The 2-fold sumset from its closed form, one comprehension."""
    return tuple(sorted((r, *a) for a in itertools.product(range(2 * k - 1), repeat=n - 1)
                        for r in range(sum(a) - 3)))


def enumerate_ci_by_tuples(k: int, n: int, i: int) -> tuple[IndexTuple, ...]:
    """C_i as a filter over the sumset's tuples."""
    return tuple(t for t in minkowski_di1_by_tuples(k, n)
                 if k <= t[i] and t[0] <= sum(t[1:]) - (k + 4))


def shifted_ci_union_by_tuples(k: int, n: int) -> set[IndexTuple]:
    """The down-shifts t - k*e_i of every t in every C_i, as a set."""
    return {(*t[:i], t[i] - k, *t[i + 1:])
            for i in range(1, n) for t in enumerate_ci_by_tuples(k, n, i)}


def standard_set_by_tuples(k: int, n: int) -> tuple[IndexTuple, ...]:
    """The sumset minus the shifted union, by set difference."""
    return tuple(sorted(set(minkowski_di1_by_tuples(k, n)) - shifted_ci_union_by_tuples(k, n)))


# --- reps ---------------------------------------------------------------------

def nu_table_by_tuples(k: int, n: int, m: int, closed: bool) -> dict[IndexTuple, int]:
    """nu_table's two routes, nu_closed per label or character_of per
    window member."""
    if closed:
        return {h: nu_closed(k, n, m, h) for h in all_labels(k, n)}
    vals = {h: 0 for h in all_labels(k, n)}
    for t in enumerate_im_by_tuples(k, n, m):
        vals[character_of(k, m, t)] += 1
    return vals


def action_exponent(k: int, m: int, t: IndexTuple, g: IndexTuple) -> int:
    """Exponent of zeta by which the automorphism g scales the weight-m
    element at t: e_1 (r + m) - a . e, reduced mod k."""
    if len(g) != len(t):
        raise ParameterError(f"length mismatch: t={t}, g={g}")
    return (g[0] * (t[0] + m) - sum(aj * ej for aj, ej in zip(t[1:], g[1:]))) % k


@lru_cache(maxsize=None)
def sumset_by_direct_sums(k: int, n: int, d: int) -> tuple[IndexTuple, ...]:
    """The d-fold sumset of the degree-1 window: the sums of its d-element
    multisets, sorted."""
    window = enumerate_im(k, n, 1).members
    return tuple(sorted({tuple(map(sum, zip(*multiset)))
                         for multiset in itertools.combinations_with_replacement(window, d)}))


def count_partitions(k: int, n: int, d: int, t: IndexTuple) -> int:
    """Number of d-element multisets of the degree-1 window summing to t.

    Depth-first over the sorted window with non-decreasing element indices,
    so each multiset is counted exactly once.
    """
    if d < 1:
        raise ParameterError(f"need d >= 1, got {d}")
    items = enumerate_im(k, n, 1).members
    hi_a = k - 1
    hi_r = (n - 1) * (k - 1) - 2  # largest r of any window member

    def go(remaining: int, target: IndexTuple, lo: int) -> int:
        if remaining == 0:
            return 1 if all(c == 0 for c in target) else 0
        if any(c < 0 for c in target):
            return 0
        if target[0] > remaining * hi_r or any(c > remaining * hi_a for c in target[1:]):
            return 0
        total = 0
        for idx in range(lo, len(items)):
            v = items[idx]
            total += go(remaining - 1, tuple(x - y for x, y in zip(target, v)), idx)
        return total

    return go(d, tuple(t), 0)


def mu(k: int, n: int, d: int, h: IndexTuple) -> int:
    """Multiplicity of h in the degree-d part of the polynomial ring: the
    number of degree-d monomials whose index sum lies in J_h, the d-fold
    sums t with character_of(k, d, t) = h."""
    return sum(count_partitions(k, n, d, t) for t in sumset_by_direct_sums(k, n, d)
               if character_of(k, d, t) == h)


def syzygy_multiplicity(k: int, n: int, d: int, h: IndexTuple) -> int:
    """mu - nu in degree d; the number of independent degree-d relations
    transforming by h.  Always nonnegative."""
    val = mu(k, n, d, h) - nu_closed(k, n, d, h)
    assert val >= 0, f"negative relation multiplicity at (k={k}, n={n}, d={d}, h={h})"
    return val
