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
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .curve import InsufficientPointsError, evaluate_theta, sample_points
from .indexsets import (
    IndexTuple,
    enumerate_ci,
    enumerate_im,
    minkowski_di1,
    standard_set,
    standard_set_identity,
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
def _degree2_data(
    k: int, n: int
) -> tuple[tuple[MonomialKey, ...], dict[IndexTuple, tuple[MonomialKey, ...]], dict[IndexTuple, MonomialKey]]:
    """(all degree-2 monomials in term order, fiber -> its monomials in term
    order, fiber -> tau).  Treat the returned structures as immutable."""
    i1 = enumerate_im(k, n, 1).members
    monos = sorted(
        (tuple(sorted(pair)) for pair in itertools.combinations_with_replacement(i1, 2)),
        key=monomial_sort_key,
    )
    fibers: dict[IndexTuple, list[MonomialKey]] = {}
    for mono in monos:
        fibers.setdefault(index_sum(mono), []).append(mono)
    fiber_map = {t: tuple(ms) for t, ms in fibers.items()}
    tau_map = {t: ms[0] for t, ms in fiber_map.items()}
    assert set(tau_map) == set(minkowski_di1(k, n, 2).members)
    return tuple(monos), fiber_map, tau_map


def degree2_monomials(k: int, n: int) -> tuple[MonomialKey, ...]:
    return _degree2_data(k, n)[0]


def tau(k: int, n: int, t: IndexTuple) -> MonomialKey:
    """The order-minimal degree-2 monomial with index-sum t."""
    tau_map = _degree2_data(k, n)[2]
    if tuple(t) not in tau_map:
        raise ParameterError(f"{t} is not a sum of two degree-1 window members")
    return tau_map[tuple(t)]


@dataclass(frozen=True)
class Relation:
    """Formal combination of degree-2 monomials; coefficients are integers
    read mod p (binomials use 1 and -1 and are field-independent)."""

    terms: tuple[tuple[int, MonomialKey], ...]
    kind: str  # "binomial" | "trinomial"
    index: int | None = None  # relation index for trinomials


def relation_character(k: int, rel: Relation) -> IndexTuple:
    """Shared label ((sum r) + 2, -(sum a)) mod k of all the relation's terms."""
    return character_of(k, 2, index_sum(rel.terms[0][1]))


def generate_binomials(k: int, n: int) -> list[Relation]:
    """One relation M - tau(t) per monomial M above t other than tau(t).

    Spans all pairwise differences within every fiber; the count is
    (number of degree-2 monomials) - (number of fibers).
    """
    _, fiber_map, tau_map = _degree2_data(k, n)
    out = []
    for t in sorted(fiber_map):
        rep = tau_map[t]
        for mono in fiber_map[t][1:]:
            out.append(Relation(((1, mono), (-1, rep)), "binomial"))
    return out


def _shift_down(t: IndexTuple, i: int, k: int) -> IndexTuple:
    return (*t[:i], t[i] - k, *t[i + 1:])


def generate_trinomials(params: CurveParams) -> list[Relation]:
    """lam_i*tau(t) + tau(t+(k,0,..)) + tau(t-k*e_i) for each i and t in C_i."""
    k, n = params.k, params.n
    tau_map = _degree2_data(k, n)[2]
    out = []
    for i in range(1, n):
        lam_i = params.lam[i - 1] % params.p
        for t in enumerate_ci(k, n, i):
            up = (t[0] + k, *t[1:])
            down = _shift_down(t, i, k)
            out.append(
                Relation(
                    ((lam_i, tau_map[t]), (1, tau_map[up]), (1, tau_map[down])),
                    "trinomial",
                    index=i,
                )
            )
    return out


# --- rewriting into the weight-2 basis ---------------------------------------

@lru_cache(maxsize=None)
def _reduce_cached(params: CurveParams, t: IndexTuple) -> tuple[tuple[IndexTuple, int], ...]:
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
    return tuple(sorted((s, c % p) for s, c in terms.items() if c % p))


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
    out = dict(_reduce_cached(params, t))
    assert all(s in enumerate_im(params.k, params.n, 2) for s in out)
    return out


def phi2_matrix(params: CurveParams) -> np.ndarray:
    """Evaluation matrix of degree-2 monomials in the weight-2 basis.

    Rows follow the sorted weight-2 window, columns follow the term order on
    monomials; column M holds the basis expansion of the element at M's
    index-sum.  Full row rank (= dim V_2) is the surjectivity statement.
    """
    k, n = params.k, params.n
    monos = degree2_monomials(k, n)
    basis = enumerate_im(k, n, 2).members
    row = {t: idx for idx, t in enumerate(basis)}
    mat = np.zeros((len(basis), len(monos)), dtype=np.int64)
    for col, mono in enumerate(monos):
        for s, c in _reduce_cached(params, index_sum(mono)):
            mat[row[s], col] = c
    return mat


# --- span-rank bookkeeping ----------------------------------------------------

def _fiber_matrix(params: CurveParams, rels: list[Relation]) -> np.ndarray:
    """Trinomial coefficients in fiber coordinates (columns = index-sums).

    Valid because trinomials only involve tau monomials: one per fiber.
    """
    cols = sorted({index_sum(mono) for rel in rels for _, mono in rel.terms})
    col = {t: i for i, t in enumerate(cols)}
    mat = np.zeros((len(rels), len(cols)), dtype=np.int64)
    for r, rel in enumerate(rels):
        for c, mono in rel.terms:
            mat[r, col[index_sum(mono)]] += c
    return mat


def span_rank_by_character(
    params: CurveParams,
) -> dict[IndexTuple, int]:
    """Rank of the degree-2 relation span, split by character label.

    Every non-tau monomial appears in exactly one binomial, so binomial rows
    are already in echelon form on those columns and contribute their count
    to the rank; trinomial rows are supported on tau monomials only, which
    the binomial pivots never touch, so their contribution is the rank of
    the fiber-coordinate matrix.  Characters are preserved by both families,
    so the blocks are independent and their ranks add.
    """
    k = params.k
    dims: dict[IndexTuple, int] = {}
    for rel in generate_binomials(k, params.n):
        h = relation_character(k, rel)
        dims[h] = dims.get(h, 0) + 1
    tri_by_char: dict[IndexTuple, list[Relation]] = {}
    for rel in generate_trinomials(params):
        tri_by_char.setdefault(relation_character(k, rel), []).append(rel)
    for h, rels in sorted(tri_by_char.items()):
        dims[h] = dims.get(h, 0) + rank_mod_p_array(_fiber_matrix(params, rels), params.p)
    return dict(sorted(dims.items()))


def per_character_span_dims(params: CurveParams) -> dict[IndexTuple, int]:
    """Rank of each character's block of the degree-2 relation span; labels
    with no relations are omitted (their dimension is 0)."""
    return {h: d for h, d in span_rank_by_character(params).items() if d}


def relation_matrix(params: CurveParams, rels: list[Relation]) -> np.ndarray:
    """Dense relation-by-monomial coefficient matrix (for cross-checks)."""
    monos = degree2_monomials(params.k, params.n)
    col = {mono: i for i, mono in enumerate(monos)}
    mat = np.zeros((len(rels), len(monos)), dtype=np.int64)
    for r, rel in enumerate(rels):
        for c, mono in rel.terms:
            mat[r, col[mono]] += c
    return mat % params.p


# --- the verification report ---------------------------------------------------

@dataclass(frozen=True)
class Degree2Report:
    k: int
    n: int
    p: int
    dim_s2: int
    n_binomials: int
    n_trinomials: int
    phi2_rank: int
    ker_dim: int
    span_rank: int
    standard_count: int
    points_used: int
    symbolic_kernel_ok: bool
    point_kernel_ok: bool
    span_rank_ok: bool
    standard_count_ok: bool
    trinomial_initial_ok: bool
    per_character: tuple[tuple[IndexTuple, int], ...]
    plane_quintic_warning: bool

    @property
    def passed(self) -> bool:
        return (
            self.symbolic_kernel_ok
            and self.point_kernel_ok
            and self.span_rank_ok
            and self.standard_count_ok
            and self.trinomial_initial_ok
        )


def verify_degree2_kernel(params: CurveParams, min_points: int = 50) -> Degree2Report:
    """Run every degree-2 check and collect the outcome.

    (a) each relation maps to zero in the weight-2 basis (exact linear
        algebra) and evaluates to zero at >= min_points curve points;
    (b) the relation span has rank dim S_2 - dim V_2 (with the evaluation
        matrix itself of full rank dim V_2);
    (c) the surviving-fiber count from the shifted C_i sets equals both the
        weight-2 window size and dim S_2 - span rank;
    (d) each trinomial's order-maximal term is its lam_i-term.
    Raises InsufficientPointsError when the prime is too small for (a).
    """
    k, n, p = params.k, params.n, params.p
    g = dim_vm(k, n, 1)
    d2 = dim_vm(k, n, 2)
    monos = degree2_monomials(k, n)
    dim_s2 = len(monos)
    assert dim_s2 == comb(g + 1, 2)

    bins = generate_binomials(k, n)
    tris = generate_trinomials(params)
    rels = bins + tris

    # (a) symbolic: phi2 @ rel^T = 0 for all relations at once.
    phi2 = phi2_matrix(params)
    phi2_rank = rank_mod_p_array(phi2, p)
    rel_mat = relation_matrix(params, rels)
    symbolic_kernel_ok = not np.any(phi2 @ rel_mat.T % p)

    # (a) numeric: evaluate every relation at sampled points.
    points, shortfall = sample_points(params, min_points)
    if shortfall and len(points) < min_points:
        raise InsufficientPointsError(
            f"only {len(points)} points over p = {p}, wanted {min_points}"
        )
    point_kernel_ok = True
    var_cols = enumerate_im(k, n, 1).members
    for pt in points:
        val = {t: evaluate_theta(params, pt, t) for t in var_cols}
        for rel in rels:
            acc = 0
            for c, mono in rel.terms:
                acc += c * val[mono[0]] * val[mono[1]]
            if acc % p:
                point_kernel_ok = False
                break
        if not point_kernel_ok:
            break

    # (b) span rank via the character decomposition.
    per_char = span_rank_by_character(params)
    span_rank = sum(per_char.values())
    span_rank_ok = phi2_rank == d2 and span_rank == dim_s2 - d2

    # (c) standard-fiber count, combinatorial vs rank-based.
    standard_count = len(standard_set(k, n))
    standard_count_ok = (
        standard_set_identity(k, n)
        and standard_count == d2
        and standard_count == dim_s2 - span_rank
    )

    # (d) initial terms of trinomials.
    trinomial_initial_ok = all(
        max((mono for _, mono in rel.terms), key=monomial_sort_key) == rel.terms[0][1]
        for rel in tris
    )

    return Degree2Report(
        k=k,
        n=n,
        p=p,
        dim_s2=dim_s2,
        n_binomials=len(bins),
        n_trinomials=len(tris),
        phi2_rank=phi2_rank,
        ker_dim=dim_s2 - phi2_rank,
        span_rank=span_rank,
        standard_count=standard_count,
        points_used=len(points),
        symbolic_kernel_ok=symbolic_kernel_ok,
        point_kernel_ok=point_kernel_ok,
        span_rank_ok=span_rank_ok,
        standard_count_ok=standard_count_ok,
        trinomial_initial_ok=trinomial_initial_ok,
        per_character=tuple(sorted(per_char.items())),
        plane_quintic_warning=params.plane_quintic,
    )


# --- export -------------------------------------------------------------------

def variable_name(t: IndexTuple) -> str:
    return "z_" + "_".join(str(c) for c in t)


def _monomial_text(mono: MonomialKey) -> str:
    if mono[0] == mono[1]:
        return f"{variable_name(mono[0])}^2"
    return f"{variable_name(mono[0])}*{variable_name(mono[1])}"


def export_ideal(params: CurveParams, fmt: str) -> str:
    """Serialize the generators: "json" (machine round-trip) or "cas-text"
    (one generator per line, pasteable into a computer algebra system)."""
    k, n, p = params.k, params.n, params.p
    variables = enumerate_im(k, n, 1).members
    bins = generate_binomials(k, n)
    tris = generate_trinomials(params)

    if fmt == "json":
        def rel_json(rel: Relation) -> list[dict]:
            return [
                {"coeff": c, "factors": [list(f) for f in mono]}
                for c, mono in rel.terms
            ]

        return json.dumps(
            {
                "k": k,
                "n": n,
                "p": p,
                "lambda": list(params.lam),
                "variables": [list(t) for t in variables],
                "binomials": [rel_json(r) for r in bins],
                "trinomials": [rel_json(r) for r in tris],
            },
            indent=2,
        )

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
    rebuilt as Relation objects under keys "binomials"/"trinomials"."""
    data = json.loads(text)
    k = data["k"]

    def rebuild(raw: list[dict], kind: str) -> Relation:
        terms = tuple(
            (item["coeff"], tuple(tuple(f) for f in item["factors"])) for item in raw
        )
        index = None
        if kind == "trinomial":
            # Recover the relation index from the fiber drop of the third term.
            base = index_sum(terms[0][1])
            down = index_sum(terms[2][1])
            diffs = [j for j in range(len(base)) if base[j] - down[j] == k]
            assert len(diffs) == 1 and all(
                base[j] == down[j] for j in range(len(base)) if j != diffs[0]
            )
            index = diffs[0]
        return Relation(terms, kind, index=index)

    return {
        "k": k,
        "n": data["n"],
        "p": data["p"],
        "lambda": tuple(data["lambda"]),
        "variables": tuple(tuple(t) for t in data["variables"]),
        "binomials": [rebuild(r, "binomial") for r in data["binomials"]],
        "trinomials": [rebuild(r, "trinomial") for r in data["trinomials"]],
    }
