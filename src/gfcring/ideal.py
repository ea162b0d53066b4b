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

For export, the monomials are one (N, 2) array of window-index pairs, sorted
by their index sums' keys in the sumset's mixed radix, each fiber one run of
its rows in term order, tau first: the runs follow the rows of the sumset
_lattice(k, n, 2, 0), and one offsets array names them.  The generators
are window-index arrays read off these runs, with no field in them:
generate_binomials gives each binomial as a run's row after the first and
that first row, tau; generate_trinomials gives each trinomial as its relation
index i and the first rows of its three fibers, and its lam_i coefficient is
read off the curve's parameters.

verify_degree2_kernel writes the trinomials once, as the sumset rows of their
three fibers and their coefficients, and both kernel checks read these
arrays.  The symbolic check joins each relation's terms with phi2's entries
at their fibers, from its closed form.  Its (Z/k)^n character ranks are
certified, not eliminated, so the span check rests on it (see
_character_blocks).  The pointwise check, which evaluates the trinomials at
sampled points with curve.evaluation_matrix, and verify's comparison of the
ranks with syzygy_table stay independent of both.  Of the monomials, verify
reads only their count per fiber, _fiber_sizes, a lattice-point count in
closed form over the fiber's sumset row.  The verdict is a plain dict,
printed per prime.

export_ideal writes the generator arrays as the JSON text that
json.dumps(payload, indent=2) gives, byte for byte, without running the
encoder: each variable is laid out once as an indented fragment (a name, in
cas-text), and each relation family is one template whose holes take those
fragments, each joined once to every literal of the template before it.
The text is one gather of these shared pieces, a SlicedText: its length is
summed from the pieces' lengths, and it is joined a slice at a time as it is
written, so no more than a slice of it is ever built.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest
from math import prod
from typing import Iterator

import numpy as np

from .curve import InsufficientPointsError, evaluation_matrix, sample_points
from .indexsets import (
    IndexTuple,
    _lattice,
    _lookup,
    ci_shifts,
    enumerate_im,
    standard_set,
    standard_set_identity,
    total_degree_d_monomials,
)
from .linalg import rank_mod_p
from .params import CurveParams, ParameterError, dim_vm
from .reps import character_of

# Cells per chunk of the point check's evaluations and of the relation
# join: past it the temporaries cost more memory than the saved Python
# steps are worth.
CHUNK_CELLS = 1 << 16


@lru_cache(maxsize=None)
def _degree2_data(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(pairs, edges), both read-only: the degree-2 monomials as (N, 2) int32
    degree-1 window indices i <= j, the fiber at row f of _lattice(k, n, 2, 0)
    being the run pairs[edges[f]:edges[f + 1]], in term order, tau first.  The
    runs, read off one sorted integer key per index sum, must be the sumset's
    closed form exactly."""
    window = _lattice(k, n, 1)[0].astype(np.int32)
    _, keys, dims = _lattice(k, n, 2, 0)
    # No digit of a sum carries in the sumset's mixed radix, so a pair's key is
    # the sum of its members' keys.  A stable sort keeps each fiber's pairs in
    # (i, j) order, its term order, as the window is sorted.  Pairs are laid
    # out row by row, (i, i..W-1) for each i: the triu order.
    wkey = np.ravel_multi_index(window.T, dims)
    rows = range(len(window))
    key = np.concatenate([wkey[a] + wkey[a:] for a in rows])
    order = np.argsort(key, kind="stable")
    key.sort()  # in place: the sorted values are those of key[order]
    edges = np.flatnonzero(np.r_[True, key[1:] != key[:-1], True])
    assert np.array_equal(key[edges[:-1]], keys)
    del key
    i = np.repeat(np.arange(len(window), dtype=np.int32), np.arange(len(window), 0, -1))[order]
    j = np.concatenate([np.arange(a, len(window), dtype=np.int32) for a in rows])[order]
    del order
    pairs = np.stack((i, j), axis=1)
    pairs.flags.writeable = edges.flags.writeable = False
    return pairs, edges


@lru_cache(maxsize=None)
def _fiber_sizes(k: int, n: int) -> np.ndarray:
    """The number of degree-2 monomials over each row t = (r, a) of
    _lattice(k, n, 2, 0), read-only intp, in closed form from the row; every
    row must be hit.  An ordered pair of window members (r', a'),
    (r - r', a - a') over t has a', a - a' in [0, k-1]^(n-1) and, with
    s = |a'|, max(0, r - |a| + s + 2) <= r' <= min(s - 2, r): ordered is the
    sum over s of that range's length times split[a, s], the count of those
    a' with |a'| = s, built a coordinate at a time (k slice-adds each).
    Swapping the members pairs them off but for the square of t/2, a window
    member exactly when r and every a_j are even (then a/2 is in the box and
    r/2 <= |a/2| - 2), so the count is (ordered + [r, a all even]) / 2."""
    rows = _lattice(k, n, 2, 0)[0]
    width = (n - 1) * (k - 1) + 1
    split = np.eye(1, width, dtype=np.intp)  # no coordinate yet: only s = 0
    for _ in range(n - 1):
        grown = np.zeros((len(split), 2 * k - 1, width), dtype=np.intp)
        for d in range(k):  # the next coordinate of a', d
            grown[:, d:d + k, d:] += split[:, None, :width - d]
        split = grown.reshape(-1, width)
    cell = np.ravel_multi_index(rows[:, 1:].T, (2 * k - 1,) * (n - 1))
    r, total = rows[:, 0], rows[:, 1:].sum(axis=1)
    ordered = sum(split[cell, s] * np.maximum(0, np.minimum(s - 2, r) + 1
                                              - np.maximum(0, r - total + s + 2))
                  for s in range(2, width))
    size = (ordered + (np.bitwise_or.reduce(rows, axis=1) % 2 == 0)) // 2
    assert size.all(), "a fiber has no monomial"
    size.flags.writeable = False
    return size


def generate_binomials(k: int, n: int) -> np.ndarray:
    """(B, 4) int32 window indices (i, j, i', j') of each binomial
    z_i*z_j - z_i'*z_j': every row of every fiber run after the first, paired
    with the first, tau; fibers in sorted order.  B is dim S_2 minus the
    number of fibers."""
    pairs, edges = _degree2_data(k, n)
    heads = edges[:-1]
    return np.concatenate((np.delete(pairs, heads, axis=0),
                           np.repeat(pairs[heads], np.diff(edges) - 1, axis=0)), axis=1)


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
    pairs, edges = _degree2_data(k, n)
    shifts = ci_shifts(k, n)
    return np.column_stack((shifts[:, 0].astype(np.int32),
                            pairs[edges[shifts[:, 1:]]].reshape(-1, 6)))


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
    at = _lookup(_lattice(k, n, 2)[1], raised[fiber] + k * prod(dims[1:]) * s)
    return at, fiber, value[(low @ (1 << np.arange(n - 1)))[fiber], s]


def _relations_vanish_at(
    params: CurveParams, rels: tuple[np.ndarray, np.ndarray], points: np.ndarray
) -> bool:
    """Whether every row of rels = (fibers, coeff), sumset rows and their
    coefficients, vanishes at each of the (P, n) points: read off evaluation
    matrices of points x sumset rows, a block of points at a time, each
    block's values and terms within CHUNK_CELLS cells (or one point).  The
    sumset's exponent table, its intp rows in Fortran order, is built once
    for all blocks.  The terms are laid out term by term, so the sums add
    rows."""
    p = params.p
    fibers, coeff = (np.ascontiguousarray(a.T) for a in (rels[0], rels[1] % p))
    sumset = np.asfortranarray(_lattice(params.k, params.n, 2, 0)[0], dtype=np.intp)
    per = max(1, CHUNK_CELLS // max(fibers.size, len(sumset)))
    return not any(
        np.any((evaluation_matrix(params, points[at:at + per], sumset)[:, fibers] * coeff % p)
               .sum(axis=1) % p)
        for at in range(0, len(points), per))


# --- span-rank bookkeeping ----------------------------------------------------

def _character_blocks(
    params: CurveParams, rels: tuple[np.ndarray, np.ndarray]
) -> tuple[bool, int, dict[IndexTuple, int]]:
    """(whether every relation maps to zero, rank of phi2, span ranks by
    character of the binomials and the relations, nonzero ones only), each
    rank certified per (Z/k)^n character h, with no elimination.

    Each relation comes in fiber coordinates, a row of (fibers, coeff) that
    names a fiber at most once, where every binomial M - tau(t) is zero.  A
    fiber's phi2 column, at most n entries, lies in its character's rows.
    A relation vanishes iff its terms share one character and their join
    with their columns, each product reduced mod p, sums to zero mod p at
    every window row; the join takes relations a chunk at a time, within
    CHUNK_CELLS products.  A window member is a fiber with no low
    coordinate, so its column is the unit vector at its own row:
    rank(phi2_h) is h's window count.  The binomials span every within-fiber
    difference, sum(|fiber| - 1) per character; the relations add the rank
    of their parts under h.  That rank is at least h's count of distinct
    leading fibers, in the order of -sum(a), then sumset row (a trinomial's
    is its down-fiber t - k*e_i, coefficient 1), and, when they vanish, at
    most (fibers of h) - rank(phi2_h), the kernel's dimension.  h's block,
    its rows by its fibers, is ranked by rank_mod_p only where a unit column
    fails, the bounds miss, or a relation does not vanish; a passing run
    ranks none.
    """
    k, n, p = params.k, params.n, params.p
    fibers, coeff = rels
    sumset, keys, _ = _lattice(k, n, 2, 0)
    char = np.ravel_multi_index(character_of(k, 2, sumset.T), (k,) * n)
    wkeys = _lattice(k, n, 2)[1]
    window = _lookup(keys, wkeys)  # each window member's fiber
    row, col, value = _phi2_entries(params)

    def ranked(h: int, at: np.ndarray, rows: int, fiber: np.ndarray, entry: np.ndarray) -> int:
        """The rank of h's block of `rows` rows by its fibers, entry at (at, fiber)."""
        cols = np.flatnonzero(char == h)
        block = np.zeros((rows, len(cols)), dtype=np.int64)
        block[at, np.searchsorted(cols, fiber)] = entry
        return rank_mod_p(block, p)

    # phi2: each window fiber's column, one nonzero entry, 1 at its own row.
    unit = (wkeys[row] == keys[col]) & (value == 1)
    phi2_ranks = np.bincount(char[window], minlength=k ** n)
    failed = window[(np.bincount(col[value != 0], minlength=len(sumset))[window] != 1)
                    | (np.bincount(col[unit], minlength=len(sumset))[window] != 1)]
    for h in np.flatnonzero(np.bincount(char[failed], minlength=k ** n)).tolist():
        at = np.flatnonzero(char[col] == h)
        rows = np.flatnonzero(char[window] == h)
        phi2_ranks[h] = ranked(h, np.searchsorted(rows, row[at]), len(rows), col[at], value[at])

    # (a) and the leading fibers, a chunk of relations at a time.
    # -sum(a), then the sumset row, as one key; sum(a) < 2kn, so it is >= 0
    height = (2 * k * n - sumset[:, 1:].sum(axis=1)) * len(sumset) + np.arange(len(sumset))
    first = np.searchsorted(col, np.arange(len(sumset) + 1))  # each fiber's entries
    lead = np.zeros(len(sumset), dtype=bool)
    redo = np.zeros(k ** n, dtype=bool)  # the characters of relations that do not vanish
    per = max(1, CHUNK_CELLS // (n * fibers.shape[1]))
    for lo in range(0, len(fibers), per):
        f, c = fibers[lo:lo + per], coeff[lo:lo + per] % p
        under = np.where(c != 0, char[f], -1)
        top = under.max(axis=1)
        bad = np.any((c != 0) & (under != top[:, None]), axis=1)  # under two characters
        lead[f[top >= 0, np.where(c != 0, height[f], -1)[top >= 0].argmax(axis=1)]] = True
        r, j = np.nonzero(c)
        size = first[f[r, j] + 1] - first[f[r, j]]
        e = np.repeat(first[f[r, j]] - np.cumsum(size) + size, size) + np.arange(size.sum())
        key = np.repeat(r, size) * len(window) + row[e]
        order = np.argsort(key)
        run = np.flatnonzero(np.diff(key[order], prepend=-1))
        image = np.add.reduceat((np.repeat(c[r, j], size) * value[e] % p)[order], run) % p
        bad[key[order[run[image != 0]]] // len(window)] = True
        redo[under[bad][under[bad] >= 0]] = True

    ranks = np.bincount(char[lead], minlength=k ** n)
    missed = redo | (ranks != np.bincount(char, minlength=k ** n) - phi2_ranks)
    for h in np.flatnonzero(missed).tolist():
        r, j = np.nonzero((coeff % p != 0) & (char[fibers] == h))
        new = np.diff(r, prepend=-1) != 0  # a relation's first term under h
        ranks[h] = ranked(h, np.cumsum(new) - 1, new.sum(), fibers[r, j], coeff[r, j] % p)
    binomials = _fiber_sizes(k, n) - 1  # per fiber, sumset rows ascending
    dims = np.bincount(char, binomials, k ** n).astype(np.int64) + ranks
    nonzero = np.flatnonzero(dims)
    label = zip(*(a.tolist() for a in np.unravel_index(nonzero, (k,) * n)))
    return not redo.any(), int(phi2_ranks.sum()), dict(zip(label, dims[nonzero].tolist()))


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
        basis (joined with phi2's entries, exactly mod p; a binomial's row
        is zero, as _fiber_sizes counts each index sum's monomials, to a
        total of dim S_2), and every trinomial row vanishes at KERNEL_POINTS;
    (b) the relation span has rank dim S_2 - dim V_2 (with the evaluation
        matrix itself of full rank dim V_2), both ranks summed over the
        character blocks, where (a) and two bounds certify them;
    (c) the surviving-fiber count from the shifted C_i sets equals both the
        weight-2 window size and dim S_2 - span rank;
    (d) each trinomial's order-maximal term is its lam_i-term, the first of
        its three distinct fibers, which the term order compares first.
    Raises InsufficientPointsError when the prime is too small for (a).
    """
    k, n, p = params.k, params.n, params.p
    d2 = dim_vm(k, n, 2)
    size = _fiber_sizes(k, n)
    dim_s2 = int(size.sum())
    assert dim_s2 == total_degree_d_monomials(k, n, 2), "the fibers do not sum to dim S_2"
    rows = _trinomial_rows(params)

    # (a) pointwise: the trinomials at points.
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

    # (d) initial terms of trinomials.  The term order compares fibers by
    # (-r, a), that is by row - r*F, as the sumset rows ascend in a at each r.
    term_key = np.arange(len(size)) - _lattice(k, n, 2, 0)[0][:, 0] * len(size)
    top = term_key[rows[0]]
    trinomial_initial_ok = bool(np.all(top[:, :1] > top[:, 1:]))

    report = {
        "p": p,
        "dim_s2": dim_s2,
        "n_binomials": dim_s2 - len(size),
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


# Pieces a SlicedText reads at a time (2^8 to 2^12 time the (4,4) export
# alike), and the characters of a slice when it is iterated.
SLICE_PIECES = 1 << 12
SLICE_CHARS = 1 << 20


class SlicedText:
    """A text held as a gather of shared pieces: len() is its character
    count, summed from the pieces' lengths, and slices(size) yields the text
    in order, each slice one join of the pieces it spans."""

    def __init__(self, pieces: list[str], idx: np.ndarray) -> None:
        self._pieces = np.array(pieces, dtype=object)
        self._idx = idx
        self._lens = np.fromiter(map(len, pieces), dtype=np.int64, count=len(pieces))
        self._len = int(np.bincount(idx, minlength=len(pieces)) @ self._lens)

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[str]:
        return self.slices(SLICE_CHARS)

    def __eq__(self, other: object) -> bool:
        """Equal to the str it spells, compared a slice at a time."""
        if not isinstance(other, str):
            return NotImplemented
        at = 0
        for part in self:
            if not other.startswith(part, at):
                return False
            at += len(part)
        return at == len(other)

    def slices(self, size: int) -> Iterator[str]:
        """The text, size characters a slice but the last.  The pieces are
        read SLICE_PIECES at a time, with their character ends; a piece
        across a slice's end is cut there, its rest opening the next."""
        held, done = [], 0  # the parts of the next slice; the characters read
        for start in range(0, len(self._idx), SLICE_PIECES):
            run = self._idx[start:start + SLICE_PIECES]
            ends = done + np.cumsum(self._lens[run])
            first = 0  # the run's first piece not yet in a slice
            for end in range(done - done % size + size, int(ends[-1]) + 1, size):
                last = int(np.searchsorted(ends, end))  # the piece that holds the slice's end
                parts = held + self._pieces[run[first:last + 1]].tolist()
                piece = parts[-1]
                cut = len(piece) - int(ends[last] - end)
                parts[-1] = piece[:cut]
                yield "".join(parts)
                held, first = [piece[cut:]], last + 1
            held += self._pieces[run[first:]].tolist()
            done = int(ends[-1])
        if done % size:
            yield "".join(held)


def _write(fills: list[str], frame: str, runs: list[tuple[str, np.ndarray, str]]) -> SlicedText:
    """frame with its holes filled in order by runs (template, slots, sep):
    template once per row of slots, its holes taking the fills the row names,
    sep between rows.  Each literal of a template is laid out once before
    each fill, the first one after the last literal and sep too, so a row
    gathers one piece per hole."""
    pieces, idx = [], []
    for part, run in zip_longest(frame.split(HOLE), runs):
        idx.append([len(pieces)])
        pieces.append(part)
        if run and len(run[1]):
            template, slots, sep = run
            *lits, last = template.split(HOLE)
            base = len(pieces)
            pieces += [lit + fill for lit in (last + sep + lits[0], *lits) for fill in fills]
            rows = slots + (base + len(fills) * np.arange(1, len(lits) + 1))
            rows[1:, 0] -= len(fills)  # the last literal and sep before every row but the first
            idx += [rows.ravel(), [len(pieces)]]
            pieces.append(last)
    return SlicedText(pieces, np.concatenate(idx))


def export_ideal(params: CurveParams, fmt: str) -> SlicedText:
    """Serialize the generators: "json" (machine round-trip) or "cas-text"
    (one generator per line, pasteable into a computer algebra system).
    Every step that can raise runs before it returns; the text is joined
    only as the result is iterated."""
    k, n, p = params.k, params.n, params.p
    variables = enumerate_im(k, n, 1).members
    bins = generate_binomials(k, n)
    tris = generate_trinomials(k, n)
    index, taus = tris[:, 0], tris[:, 1:]
    width = len(variables)

    if fmt == "json":
        # Assembled from text (see the module docstring): with an indent,
        # json.dumps runs its pure-Python encoder over every number.
        fills = [_json_block("[]", [str(c) for c in t], 5) for t in variables]
        fills += [str(v % p) for v in params.lam]  # the trinomials' lam_i coefficients

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
        return _write(fills, frame, [
            (relation([1, -1]), bins, sep),
            (relation([HOLE, 1, 1]), np.column_stack((width + index - 1, taus)), sep),
        ])

    if fmt == "cas-text":
        # A monomial is two slots: its first variable's name, then "*" and
        # the second's name, or "^2" for a square.
        fills = [variable_name(t) for t in variables]
        fills += ["*" + name for name in fills] + ["^2"]
        fills += [f"l{i}*" for i in range(1, n)]

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
            + ", ".join(fills[:width])
            + "), dp;",
            "// generators:",
        ]) + "\n" + HOLE + HOLE
        return _write(fills, frame, [
            (HOLE * 2 + " - " + HOLE * 2 + "\n", monomials(bins), ""),
            (HOLE * 3 + (" + " + HOLE * 2) * 2 + "\n",
             np.column_stack((2 * width + index, monomials(taus))), ""),
        ])

    raise ParameterError(f"unknown export format: {fmt!r}")
