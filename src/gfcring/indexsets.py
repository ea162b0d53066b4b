"""Lattice index sets underlying the differential bases and monomial fibers.

Index tuples are flat integer tuples t = (r, a_2, ..., a_n) of length n; the
last n-1 entries are the denominator exponents attached to y_2, ..., y_n.
Sorting flat tuples lexicographically is exactly the (r, a) ordering used for
all canonical enumerations.

_lattice lays out the m-th window and the 2-fold sumset in place from their
closed forms: column-major (N, n) int64 rows in (r, a) order, each with an
ascending int64 mixed-radix key led by r; a key, or an a-coordinate grid's
bytes, that would reach 2^63 raises ParameterError.  ci_shifts fills the C_i
of _ci_pass into one table, standard_set reads them as a mask over the sumset
rows, and enumerate_im alone gives rows as tuples; readers copy no table.

A "relation index" i runs over 1..n-1; relation i involves lam[i-1] and
shifts the a-coordinate at 0-based position i-1, i.e. flat position i.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod

import numpy as np

from .params import ParameterError, dim_vm

IndexTuple = tuple[int, ...]


@dataclass(frozen=True)
class IndexSet:
    """An ordered, duplicate-free family of index tuples."""

    members: tuple[IndexTuple, ...]

    def __post_init__(self) -> None:
        assert all(s < t for s, t in itertools.pairwise(self.members)), "not strictly increasing"

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


@lru_cache(maxsize=None)
def _lattice(k: int, n: int, m: int, lo: int | None = None
             ) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """(rows, keys, dims) of {(r, a): lo <= a_j <= m(k-1), 0 <= r <= |a| - 2m}, lo by
    default (m-1)(k-1), keys = ravel_multi_index(rows.T, dims); read-only.  rows is
    column-major, from one flatnonzero over (r, a-cell) and one gather per a-column."""
    if m < 1:
        raise ParameterError(f"need m >= 1, got {m}")
    hi, lo = m * (k - 1), (m - 1) * (k - 1) if lo is None else lo
    dims = (max((n - 1) * hi - 2 * m, 0) + 1, *(hi + 1,) * (n - 1))
    if prod(dims) >= 1 << 63:
        raise ParameterError(f"index keys at (k, n, m) = ({k}, {n}, {m}) pass the int64 limit")
    if (n - 1) * (hi - lo + 1) ** (n - 1) * np.dtype(np.intp).itemsize >= 1 << 63:
        raise ParameterError(f"the a-coordinate grid at (k, n, m) = ({k}, {n}, {m}) "
                             "needs 2^63 bytes or more")
    a = np.indices((hi - lo + 1,) * (n - 1)).reshape(n - 1, -1) + lo  # lexicographic
    at = np.flatnonzero(a.sum(axis=0) - 2 * m >= np.arange(dims[0])[:, None])  # r-major
    rows = np.empty((len(at), n), dtype=np.int64, order="F")
    np.floor_divide(at, a.shape[1], out=rows[:, 0])
    at %= a.shape[1]  # the a-cell of each row
    for j in range(1, n):
        np.take(a[j - 1], at, out=rows[:, j])
    keys = np.ravel_multi_index(rows.T, dims)
    rows.flags.writeable = keys.flags.writeable = False
    return rows, keys, dims


@lru_cache(maxsize=None)
def enumerate_im(k: int, n: int, m: int) -> IndexSet:
    """All members of the m-th window, sorted; cardinality is dim_vm(k,n,m)."""
    return IndexSet(tuple(zip(*_lattice(k, n, m)[0].T.tolist())))


def count_im(k: int, n: int, m: int) -> int:
    """|enumerate_im(k,n,m)| without materializing tuples.

    Fibers over a fixed a contribute max(0, |a| - 2m + 1) choices of r, so
    the count only needs the distribution of |a| over the coordinate window,
    i.e. the coefficients of (1 + x + ... + x^(k-1))^(n-1).
    """
    if m < 1:
        raise ParameterError(f"need m >= 1, got {m}")
    hist = [1]
    for _ in range(n - 1):
        new = [0] * (len(hist) + k - 1)
        for s, c in enumerate(hist):
            for d in range(k):
                new[s + d] += c
        hist = new
    base = (n - 1) * (m - 1) * (k - 1)
    return sum(c * max(0, base + s - 2 * m + 1) for s, c in enumerate(hist))


def _lookup(keys: np.ndarray, sought: np.ndarray) -> np.ndarray:
    """The positions of the sought keys in the sorted keys, each asserted to
    be there: a key outside them would otherwise name a neighbouring row."""
    at = np.searchsorted(keys, sought)
    assert np.array_equal(keys.take(at, mode="clip"), sought), "a sought key is absent"
    return at


def _ci_pass(k: int, n: int):
    """Per relation index i, (i, t, up, down): the sumset rows of C_i = {k <= a_i,
    r <= |a| - (k+4)}, exactly the t with t + (k, 0, ..., 0) and t - k*e_i in the
    sumset (e_i the unit vector at flat position i), and of those two shifts."""
    rows, keys, dims = _lattice(k, n, 2, 0)
    low_r = rows[:, 0] <= rows[:, 1:].sum(axis=1) - (k + 4)
    for i in range(1, n):
        t = np.flatnonzero((rows[:, i] >= k) & low_r)
        yield i, t, *(_lookup(keys, keys[t] + shift)
                      for shift in (k * prod(dims[1:]), -k * prod(dims[i + 1:])))


@lru_cache(maxsize=1)  # the last curve's: a grid keeps no earlier curve's table
def ci_shifts(k: int, n: int) -> np.ndarray:
    """_ci_pass as one column-major, read-only (T, 4) intp table: the three
    fibers of every trinomial, read by both primes of verify and by export."""
    i, t, up, down = zip(*_ci_pass(k, n))
    table = np.empty((sum(map(len, t)), 4), dtype=np.intp, order="F")
    for j, column in enumerate((t, up, down), 1):
        np.concatenate(column, out=table[:, j])
    start = 0
    for i_, t_ in zip(i, t):  # column 0 in place, with no (T,) temporary
        table[start:start + len(t_), 0] = i_
        start += len(t_)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def standard_set(k: int, n: int) -> np.ndarray:
    """The sumset rows that survive every relation elimination, read-only: one
    mask clears each down-shift t - k*e_i of _ci_pass.  Built once per curve."""
    keep = np.ones(len(_lattice(k, n, 2, 0)[0]), dtype=bool)
    for *_, down in _ci_pass(k, n):
        keep[down] = False
    out = _lattice(k, n, 2, 0)[0][keep]
    out.flags.writeable = False
    return out


def standard_set_identity(k: int, n: int) -> bool:
    """True iff the surviving fibers coincide with the degree-2 window.

    Note the elimination is by the *shifted* copies of the C_i (each written
    in the coordinates b_i = a_i - k): relation family i removes the fibers
    with a_i <= k-2, and stripping all low-coordinate fibers from
    {0 <= a_j <= 2(k-1)} leaves precisely {k-1 <= a_j <= 2(k-1)}.  Removing
    the unshifted C_i themselves would not produce the degree-2 window (the
    counts already differ at (3,3): 31 vs 27).
    """
    return np.array_equal(standard_set(k, n), _lattice(k, n, 2)[0])


def total_degree_d_monomials(k: int, n: int, d: int) -> int:
    """dim of the degree-d symmetric power of a g-dimensional space."""
    g = dim_vm(k, n, 1)
    return comb(g + d - 1, d)
