"""Lattice index sets underlying the differential bases and monomial fibers.

Index tuples are flat integer tuples t = (r, a_2, ..., a_n) of length n; the
last n-1 entries are the denominator exponents attached to y_2, ..., y_n.
Sorting flat tuples lexicographically is exactly the (r, a) ordering used for
all canonical enumerations.

_lattice lays out the m-th window and the 2-fold sumset from their closed
forms: column-major (N, n) int64 rows in (r, a) order, and per row one int64
mixed-radix key led by r, so keys ascend with the rows.  Where a key, or the
bytes of the a-coordinate grid it lays out first, would reach 2^63, it raises
ParameterError.  ci_shifts gives the trinomials' fibers as a column-major
table of sumset rows, and standard_set is a mask over those rows;
enumerate_im alone gives its rows as tuples.  Their readers gather them by
column, an evaluation's exponents among them, and take them as they are.

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


def _window(k: int, n: int, m: int, lo: int | None = None
            ) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """(r, a, dims) of _lattice's set, unsorted: the a-coordinate grid in
    lexicographic order, each a repeated once per r = 0..|a| - 2m."""
    if m < 1:
        raise ParameterError(f"need m >= 1, got {m}")
    hi, lo = m * (k - 1), (m - 1) * (k - 1) if lo is None else lo
    dims = (max((n - 1) * hi - 2 * m, 0) + 1, *(hi + 1,) * (n - 1))
    if prod(dims) >= 1 << 63:
        raise ParameterError(f"index keys at (k, n, m) = ({k}, {n}, {m}) pass the int64 limit")
    if (n - 1) * (hi - lo + 1) ** (n - 1) * np.dtype(np.intp).itemsize >= 1 << 63:
        raise ParameterError(f"the a-coordinate grid at (k, n, m) = ({k}, {n}, {m}) "
                             "needs 2^63 bytes or more")
    a = np.indices((hi - lo + 1,) * (n - 1)).reshape(n - 1, -1).T + lo  # lexicographic
    count = np.maximum(a.sum(axis=1) - 2 * m + 1, 0)
    a = np.repeat(a, count, axis=0)
    return np.arange(len(a)) - np.repeat(np.cumsum(count) - count, count), a, dims


@lru_cache(maxsize=None)
def _lattice(k: int, n: int, m: int, lo: int | None = None
             ) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """(rows, keys, dims) of {(r, a): lo <= a_j <= m(k-1), 0 <= r <= |a| - 2m}, lo by
    default (m-1)(k-1), with keys = ravel_multi_index(rows.T, dims).  Read-only;
    rows is column-major."""
    r, a, dims = _window(k, n, m, lo)
    rows = np.asfortranarray(np.column_stack((r, a))[np.argsort(r, kind="stable")])
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


def ci_shifts(k: int, n: int) -> np.ndarray:
    """Column-major (T, 4) intp rows (i, t, t + (k, 0, ..., 0), t - k*e_i) for
    each relation index i and each t in C_i, in that order: the three fibers
    of every trinomial, each a row of the sumset _lattice(k, n, 2, 0).

    C_i in closed form is the sumset points with k <= a_i and r <= |a| - (k+4):
    exactly those t for which t + (k, 0, ..., 0) and t - k*e_i also lie in the
    sumset (e_i = unit vector at flat position i, the a-coordinate tied to
    relation index i)."""
    rows, keys, dims = _lattice(k, n, 2, 0)
    low_r = rows[:, 0] <= rows[:, 1:].sum(axis=1) - (k + 4)
    shifts = []
    for i in range(1, n):
        t = np.flatnonzero((rows[:, i] >= k) & low_r)
        up, down = (_lookup(keys, keys[t] + shift)
                    for shift in (k * prod(dims[1:]), -k * prod(dims[i + 1:])))
        shifts.append(np.stack((np.full_like(t, i), t, up, down)))
    return np.concatenate(shifts, axis=1).T


@lru_cache(maxsize=None)
def standard_set(k: int, n: int) -> np.ndarray:
    """The fibers of the 2-fold sumset that survive every relation
    elimination, as a read-only (S, n) array of sumset rows: the sumset
    without the down-shift t - k*e_i of every t in every C_i.  That shift of
    C_i collects the sumset points whose i-th a-coordinate is below the
    degree-2 window (a_i <= k-2).  Built once per curve."""
    out = np.delete(_lattice(k, n, 2, 0)[0], ci_shifts(k, n)[:, 3], axis=0)
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
