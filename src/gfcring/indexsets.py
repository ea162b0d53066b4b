"""Lattice index sets underlying the differential bases and monomial fibers.

Index tuples are flat integer tuples t = (r, a_2, ..., a_n) of length n; the
last n-1 entries are the denominator exponents attached to y_2, ..., y_n.
Sorting flat tuples lexicographically is exactly the (r, a) ordering used for
all canonical enumerations.

_lattice lays out the m-th window and the 2-fold sumset from their closed
forms: (N, n) int64 rows in (r, a) order, and per row one int64 mixed-radix
key led by r, so keys ascend with the rows.  Where a key, or the bytes of the
a-coordinate grid it lays out first, would reach 2^63, it raises ParameterError.
ci_shifts gives the trinomials' fibers as sumset rows; the sets built from
them share the sumset's tuples.

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
    default (m-1)(k-1), with keys = ravel_multi_index(rows.T, dims).  Read-only."""
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
    r = np.arange(len(a)) - np.repeat(np.cumsum(count) - count, count)
    rows = np.column_stack((r, a))[np.argsort(r, kind="stable")]
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


@lru_cache(maxsize=None)
def minkowski_di1(k: int, n: int, d: int) -> IndexSet:
    """The d-fold sumset of the degree-1 window with itself.

    d <= 2 is built from its closed form {0 <= a_j <= d(k-1), 0 <= r <= |a| - 2d},
    which ideal._degree2_data checks against the degree-2 monomials at d = 2;
    each larger d adds the window once to the cached (d-1)-fold set.
    """
    if d < 1:
        raise ParameterError(f"need d >= 1, got {d}")
    if d <= 2:
        members = tuple(zip(*_lattice(k, n, d, 0)[0].T.tolist()))
    else:
        members = sorted({tuple(x + y for x, y in zip(s, t))
                          for s in minkowski_di1(k, n, d - 1) for t in enumerate_im(k, n, 1)})
    return IndexSet(tuple(members))


def _sumset_members(k: int, n: int, at: np.ndarray) -> tuple[IndexTuple, ...]:
    """The sumset's member tuples at the positions at, shared, not copied."""
    return tuple(map(minkowski_di1(k, n, 2).members.__getitem__, at.tolist()))


@lru_cache(maxsize=None)
def enumerate_ci(k: int, n: int, i: int) -> IndexSet:
    """The relation family C_i in closed form: the points of the 2-fold sumset
    with k <= a_i <= 2k-2 and r <= |a| - (k+4).

    These are exactly the sumset points t for which t + (k, 0, ..., 0) and
    t - k*e_i also lie in the sumset (e_i = unit vector at flat position i,
    the a-coordinate tied to relation index i); ci_shifts lays out both
    shifts of every member.
    """
    if not 1 <= i <= n - 1:
        raise ParameterError(f"relation index must be in 1..{n - 1}, got {i}")
    shifts = ci_shifts(k, n)
    return IndexSet(_sumset_members(k, n, shifts[shifts[:, 0] == i, 1]))


def ci_shifts(k: int, n: int) -> np.ndarray:
    """(T, 4) intp rows (i, t, t + (k, 0, ..., 0), t - k*e_i) for each relation
    index i and each t in C_i, in that order: the three fibers of every
    trinomial, each a row of the sumset minkowski_di1(k, n, 2)."""
    rows, keys, dims = _lattice(k, n, 2, 0)
    low_r = rows[:, 0] <= rows[:, 1:].sum(axis=1) - (k + 4)
    shifts = []
    for i in range(1, n):
        t = np.flatnonzero((rows[:, i] >= k) & low_r)
        up, down = (np.searchsorted(keys, keys[t] + shift)
                    for shift in (k * prod(dims[1:]), -k * prod(dims[i + 1:])))
        shifts.append(np.column_stack((np.full_like(t, i), t, up, down)))
    return np.concatenate(shifts)


def shifted_ci_union(k: int, n: int) -> set[IndexTuple]:
    """Union over relation indices of the down-shift of each C_i by k*e_i.

    The shift of C_i collects the sumset points whose i-th a-coordinate is
    below the degree-2 window (a_i <= k-2): exactly the fibers that relation
    family i eliminates from the standard monomials.
    """
    return set(_sumset_members(k, n, ci_shifts(k, n)[:, 3]))


@lru_cache(maxsize=None)
def standard_set(k: int, n: int) -> IndexSet:
    """Fibers of the 2-fold sumset surviving all relation eliminations; built
    once per curve, like the sets it is made from."""
    drop = shifted_ci_union(k, n).__contains__
    return IndexSet(tuple(itertools.filterfalse(drop, minkowski_di1(k, n, 2).members)))


def standard_set_identity(k: int, n: int) -> bool:
    """True iff the surviving fibers coincide with the degree-2 window.

    Note the elimination is by the *shifted* copies of the C_i (each written
    in the coordinates b_i = a_i - k): relation family i removes the fibers
    with a_i <= k-2, and stripping all low-coordinate fibers from
    {0 <= a_j <= 2(k-1)} leaves precisely {k-1 <= a_j <= 2(k-1)}.  Removing
    the unshifted C_i themselves would not produce the degree-2 window (the
    counts already differ at (3,3): 31 vs 27).
    """
    return standard_set(k, n).members == enumerate_im(k, n, 2).members


# --- partition counting ------------------------------------------------------

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


def total_degree_d_monomials(k: int, n: int, d: int) -> int:
    """dim of the degree-d symmetric power of a g-dimensional space."""
    g = dim_vm(k, n, 1)
    return comb(g + d - 1, d)


def enumerate_jd(k: int, n: int, d: int, h: IndexTuple) -> IndexSet:
    """Members t of the d-fold sumset with (r + d, -a) = h mod k.

    h is a flat character label (h_1, h_2, ..., h_n); the J sets over all
    k^n labels partition the sumset.
    """
    if len(h) != n:
        raise ParameterError(f"character label {h} has length {len(h)}, expected {n}")
    hh = tuple(x % k for x in h)
    return IndexSet(tuple(
        t for t in minkowski_di1(k, n, d)
        if (t[0] + d) % k == hh[0]
        and all((-aj) % k == hj for aj, hj in zip(t[1:], hh[1:]))
    ))
