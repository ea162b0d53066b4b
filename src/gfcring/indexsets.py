"""Lattice index sets underlying the differential bases and monomial fibers.

Index tuples are flat integer tuples t = (r, a_2, ..., a_n) of length n; the
last n-1 entries are the denominator exponents attached to y_2, ..., y_n.
Sorting flat tuples lexicographically is exactly the (r, a) ordering used for
all canonical enumerations.

A "relation index" i runs over 1..n-1; relation i involves lam[i-1] and
shifts the a-coordinate at 0-based position i-1, i.e. flat position i.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

from .params import ParameterError, dim_vm

IndexTuple = tuple[int, ...]


@dataclass(frozen=True)
class IndexSet:
    """An ordered, duplicate-free family of index tuples with provenance.

    tag is one of "I_m", "dI1", "C_i", "J_d", "I2cap"; param carries the
    defining data (m, d, relation index, or (d, character label)).
    """

    k: int
    n: int
    tag: str
    param: tuple
    members: tuple[IndexTuple, ...]

    def __post_init__(self) -> None:
        assert list(self.members) == sorted(set(self.members)), (
            f"IndexSet({self.tag}, {self.param}) not sorted/duplicate-free"
        )

    @cached_property
    def _member_set(self) -> frozenset[IndexTuple]:
        return frozenset(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, t: IndexTuple) -> bool:
        return t in self._member_set


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


@lru_cache(maxsize=None)
def enumerate_im(k: int, n: int, m: int) -> IndexSet:
    """All members of the m-th window, sorted; cardinality is dim_vm(k,n,m)."""
    if m < 1:
        raise ParameterError(f"need m >= 1, got {m}")
    lo, hi = (m - 1) * (k - 1), m * (k - 1)
    members = []
    for a in itertools.product(range(lo, hi + 1), repeat=n - 1):
        for r in range(sum(a) - 2 * m + 1):
            members.append((r, *a))
    members.sort()
    return IndexSet(k, n, "I_m", (m,), tuple(members))


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

    Computed by iterated sumset with deduplication; for d = 2 the result is
    additionally asserted against its closed form
    {0 <= a_j <= 2(k-1), 0 <= r <= |a| - 4}.
    """
    if d < 1:
        raise ParameterError(f"need d >= 1, got {d}")
    i1 = enumerate_im(k, n, 1)
    if d == 1:
        return IndexSet(k, n, "dI1", (1,), i1.members)
    cur = set(i1.members)
    for _ in range(d - 1):
        cur = {tuple(x + y for x, y in zip(s, t)) for s in cur for t in i1.members}
    members = tuple(sorted(cur))
    if d == 2:
        closed = []
        for a in itertools.product(range(2 * k - 1), repeat=n - 1):
            for r in range(sum(a) - 3):
                closed.append((r, *a))
        assert members == tuple(sorted(closed)), (
            f"2-fold sumset for (k={k}, n={n}) disagrees with its closed form"
        )
    return IndexSet(k, n, "dI1", (d,), members)


@lru_cache(maxsize=None)
def enumerate_ci(k: int, n: int, i: int) -> IndexSet:
    """Points t of the 2-fold sumset such that t + (k, 0, ..., 0) and
    t - k*e_i both remain in the sumset (e_i = unit vector at flat
    position i, the a-coordinate tied to relation index i).

    Both the definitional form and the closed form
    {k <= a_i <= 2k-2, 0 <= a_j <= 2k-2, 0 <= r <= |a| - (k+4)}
    are computed; they must coincide.
    """
    if not 1 <= i <= n - 1:
        raise ParameterError(f"relation index must be in 1..{n - 1}, got {i}")
    m2 = minkowski_di1(k, n, 2)
    defn = []
    for t in m2:
        up = (t[0] + k, *t[1:])
        down = (*t[:i], t[i] - k, *t[i + 1:])
        if up in m2 and down in m2:
            defn.append(t)
    closed = [
        t for t in m2
        if k <= t[i] <= 2 * k - 2 and 0 <= t[0] <= sum(t[1:]) - (k + 4)
    ]
    assert defn == closed, (
        f"C_{i} definitional/closed forms disagree for (k={k}, n={n})"
    )
    return IndexSet(k, n, "C_i", (i,), tuple(defn))


def shifted_ci_union(k: int, n: int) -> set[IndexTuple]:
    """Union over relation indices of the down-shift of each C_i by k*e_i.

    The shift of C_i collects the sumset points whose i-th a-coordinate is
    below the degree-2 window (a_i <= k-2): exactly the fibers that relation
    family i eliminates from the standard monomials.
    """
    out: set[IndexTuple] = set()
    for i in range(1, n):
        for t in enumerate_ci(k, n, i):
            out.add((*t[:i], t[i] - k, *t[i + 1:]))
    return out


def standard_set(k: int, n: int) -> IndexSet:
    """Fibers of the 2-fold sumset surviving all relation eliminations."""
    keep = sorted(set(minkowski_di1(k, n, 2).members) - shifted_ci_union(k, n))
    return IndexSet(k, n, "I2cap", (), tuple(keep))


def standard_set_identity(k: int, n: int) -> bool:
    """True iff the surviving fibers coincide with the degree-2 window.

    Note the elimination is by the *shifted* copies of the C_i (each written
    in the coordinates b_i = a_i - k): relation family i removes the fibers
    with a_i <= k-2, and stripping all low-coordinate fibers from
    {0 <= a_j <= 2(k-1)} leaves precisely {k-1 <= a_j <= 2(k-1)}.  Removing
    the unshifted C_i themselves would not produce the degree-2 window (the
    counts already differ at (3,3): 31 vs 27).
    """
    return set(standard_set(k, n).members) == set(enumerate_im(k, n, 2).members)


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


def partition_count_table(k: int, n: int, d: int) -> dict[IndexTuple, int]:
    """count_partitions for every target at once, as a dict.

    Classic coin-change dynamic program over the sorted window (ascending
    multiset sizes per item count repeats exactly once).  Tuples are packed
    into single integers — coordinate sums stay below 2^16 for desk-scale
    inputs, so packed addition never carries between coordinates.
    """
    if d < 1:
        raise ParameterError(f"need d >= 1, got {d}")
    items = enumerate_im(k, n, 1).members
    shift = 16
    assert d * max((n - 1) * (k - 1), 1) * (k - 1) < (1 << shift)

    def pack(t: IndexTuple) -> int:
        code = 0
        for c in t:
            code = (code << shift) | c
        return code

    def unpack(code: int) -> IndexTuple:
        out = []
        for _ in range(n):
            out.append(code & ((1 << shift) - 1))
            code >>= shift
        return tuple(reversed(out))

    layers: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(d)]
    for v in items:
        code = pack(v)
        for j in range(1, d + 1):
            lower = layers[j - 1]
            layer = layers[j]
            for s, c in lower.items():
                key = s + code
                layer[key] = layer.get(key, 0) + c
    return {unpack(s): c for s, c in layers[d].items()}


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
    members = tuple(
        t for t in minkowski_di1(k, n, d)
        if (t[0] + d) % k == hh[0]
        and all((-aj) % k == hj for aj, hj in zip(t[1:], hh[1:]))
    )
    return IndexSet(k, n, "J_d", (d, hh), members)
