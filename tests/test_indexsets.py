"""Window enumeration, sumsets, relation sets, and partition counting.

The sumsets are read as _lattice rows and the sets C_i as ci_shifts rows.
partition_count_table, the lattice dynamic program, lives here as the oracle
for reps.mu_table, which counts in the group ring of (Z/k)^n instead, and
for the depth-first count_partitions of tests/references.py."""

import random
from math import comb

import numpy as np
import pytest

from gfcring import ideal, indexsets
from gfcring.indexsets import (
    IndexSet,
    IndexTuple,
    ci_shifts,
    count_im,
    enumerate_im,
    standard_set,
    standard_set_identity,
    total_degree_d_monomials,
)
from gfcring.params import ParameterError, dim_vm, genus, is_nonhyperelliptic, make_curve_params
from gfcring.reps import all_labels, character_of, mu_table, nu_table, syzygy_table
from references import (
    count_partitions,
    enumerate_ci_by_tuples,
    enumerate_im_by_tuples,
    member_im,
    minkowski_di1_by_tuples,
    shifted_ci_union_by_tuples,
    standard_set_by_tuples,
    sumset_by_direct_sums,
)

GRID = [(2, 4), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4)]
# Every curve with k, n <= 5; C_1 is empty at (4,2) and (5,2).
SMALL_CURVES = [(k, n) for k in range(2, 6) for n in range(2, 6) if is_nonhyperelliptic(k, n)]
DIRECT_SUM_CURVES = GRID + [(5, 3), (2, 7)]

# (k, n) -> |I1 + I1|, the size of the sumset's closed form; the closed form
# itself is compared with the direct pairwise sums on DIRECT_SUM_CURVES.
SUMSET_SIZES = {
    (2, 4): 15,
    (3, 3): 35,
    (3, 4): 390,
    (4, 2): 6,
    (4, 3): 157,
    (4, 4): 2073,
    (2, 5): 102,
    (5, 2): 15,
}


def sumset(k: int, n: int, d: int = 2) -> list[IndexTuple]:
    """The d-fold sumset's closed-form rows, {0 <= a_j <= d(k-1),
    0 <= r <= |a| - 2d}, as tuples in row order."""
    return [tuple(t) for t in indexsets._lattice(k, n, d, 0)[0].tolist()]


def ci_members(k: int, n: int, i: int) -> list[IndexTuple]:
    """C_i as tuples: the sumset rows that ci_shifts names for relation index i."""
    fibers, shifts = sumset(k, n), ci_shifts(k, n)
    return [fibers[t] for t in shifts[shifts[:, 0] == i, 1].tolist()]


def test_member_im():
    assert member_im(3, 3, 1, (0, 2, 2))
    assert member_im(3, 3, 1, (2, 2, 2))
    assert not member_im(3, 3, 1, (3, 2, 2))  # r too big: |a| - 2 = 2
    assert not member_im(3, 3, 1, (0, 3, 2))  # a out of window
    assert member_im(3, 3, 2, (0, 2, 4))
    assert not member_im(3, 3, 2, (0, 1, 4))  # a_2 below window
    with pytest.raises(ValueError):
        member_im(3, 3, 1, (0, 2))  # wrong arity
    with pytest.raises(ValueError):
        member_im(3, 3, 0, (0, 2, 2))


def test_enumerate_im_frozen():
    assert enumerate_im(3, 3, 1).members == (
        (0, 0, 2), (0, 1, 1), (0, 1, 2), (0, 2, 0), (0, 2, 1),
        (0, 2, 2), (1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 2, 2),
    )
    assert enumerate_im(2, 4, 2).members[:4] == (
        (0, 1, 1, 2), (0, 1, 2, 1), (0, 1, 2, 2), (0, 2, 1, 1),
    )


def test_enumerate_im_matches_dimension():
    for (k, n) in GRID:
        for m in range(1, 4):
            members = enumerate_im(k, n, m)
            assert len(members) == dim_vm(k, n, m)
            assert all(member_im(k, n, m, t) for t in members)
            assert list(members) == sorted(set(members))


def test_count_im_agrees_with_enumeration():
    for (k, n) in GRID:
        for m in range(1, 5):
            assert count_im(k, n, m) == len(enumerate_im(k, n, m))
    assert [count_im(3, 3, m) for m in (1, 2, 3, 4)] == [10, 27, 45, 63]


def test_minkowski_sumset_sizes():
    for (k, n), size in SUMSET_SIZES.items():
        assert len(sumset(k, n)) == size


def test_minkowski_d1_is_window():
    # The closed form at d = 1 and the 1-fold direct sums are the window.
    for (k, n) in GRID:
        window = enumerate_im(k, n, 1).members
        assert tuple(sumset(k, n, 1)) == sumset_by_direct_sums(k, n, 1) == window, (k, n)


def test_minkowski_strictly_contains_window():
    # The 2-fold sumset strictly contains the weight-2 window.
    for (k, n) in GRID:
        m2 = sumset(k, n)
        i2 = enumerate_im(k, n, 2)
        assert set(i2.members) <= set(m2)
        if n > 2:
            assert len(m2) > len(i2)
        else:
            assert len(m2) == len(i2)  # degenerate: no low coordinates exist


def test_minkowski_d3_by_direct_sum():
    # The sumsets are laid out from their closed form; compare it with the
    # pairwise sums, and at d = 3 with the sums of three members.
    for (k, n) in DIRECT_SUM_CURVES:
        window = enumerate_im(k, n, 1).members
        pairs = {tuple(x + y for x, y in zip(s, t)) for s in window for t in window}
        assert set(sumset(k, n)) == pairs, (k, n)
    items = enumerate_im(3, 3, 1).members
    direct = {
        tuple(x + y + z for x, y, z in zip(s, t, u))
        for s in items for t in items for u in items
    }
    assert set(sumset(3, 3, 3)) == direct == set(sumset_by_direct_sums(3, 3, 3))


def test_ci_sizes_frozen():
    def sizes(k, n):
        return np.bincount(ci_shifts(k, n)[:, 0], minlength=n)[1:].tolist()

    assert sizes(2, 4) == [1, 1, 1]
    assert sizes(3, 3) == [4, 4]
    assert sizes(3, 4) == [89, 89, 89]
    assert sizes(2, 5) == [15, 15, 15, 15]
    assert sizes(4, 2) == [0]
    assert sizes(5, 2) == [0]


def test_ci_membership():
    c1 = ci_members(3, 3, 1)
    assert (0, 4, 4) in c1
    # every member keeps its shifted neighbours inside the sumset
    m2 = set(sumset(3, 3))
    for t in c1:
        assert (t[0] + 3, t[1], t[2]) in m2
        assert (t[0], t[1] - 3, t[2]) in m2
        assert t[1] >= 3  # a_i at least k
    # C_i is built from its closed form; compare it with the definition: the
    # sumset points t with t + (k, 0, ..., 0) and t - k*e_i in the sumset.
    for (k, n) in DIRECT_SUM_CURVES:
        m2 = sumset(k, n)
        in_m2 = set(m2)
        for i in range(1, n):
            defn = [
                t for t in m2
                if (t[0] + k, *t[1:]) in in_m2 and (*t[:i], t[i] - k, *t[i + 1:]) in in_m2
            ]
            assert ci_members(k, n, i) == defn, (k, n, i)


@pytest.mark.parametrize("k, n", SMALL_CURVES)
def test_key_array_sets_match_tuple_references(k, n):
    for m in (1, 2, 3):
        assert enumerate_im(k, n, m).members == enumerate_im_by_tuples(k, n, m), m
    fibers = sumset(k, n)
    assert tuple(fibers) == minkowski_di1_by_tuples(k, n)
    shifts = [(i, t, (t[0] + k, *t[1:]), (*t[:i], t[i] - k, *t[i + 1:]))
              for i in range(1, n) for t in enumerate_ci_by_tuples(k, n, i)]
    assert [(i, fibers[t], fibers[up], fibers[down])
            for i, t, up, down in ci_shifts(k, n).tolist()] == shifts
    assert {fibers[t] for t in ci_shifts(k, n)[:, 3].tolist()} == shifted_ci_union_by_tuples(k, n)
    assert list(map(tuple, standard_set(k, n).tolist())) == list(standard_set_by_tuples(k, n))
    assert standard_set_identity(k, n) is (
        standard_set_by_tuples(k, n) == enumerate_im_by_tuples(k, n, 2))


def test_oversize_index_keys_raise_before_allocation():
    # At (2^16, 6) the weight-1 keys span 327674 * 65536^5 > 2^63 values.
    k, n = 1 << 16, 6
    for call in (lambda: indexsets._lattice(k, n, 1), lambda: enumerate_im(k, n, 1),
                 lambda: indexsets._lattice(k, n, 2, 0),
                 lambda: nu_table(k, n, 1, closed=False)):
        with pytest.raises(ParameterError, match="int64"):
            call()


def test_key_lookups_assert_the_key_they_find(monkeypatch):
    # A lookup one row off would name a neighbouring fiber: the trinomials'
    # shifts and phi2's raised fibers must trip an assertion instead.
    class OneRowOff:
        """numpy, with searchsorted one position past each key."""

        def __getattr__(self, name):
            return getattr(np, name)

        def searchsorted(self, keys, sought):
            return np.searchsorted(keys, sought) + 1

    pp = make_curve_params(3, 3, p=103)
    assert len(ci_shifts(3, 3)) and len(ideal._phi2_entries(pp)[0])
    monkeypatch.setattr(indexsets, "np", OneRowOff())
    for call in (lambda: ci_shifts(3, 3), lambda: ideal._phi2_entries(pp)):
        with pytest.raises(AssertionError, match="absent"):
            call()


def test_shifted_union_covers_low_fibers():
    # the shifted copies collect exactly the sumset points with some a_j <= k-2
    for (k, n) in [(2, 4), (3, 3), (4, 2), (2, 5)]:
        fibers = sumset(k, n)
        shifted = {fibers[t] for t in ci_shifts(k, n)[:, 3].tolist()}
        low = {t for t in fibers if any(aj <= k - 2 for aj in t[1:])}
        assert shifted == low


def test_standard_set_identity_on_grid():
    for (k, n) in GRID:
        assert standard_set_identity(k, n)
        assert len(standard_set(k, n)) == dim_vm(k, n, 2)


def test_unshifted_removal_is_not_the_window():
    # Removing the C_i sets themselves (without the shift) leaves the wrong
    # fiber count, so the shifted convention is load-bearing.
    m2 = set(sumset(3, 3))
    unshifted = set(ci_members(3, 3, 1)) | set(ci_members(3, 3, 2))
    assert len(m2 - unshifted) == 31  # != 27 = |I2|
    assert len(standard_set(3, 3)) == 27


def test_count_partitions_basics():
    # d = 1: every window member is its own unique partition
    for t in enumerate_im(3, 3, 1):
        assert count_partitions(3, 3, 1, t) == 1
    # unique split example: a = (4,4) forces (2,2) + (2,2)
    assert count_partitions(3, 3, 2, (1, 4, 4)) == 1
    assert count_partitions(3, 3, 2, (0, 4, 4)) == 1
    # points outside the sumset have no partitions
    assert count_partitions(3, 3, 2, (9, 0, 0)) == 0


def test_partition_totals():
    for (k, n) in [(2, 4), (3, 3), (4, 2)]:
        g = dim_vm(k, n, 1)
        for d in (2, 3):
            total = sum(count_partitions(k, n, d, t) for t in sumset(k, n, d))
            assert total == comb(g + d - 1, d)
            assert total_degree_d_monomials(k, n, d) == comb(g + d - 1, d)


def partition_count_table(k: int, n: int, d: int) -> dict[IndexTuple, int]:
    """count_partitions for every target at once, as a dict.

    Classic coin-change dynamic program over the sorted window (ascending
    multiset sizes per item count repeats exactly once).  Tuples are packed
    into single integers of 16 bits per coordinate; a d-fold sum has
    coordinates at most d * max((n-1)(k-1) - 2, k - 1), and when that reaches
    2^16, packed addition would carry, so ParameterError is raised instead.
    """
    if d < 1:
        raise ParameterError(f"need d >= 1, got {d}")
    shift = 16
    top = d * max((n - 1) * (k - 1) - 2, k - 1)
    if top >= 1 << shift:
        raise ParameterError(f"a {d}-fold sum for (k, n) = ({k}, {n}) has coordinates "
                             f"up to {top}, beyond the 2^{shift} packing limit")
    items = enumerate_im(k, n, 1).members

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


def lattice_mu_table(k: int, n: int, d: int) -> dict[IndexTuple, int]:
    """mu_table over the d-fold sumset: every point's partition count, added
    to the character of that point."""
    vals = {h: 0 for h in all_labels(k, n)}
    for t, cnt in partition_count_table(k, n, d).items():
        vals[character_of(k, d, t)] += cnt
    return vals


@pytest.mark.parametrize("k, n, d", [
    *((k, n, d) for k, n in [(2, 4), (3, 3), (4, 2), (3, 4), (4, 3), (2, 5)] for d in (1, 2, 3)),
    (4, 4, 2), (3, 5, 2),
])
def test_mu_table_matches_lattice_dp(k, n, d):
    assert mu_table(k, n, d) == lattice_mu_table(k, n, d)


def test_dim_i3_frozen_by_two_routes():
    # dim I_3 = sum of syzygy_table(k, n, 3), the count of cubic relations;
    # the group-ring and the lattice routes agree label by label.  (4,2) is
    # the plane quartic, whose ideal starts in degree 4; (5,2) is the plane
    # quintic, whose cubics are not all products of quadrics.
    frozen = {(2, 4): 15, (3, 3): 175, (2, 5): 889, (4, 3): 6385, (3, 4): 28990,
              (2, 6): 20585, (5, 3): 75701, (5, 2): 31, (4, 2): 0}
    for (k, n), dim_i3 in frozen.items():
        table = syzygy_table(k, n, 3)
        nu = nu_table(k, n, 3)
        assert table == {h: v - nu[h] for h, v in lattice_mu_table(k, n, 3).items()}, (k, n)
        assert sum(table.values()) == dim_i3, (k, n)


def test_partition_table_matches_per_point_counts():
    # bulk dynamic program vs the depth-first oracle, every target at once
    for (k, n, d) in [(2, 4, 2), (2, 4, 3), (3, 3, 2), (3, 3, 3), (4, 2, 3)]:
        table = partition_count_table(k, n, d)
        assert set(table) == set(sumset(k, n, d))
        for t in table:
            assert table[t] == count_partitions(k, n, d, t), (k, n, d, t)


def test_partition_table_packing_bound():
    # The largest packed coordinate of a d-fold sum is
    # d * max((n-1)(k-1) - 2, k - 1): 256 here, far below the 2^16 limit.
    assert sum(partition_count_table(257, 2, 1).values()) == genus(257, 2) == 32640
    # (3, 3) reaches 2 * 40000 >= 2^16, which packed addition would carry.
    with pytest.raises(ParameterError):
        partition_count_table(3, 3, 40000)


def test_partition_spot_checks_random_targets():
    rng = random.Random(42)
    table = partition_count_table(3, 4, 2)
    targets = rng.sample(sorted(table), 12)
    for t in targets:
        assert table[t] == count_partitions(3, 4, 2, t)


def test_index_set_rejects_unsorted_or_repeated_members():
    IndexSet(((0, 1), (0, 2), (1, 0)))
    with pytest.raises(AssertionError):
        IndexSet(((0, 2), (0, 1)))
    with pytest.raises(AssertionError):
        IndexSet(((0, 1), (0, 1), (1, 0)))


def test_index_set_container_protocol():
    s = enumerate_im(3, 3, 1)
    assert len(s) == 10
    assert (0, 0, 2) in s
    assert (5, 5, 5) not in s
    assert list(iter(s)) == list(s.members)
