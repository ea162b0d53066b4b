"""Character labels, multiplicity formulas, and the equivariance oracle."""

import dataclasses
import itertools
import tracemalloc
from collections import Counter
from math import comb

import pytest

from gfcring import reps
from gfcring.curve import evaluation_matrix, sample_points, suitable_params
from gfcring.indexsets import _lattice, enumerate_im
from gfcring.params import ParameterError, dim_vm, is_nonhyperelliptic, make_curve_params
from gfcring.reps import (
    all_labels,
    character_of,
    check_equivariance,
    mu_table,
    nu_closed,
    nu_table,
    syzygy_table,
)
from references import action_exponent, mu, nu_table_by_tuples, syzygy_multiplicity

GRID = [(2, 4), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4)]


def test_character_of_is_linear_in_g():
    # action_exponent(t, g) must equal <character_of(t), g> mod k
    k, n, m = 3, 3, 2
    from gfcring.indexsets import enumerate_im

    for t in enumerate_im(k, n, m):
        h = character_of(k, m, t)
        for g in itertools.product(range(k), repeat=n):
            expected = sum(hi * gi for hi, gi in zip(h, g)) % k
            assert action_exponent(k, m, t, g) == expected


def test_action_exponent_arity():
    with pytest.raises(ValueError):
        action_exponent(3, 1, (0, 2, 2), (1, 1))


def test_all_labels():
    labels = all_labels(3, 3)
    assert len(labels) == 27
    assert labels[0] == (0, 0, 0) and labels[-1] == (2, 2, 2)
    # the CLI writes table rows in key order
    for table in (nu_table(3, 3, 2), mu_table(3, 3, 2), syzygy_table(3, 3, 2)):
        assert list(table) == labels


def test_nu_closed_equals_bruteforce_exhaustive():
    for (k, n) in [(2, 4), (3, 3), (4, 2)]:
        for m in range(1, 5):
            brute = nu_table(k, n, m, closed=False)
            for h in all_labels(k, n):
                assert nu_closed(k, n, m, h) == brute[h], (k, n, m, h)


def test_nu_frozen_examples():
    assert nu_closed(2, 4, 1, (1, 1, 1, 1)) == 1
    # leading residue 0 must be lifted into [m, m+k): the naive [0, k)
    # convention undercounts this label
    brute = nu_table(2, 4, 1, closed=False)
    h = (0, 0, 0, 1)
    assert nu_closed(2, 4, 1, h) == brute[h]
    # trivial character in weight 1 is the clamp case
    assert nu_closed(2, 4, 1, (0, 0, 0, 0)) == brute[(0, 0, 0, 0)]


def test_nu_totals():
    for (k, n) in GRID:
        for m in (1, 2, 3):
            assert sum(nu_table(k, n, m).values()) == dim_vm(k, n, m)


@pytest.mark.parametrize("k, n", [(k, n) for k in range(2, 6) for n in range(2, 6)
                                  if is_nonhyperelliptic(k, n)])
def test_nu_routes_match_tuple_references(k, n):
    for m in (1, 2, 3):
        closed, brute = nu_table(k, n, m, closed=True), nu_table(k, n, m, closed=False)
        assert closed == brute == nu_table_by_tuples(k, n, m, True), m
        assert brute == nu_table_by_tuples(k, n, m, False), m
        assert {type(v) for v in [*closed.values(), *brute.values()]} == {int}


def test_nu_closed_route_refuses_int64_overflow():
    # Every intermediate of the formula is below (n + 2)(m + k): at (3, 3),
    # exact up to the largest m with 5(m + 3) < 2^63, refused from there.
    m = (1 << 63) // 5 - 2
    assert nu_table(3, 3, m - 1) == nu_table_by_tuples(3, 3, m - 1, True)
    with pytest.raises(ParameterError, match="int64"):
        nu_table(3, 3, m)


def test_nu_table_routes_agree():
    for (k, n) in GRID:
        for m in (1, 2, 3):
            assert nu_table(k, n, m, closed=True) == nu_table(k, n, m, closed=False)


def test_mu_equals_nu_in_degree_one():
    # degree-1 monomials are the variables themselves
    for (k, n) in [(3, 3), (2, 4)]:
        brute = nu_table(k, n, 1, closed=False)
        for h in all_labels(k, n):
            assert mu(k, n, 1, h) == brute[h]
    for (k, n) in GRID + [(5, 2), (2, 5)]:
        assert mu_table(k, n, 1) == nu_table(k, n, 1, closed=False), (k, n)


def test_mu_table_matches_dfs_mu():
    # the group-ring table against the per-label depth-first partition count
    for (k, n, d) in [(3, 3, 2), (3, 3, 3), (2, 4, 3), (4, 2, 3), (3, 4, 2)]:
        table = mu_table(k, n, d)
        for h in all_labels(k, n)[::5]:
            assert table[h] == mu(k, n, d, h), (k, n, d, h)


@pytest.mark.parametrize("k, n, top", [(3, 3, 7), (2, 4, 6)])
def test_mu_table_matches_a_brute_count(k, n, top):
    # Sym^d counted multiset by multiset, through d = k, 2k and 2k + 1, the
    # degrees at which the recurrence drops its h_0 and empty-sum terms
    chars = [character_of(k, 1, t) for t in enumerate_im(k, n, 1).members]
    for d in range(1, top + 1):
        brute = Counter(tuple(sum(c) % k for c in zip(*multiset))
                        for multiset in itertools.combinations_with_replacement(chars, d))
        assert mu_table(k, n, d) == {h: brute[h] for h in all_labels(k, n)}, d


@pytest.mark.usefixtures("hang_guard")
def test_mu_table_high_degree():
    # far past the degrees the lattice dynamic program reaches in seconds
    assert sum(mu_table(3, 3, 80).values()) == 635627275767 == comb(89, 80)


def test_mu_table_int64_guard():
    # every partial sum of the recurrence is at most d * comb(g + d - 1, d):
    # at (3,3), g = 10, that fits int64 up to d = 278 and no further
    assert sum(mu_table(3, 3, 278).values()) == comb(287, 278)
    for d in (279, 40000, 10**30):
        with pytest.raises(ParameterError, match="2\\^63"):
            mu_table(3, 3, d)
    with pytest.raises(ParameterError):
        mu_table(3, 3, 0)


def test_mu_table_degree_limit():
    # past the int64 guard, a degree above the loop limit is refused
    with pytest.raises(ParameterError, match=f"above the limit {reps.MAX_MU_DEGREE}"):
        mu_table(4, 2, reps.MAX_MU_DEGREE + 1)


def test_mu_totals():
    for (k, n) in [(2, 4), (3, 3), (4, 2), (3, 4)]:
        g = dim_vm(k, n, 1)
        for d in (2, 3):
            assert sum(mu_table(k, n, d).values()) == comb(g + d - 1, d)


def test_syzygy_multiplicities():
    for (k, n) in GRID:
        table = syzygy_table(k, n, 2)
        assert all(v >= 0 for v in table.values())
        g = dim_vm(k, n, 1)
        assert sum(table.values()) == comb(g + 1, 2) - dim_vm(k, n, 2)
    # no relations in degree 1
    assert all(v == 0 for v in syzygy_table(3, 3, 1).values())
    assert syzygy_multiplicity(3, 3, 2, (0, 0, 0)) == syzygy_table(3, 3, 2)[(0, 0, 0)]


def test_syzygy_frozen_totals():
    # span of the degree-2 relations, curve by curve
    totals = {k * 10 + n: sum(syzygy_table(k, n, 2).values()) for k, n in GRID}
    assert totals[24] == 3
    assert totals[33] == 28
    assert totals[34] == 1378
    assert totals[42] == 0


def test_check_equivariance():
    for (k, n) in [(3, 3), (2, 4), (4, 2), (5, 3)]:
        for seed in (None, 1):
            assert check_equivariance(next(suitable_params(k, n, 25, seed=seed)))


CORRUPTIONS = [
    lambda k, m, t: ((t[0] + m + 1) % k, *((-aj) % k for aj in t[1:])),  # x-part off by one
    lambda k, m, t: ((t[0] + m) % k, *(aj % k for aj in t[1:])),  # y-part sign flipped
]


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
def test_check_equivariance_catches_a_wrong_character(monkeypatch, corrupt):
    # The check tests character_of itself, on every window member, so either
    # corruption fails it; at (5,3) all 25 sampled points lie in one x-fiber.
    curves = {(k, n): next(suitable_params(k, n, 25)) for k, n in [(3, 3), (4, 2), (5, 3)]}
    assert len(set(sample_points(curves[5, 3], 25)[0][:, 0].tolist())) == 1
    monkeypatch.setattr(reps, "character_of", corrupt)
    for pp in curves.values():
        assert not check_equivariance(pp)


def spy_on_evaluations(monkeypatch) -> list:
    """(points, members) of every evaluation_matrix call from reps."""
    calls = []

    def counted(params, points, rows):
        calls.append((len(points), len(rows)))
        return evaluation_matrix(params, points, rows)

    monkeypatch.setattr(reps, "evaluation_matrix", counted)
    return calls


def test_check_equivariance_verdicts_do_not_depend_on_the_block_size(monkeypatch):
    # At 64 cells a block is 25 points x 2 members: the true characters pass
    # and both corruptions fail, block by block, as in the default blocks.
    curves = [next(suitable_params(k, n, 25)) for k, n in [(3, 3), (4, 2), (5, 3)]]

    def verdicts():
        out = [check_equivariance(pp) for pp in curves]
        for corrupt in CORRUPTIONS:
            with monkeypatch.context() as patched:
                patched.setattr(reps, "character_of", corrupt)
                out += [check_equivariance(pp) for pp in curves]
        return out

    default = verdicts()
    assert default == [True] * 3 + [False] * 6
    monkeypatch.setattr(reps, "CHUNK_CELLS", 64)
    calls = spy_on_evaluations(monkeypatch)
    assert verdicts() == default
    members = sum(len(_lattice(3, 3, m)[0]) for m in (1, 2, 3))
    assert calls[:4 * members // 2] == [(25, 2)] * (4 * members // 2)  # (3,3), 82 members
    assert max(calls) == (25, 2)


def test_check_equivariance_builds_no_matrix_of_every_member():
    # One evaluation_matrix call on the 25 points, their 4 * 25 translates
    # and all 12,637 members of weights 1 to 3 peaks at 25 MiB at (6,4);
    # a block of members at a time, with the index sets and points cached,
    # the check peaks below 4 MiB.
    pp = next(suitable_params(6, 4, 25, seed=1))
    for m in (1, 2, 3):
        _lattice(6, 4, m)
    sample_points(pp, reps.EQUIVARIANCE_POINTS)
    tracemalloc.start()
    try:
        assert check_equivariance(pp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("k, low", [(3, lambda p: 1), (4, lambda p: 1), (4, lambda p: p - 1)],
                         ids=["k3-zeta1", "k4-zeta1", "k4-zeta-1"])
def test_a_root_of_lower_order_fails_before_any_evaluation(monkeypatch, k, low):
    # zeta = 1 (order 1) and, for k = 4, zeta = -1 (order 2) move the points
    # and predict their scaling alike; the check refuses them unevaluated.
    pp = next(suitable_params(k, 3, 25, seed=1))
    calls = spy_on_evaluations(monkeypatch)
    assert not check_equivariance(dataclasses.replace(pp, zeta=low(pp.p)))
    assert calls == []
    assert check_equivariance(pp) and calls


def test_check_equivariance_needs_points():
    pp = make_curve_params(3, 4, p=127)  # no usable points at this prime
    with pytest.raises(RuntimeError):
        check_equivariance(pp)
