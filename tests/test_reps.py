"""Character labels, multiplicity formulas, and the equivariance oracle."""

import itertools
from math import comb

import pytest

from gfcring import reps
from gfcring.curve import sample_points, suitable_params
from gfcring.params import ParameterError, dim_vm, make_curve_params
from gfcring.reps import (
    action_exponent,
    all_labels,
    character_of,
    check_equivariance,
    mu,
    mu_table,
    nu_closed,
    nu_table,
    syzygy_multiplicity,
    syzygy_table,
)

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


@pytest.mark.parametrize("corrupt", [
    lambda k, m, t: ((t[0] + m + 1) % k, *((-aj) % k for aj in t[1:])),  # x-part off by one
    lambda k, m, t: ((t[0] + m) % k, *(aj % k for aj in t[1:])),  # y-part sign flipped
])
def test_check_equivariance_catches_a_wrong_character(monkeypatch, corrupt):
    # The check tests character_of itself, on every window member, so either
    # corruption fails it; at (5,3) all 25 sampled points lie in one x-fiber.
    curves = {(k, n): next(suitable_params(k, n, 25)) for k, n in [(3, 3), (4, 2), (5, 3)]}
    assert len({pt.x for pt in sample_points(curves[5, 3], 25)[0]}) == 1
    monkeypatch.setattr(reps, "character_of", corrupt)
    for pp in curves.values():
        assert not check_equivariance(pp)


def test_check_equivariance_needs_points():
    pp = make_curve_params(3, 4, p=127)  # no usable points at this prime
    with pytest.raises(RuntimeError):
        check_equivariance(pp)
