"""Affine points, evaluation, group action, divisors, and rank checks."""

import dataclasses
import math
import random
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfcring import curve
from gfcring.curve import (
    AffinePoint,
    InsufficientPointsError,
    basis_rank_check,
    divisor_of_theta,
    evaluation_matrix,
    full_rank_oversample,
    apply_group,
    is_on_curve,
    sample_points,
    suitable_params,
)
from gfcring.indexsets import enumerate_im
from gfcring.linalg import ranks_mod_p
from gfcring.params import (
    ParameterError,
    dim_vm,
    find_prime_and_root,
    genus,
    make_curve_params,
)
from gfcring.reps import check_equivariance
from references import (
    divisor_degree,
    divisor_of_dx,
    divisor_of_x,
    divisor_of_y,
    evaluate_theta,
    rank_mod_p_array,
)

GRID = [(2, 4), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4)]


def test_sample_points_on_curve_and_deterministic():
    pp = make_curve_params(3, 3, p=103)
    pts, short = sample_points(pp, 40)
    assert len(pts) == 40 and not short
    assert all(is_on_curve(pp, q) for q in pts)
    assert all(all(y % pp.p != 0 for y in q.y) for q in pts)
    again, _ = sample_points(pp, 40)
    assert pts == again
    # prefix property: asking for fewer yields a prefix of the same scan
    prefix, _ = sample_points(pp, 7)
    assert prefix == pts[:7]


def test_sample_points_shortfall():
    pp = make_curve_params(3, 3, p=7)  # 7 = 1 mod 3, tiny
    pts, short = sample_points(pp, 500)
    assert short
    assert all(is_on_curve(pp, q) for q in pts)
    # count 0 scans the whole field, and nothing is missing
    every, short = sample_points(make_curve_params(3, 3, p=103), 0)
    assert len(every) == 162 and not short
    # (3,4) over p=127 with the seed-0 lambda draw genuinely has no points
    # with every coordinate nonzero; the shortfall flag must say so.
    pp = make_curve_params(3, 4, p=127)
    pts, short = sample_points(pp, 1)
    assert short and pts == []


def test_suitable_params_prime_policy():
    # The first prime doubles the search bound past every prime that falls
    # short (a linear search would stop at 181 here); later primes are the
    # next ones with enough points.  These primes are frozen CLI output.
    assert [pp.p for pp in islice(suitable_params(5, 3, 60, seed=2), 2)] == [311, 331]
    # 475 points is what `verify --k 5 --n 3` asks for
    assert [pp.p for pp in islice(suitable_params(5, 3, 475, seed=2), 2)] == [1291, 1301]
    assert [pp.p for pp in islice(suitable_params(3, 3, min_bound=200), 2)] == [211, 223]
    # a pinned prime yields exactly one configuration
    assert [pp.p for pp in suitable_params(3, 3, 60, p=103)] == [103]
    with pytest.raises(InsufficientPointsError, match="p = 7 yields only 0 points, need 60"):
        next(suitable_params(3, 3, 60, p=7))


def test_suitable_params_without_points_never_samples(monkeypatch):
    # sample_points with count 0 would scan the whole field
    def fail(*args):
        raise AssertionError("sample_points called")

    monkeypatch.setattr("gfcring.curve.sample_points", fail)
    assert [pp.p for pp in islice(suitable_params(3, 3), 3)] == [103, 109, 127]
    assert [pp.p for pp in suitable_params(3, 3, p=7)] == [7]


def scan_kth_roots(c, k, p, zeta):
    """The exhaustive O(p) scan that _kth_roots replaced: a reference."""
    root = next(y for y in range(1, p) if pow(y, k, p) == c)
    return sorted(root * pow(zeta, t, p) % p for t in range(k))


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
@given(min_bound=st.integers(6, 3000), y=st.integers(1, 10**6))
def test_kth_roots_match_the_scan(k, min_bound, y):
    p, zeta = find_prime_and_root(k, min_bound)
    c = pow(y % (p - 1) + 1, k, p)
    assert curve._kth_roots(c, k, p, zeta) == scan_kth_roots(c, k, p, zeta)


def test_kth_roots_at_a_large_prime():
    # The scan would run through about 10^9 candidates here.
    p = 1000000009
    for k in (2, 3, 4, 6, 8):
        _, zeta = find_prime_and_root(k, p)
        roots = curve._kth_roots(pow(123456789, k, p), k, p, zeta)
        assert 123456789 in roots and len(set(roots)) == k
        assert all(pow(y, k, p) == pow(123456789, k, p) for y in roots)


def test_is_on_curve_rejects():
    pp = make_curve_params(3, 3, p=103)
    pts, _ = sample_points(pp, 1)
    q = pts[0]
    assert is_on_curve(pp, q)
    assert not is_on_curve(pp, AffinePoint((q.x + 1) % pp.p, q.y))
    assert not is_on_curve(pp, AffinePoint(q.x, (0,) + q.y[1:]))


def test_evaluate_theta_manual():
    pp = make_curve_params(3, 3, p=103)
    pts, _ = sample_points(pp, 5)
    q = pts[2]
    t = (1, 2, 1)
    expected = (
        q.x
        * pow(pow(q.y[0], 2, pp.p), pp.p - 2, pp.p)
        * pow(q.y[1], pp.p - 2, pp.p)
    ) % pp.p
    assert evaluate_theta(pp, q, t) == expected
    # r = 0 and a = 0 gives the constant 1
    assert evaluate_theta(pp, q, (0, 0, 0)) == 1


@pytest.mark.parametrize("k, n", [(3, 3), (3, 4), (4, 3), (5, 2), (6, 2)])
def test_no_result_depends_on_which_primitive_root_is_zeta(k, n):
    # Every primitive k-th root zeta^j gives the same sorted points, the same
    # equivariance verdict and the same rank verdicts, one fiber short of
    # the full-rank bound (False at m = 1) and at it (True).
    fiber = k ** (n - 1)
    pp = next(suitable_params(k, n, full_rank_oversample(k, n, 2), seed=1))

    def results(params):
        return (sample_points(params, 3 * fiber), check_equivariance(params),
                *(basis_rank_check(params, m, full_rank_oversample(k, n, m) - short)
                  for m in (1, 2) for short in (0, fiber)
                  if full_rank_oversample(k, n, m) - short >= dim_vm(k, n, m)))

    base = results(pp)
    assert base[1] and base[2] and False in base[2:]
    for j in range(2, k):
        if math.gcd(j, k) == 1:
            assert results(dataclasses.replace(pp, zeta=pow(pp.zeta, j, pp.p))) == base, j


@settings(max_examples=20)  # enough draws to reach every curve
@given(
    curve=st.sampled_from([(2, 4), (3, 3), (3, 4), (4, 3), (5, 3)]),
    min_bound=st.integers(100, 3000),
    seed=st.integers(0, 2**31),
)
def test_evaluation_matrix_matches_evaluate_theta(curve, min_bound, seed):
    k, n = curve
    pp = next(suitable_params(k, n, 40, seed=seed, min_bound=min_bound))
    pts, _ = sample_points(pp, 40)
    for m in (1, 2, 3):
        basis = enumerate_im(k, n, m).members
        expected = [[evaluate_theta(pp, q, t) for t in basis] for q in pts]
        assert evaluation_matrix(pp, pts, basis).tolist() == expected


def test_evaluation_matrix_layout_and_edge_cases():
    pp = make_curve_params(3, 3, p=103)
    pts, _ = sample_points(pp, 20)
    basis = enumerate_im(3, 3, 2).members
    mat = evaluation_matrix(pp, pts, basis)
    assert mat.dtype == np.int64 and mat.flags.c_contiguous
    assert mat.shape == (20, len(basis))
    assert evaluation_matrix(pp, pts, []).shape == (20, 0)
    assert evaluation_matrix(pp, [], basis).shape == (0, len(basis))
    # x = 0 (and every y = 1): 0^0 = 1 in the r = 0 columns, 0 elsewhere
    window = enumerate_im(3, 3, 1).members
    row = evaluation_matrix(pp, [AffinePoint(0, (1, 1))], window)[0].tolist()
    assert row == [int(t[0] == 0) for t in window]
    assert 0 in row and 1 in row


def test_evaluation_matrix_is_exact_below_the_int64_limit():
    # 2^31 - 1 is prime and 1 mod 3: products of residues reach ~2^62
    p = 2**31 - 1
    pp = make_curve_params(3, 3, p=p)
    pts = [AffinePoint(p - 1, (p - 2, p - 3)), AffinePoint(p - 7, (123456789, p - 1)),
           AffinePoint(2, (p - 1, 3))]
    basis = enumerate_im(3, 3, 3).members
    expected = [[evaluate_theta(pp, q, t) for t in basis] for q in pts]
    assert evaluation_matrix(pp, pts, basis).tolist() == expected
    # above it a product of two residues no longer fits in int64
    big = make_curve_params(3, 3, p=2147483659)  # the first prime > 2^31 that is 1 mod 3
    with pytest.raises(ParameterError):
        evaluation_matrix(big, pts, basis)


def test_apply_group():
    pp = make_curve_params(3, 3, p=103)
    pts, _ = sample_points(pp, 10)
    rng = random.Random(3)
    for _ in range(25):
        q = pts[rng.randrange(len(pts))]
        g = tuple(rng.randrange(3) for _ in range(3))
        moved = apply_group(pp, q, g)
        assert is_on_curve(pp, moved)
        assert moved.x == q.x * pow(pp.zeta, g[0], pp.p) % pp.p
        # composition law: acting twice equals acting by the sum
        h = tuple(rng.randrange(3) for _ in range(3))
        lhs = apply_group(pp, moved, h)
        rhs = apply_group(pp, q, tuple((a + b) % 3 for a, b in zip(g, h)))
        assert lhs == rhs
    with pytest.raises(ValueError):
        apply_group(pp, pts[0], (1, 1))  # wrong arity


def test_divisor_frozen_values():
    assert divisor_of_x(3) == (-1, 1, 0, 0)
    assert divisor_of_y(3, 2) == (-1, 0, 1, 0)
    assert divisor_of_y(3, 3) == (-1, 0, 0, 1)
    assert divisor_of_dx(3, 3) == (-2, 0, 2, 2)
    assert divisor_of_theta(3, 3, 1, (0, 2, 2)) == (2, 0, 0, 0)
    assert divisor_of_theta(3, 3, 1, (2, 2, 2)) == (0, 2, 0, 0)
    with pytest.raises(ValueError):
        divisor_of_y(3, 4)
    with pytest.raises(ValueError):
        divisor_of_theta(3, 3, 0, (0, 2, 2))


def test_divisor_consistency_identity():
    # div(theta) = r*div(x) - sum a_j*div(y_j) + m*div(dx), coordinatewise
    for (k, n) in GRID:
        for m in (1, 2):
            for t in enumerate_im(k, n, m):
                r, a = t[0], t[1:]
                acc = [m * c for c in divisor_of_dx(k, n)]
                for i, c in enumerate(divisor_of_x(n)):
                    acc[i] += r * c
                for j, aj in enumerate(a, start=2):
                    for i, c in enumerate(divisor_of_y(n, j)):
                        acc[i] -= aj * c
                assert tuple(acc) == divisor_of_theta(k, n, m, t)


def test_divisors_nonnegative_on_window():
    # holomorphy: window members have effective divisors
    for (k, n) in GRID:
        for m in (1, 2, 3):
            for t in enumerate_im(k, n, m):
                assert min(divisor_of_theta(k, n, m, t)) >= 0


def test_divisor_degree_is_canonical():
    for (k, n) in GRID:
        g = genus(k, n)
        for m in (1, 2, 3):
            for t in list(enumerate_im(k, n, m))[:: max(1, dim_vm(k, n, m) // 7)]:
                c = divisor_of_theta(k, n, m, t)
                assert divisor_degree(k, n, c) == m * (2 * g - 2)


def test_full_rank_oversample_frozen():
    assert full_rank_oversample(3, 4, 1) == 27 * 5
    assert full_rank_oversample(3, 4, 2) == 27 * 9
    assert full_rank_oversample(4, 4, 3) == 64 * 22
    assert full_rank_oversample(2, 4, 1) == 8 * 2
    for (k, n) in GRID:
        for m in (1, 2, 3):
            assert full_rank_oversample(k, n, m) >= dim_vm(k, n, m)


def test_full_rank_oversample_is_sharp():
    # With one complete fiber fewer than the bound, the evaluation matrix
    # cannot reach full rank; with the bound it always does.
    pp = make_curve_params(3, 4, p=547)
    fiber = 3 ** 3
    need = full_rank_oversample(3, 4, 1)
    basis = enumerate_im(3, 4, 1).members
    pts, short = sample_points(pp, need)
    assert not short
    rows = [[evaluate_theta(pp, q, t) for t in basis] for q in pts]
    assert rank_mod_p_array(rows[: need - fiber], pp.p) < dim_vm(3, 4, 1)
    assert rank_mod_p_array(rows, pp.p) == dim_vm(3, 4, 1)


def test_basis_rank_check_frozen_examples():
    pp = make_curve_params(3, 3, p=103)
    assert basis_rank_check(pp, 1, full_rank_oversample(3, 3, 1))
    assert basis_rank_check(pp, 2, full_rank_oversample(3, 3, 2))
    with pytest.raises(ValueError):
        basis_rank_check(pp, 2, 5)  # oversample below the dimension
    tiny = make_curve_params(3, 3, p=7)
    with pytest.raises(InsufficientPointsError):
        basis_rank_check(tiny, 1, full_rank_oversample(3, 3, 1))


def test_basis_rank_grid_two_primes():
    # full-rank evaluation for m = 1, 2, 3 over two distinct primes each
    for (k, n) in GRID:
        need = max(full_rank_oversample(k, n, m) for m in (1, 2, 3))
        first, second = islice(suitable_params(k, n, need), 2)
        assert first.p != second.p
        for pp in (first, second):
            for m in (1, 2, 3):
                assert basis_rank_check(pp, m, full_rank_oversample(k, n, m)), (
                    k, n, m, pp.p,
                )


@settings(max_examples=20)  # enough draws to reach every curve
@given(
    curve_kn=st.sampled_from([(2, 4), (3, 3), (3, 4), (4, 3), (5, 3)]),
    min_bound=st.integers(100, 3000),
    seed=st.integers(0, 2**31),
)
def test_blocked_basis_rank_equals_dense_rank(curve_kn, min_bound, seed):
    # One fiber fewer than the bound (rank-deficient), the bound, one more.
    k, n = curve_kn
    fiber = k ** (n - 1)
    most = max(full_rank_oversample(k, n, m) for m in (1, 2, 3)) + fiber
    pp = next(suitable_params(k, n, most, seed=seed, min_bound=min_bound))
    ranks = []

    def spy(stack, p):
        ranks.append(ranks_mod_p(stack, p))
        return ranks[-1]

    for m in (1, 2, 3):
        basis = enumerate_im(k, n, m).members
        need = full_rank_oversample(k, n, m)
        for count in (need - fiber, need, need + fiber):
            pts, _ = sample_points(pp, count)
            dense = rank_mod_p_array(evaluation_matrix(pp, pts, basis), pp.p)
            ranks.clear()
            with mock.patch.object(curve, "ranks_mod_p", spy):
                full = basis_rank_check(pp, m, count)
            assert sum(map(sum, ranks)) == dense and full == (dense == len(basis)), (m, count)
            assert full == (count >= need)
        with pytest.raises(ParameterError):
            basis_rank_check(pp, m, need + 1)
