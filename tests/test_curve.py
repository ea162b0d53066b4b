"""Affine points, evaluation, group action, divisors, and rank checks."""

import random
from itertools import islice

import numpy as np
import pytest

from gfcring.curve import (
    AffinePoint,
    InsufficientPointsError,
    basis_rank_check,
    divisor_degree,
    divisor_of_dx,
    divisor_of_theta,
    divisor_of_x,
    divisor_of_y,
    evaluate_theta,
    full_rank_oversample,
    apply_group,
    is_on_curve,
    sample_points,
    suitable_params,
)
from gfcring.indexsets import enumerate_im
from gfcring.linalg import rank_mod_p_array
from gfcring.params import dim_vm, genus, make_curve_params

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
