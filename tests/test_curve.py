"""Affine points, evaluation, group action, divisors, and rank checks."""

import dataclasses
import math
import random
from contextlib import contextmanager
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfcring import curve
from gfcring.curve import (
    InsufficientPointsError,
    basis_rank_check,
    divisor_of_theta,
    evaluation_matrix,
    full_rank_oversample,
    apply_group,
    sample_points,
    suitable_params,
)
from gfcring.indexsets import enumerate_im
from gfcring.linalg import rank_mod_p
from gfcring.params import (
    ParameterError,
    dim_vm,
    find_prime_and_root,
    genus,
    make_curve_params,
)
from gfcring.reps import check_equivariance
from references import (
    AffinePoint,
    apply_group_to_point,
    divisor_degree,
    divisor_of_dx,
    divisor_of_x,
    divisor_of_y,
    evaluate_theta,
    is_on_curve,
    rank_mod_p_array,
    scan_by_x,
)

GRID = [(2, 4), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4)]


def test_sample_points_on_curve_and_deterministic():
    pp = make_curve_params(3, 3, p=103)
    pts, short = sample_points(pp, 40)
    assert pts.shape == (40, 3) and pts.dtype == np.int64 and pts.flags.c_contiguous
    assert not short and not pts.flags.writeable  # a view of the kept scan
    assert all(is_on_curve(pp, q) for q in pts)
    assert np.all(pts[:, 1:] % pp.p != 0)
    again, _ = sample_points(pp, 40)
    assert np.array_equal(pts, again)
    # prefix property: asking for fewer yields a prefix of the same scan
    prefix, _ = sample_points(pp, 7)
    assert np.array_equal(prefix, pts[:7])


def test_sample_points_shortfall():
    pp = make_curve_params(3, 3, p=7)  # 7 = 1 mod 3, tiny
    pts, short = sample_points(pp, 500)
    assert short
    assert all(is_on_curve(pp, q) for q in pts)
    # one point more than the curve has gives all of them, and short
    every, short = sample_points(make_curve_params(3, 3, p=103), 163)
    assert len(every) == 162 and short
    # (3,4) over p=127 with the seed-0 lambda draw genuinely has no points
    # with every coordinate nonzero; the shortfall flag must say so.
    pp = make_curve_params(3, 4, p=127)
    pts, short = sample_points(pp, 1)
    assert short and pts.shape == (0, 4)


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
    # sample_points refuses p^2 >= 2^62, which a run that needs no points must not meet
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


LARGE_PRIME = 2147483647  # 2^31 - 1; k | p - 1 for k = 2, 3, 6, 7


def scan_cases():
    """(k, n, p) of small primes at every k = 2..7, and 2^31 - 1 where k | p - 1."""
    cases = []
    for k in range(2, 8):
        n = 3 if k > 2 else 4
        cases += [(k, n, find_prime_and_root(k, bound)[0]) for bound in (20, 200)]
        if (LARGE_PRIME - 1) % k == 0:
            cases.append((k, n, LARGE_PRIME))
    return cases


def by_x(params, count):
    """The first `count` point rows of scan_by_x, as lists."""
    return [list(q) for q in islice(scan_by_x(params), count)]


@pytest.mark.parametrize("block", [None, 1, 3])
def test_block_scan_matches_the_scan_by_x(monkeypatch, block):
    # The same points in the same order, with runs of accepted x that cross
    # the block edges when a block holds 1 or 3 x.
    if block:
        monkeypatch.setattr(curve, "SCAN_BLOCK", block)
    for k, n, p in scan_cases():
        pp = make_curve_params(k, n, seed=k, p=p)
        want = 400 if p == LARGE_PRIME else p * k ** (n - 1)  # a prefix, or every point
        rows = []
        for block_rows in curve._scan(pp):
            assert block_rows.dtype == np.int64 and block_rows.shape[1] == n
            rows += block_rows.tolist()
            if len(rows) >= want:
                break
        assert rows[:want] == by_x(pp, want), (k, n, p)


def test_block_scan_resumes_mid_block(monkeypatch):
    # Every request, longer or shorter than the last, reads a prefix of the
    # kept scan; one past the field's points reads the whole field.
    monkeypatch.setattr(curve, "SCAN_BLOCK", 3)
    pp = make_curve_params(3, 3, seed=4, p=139)
    whole = len(by_x(pp, pp.p * 9))
    curve._scans.cache_clear()
    for count in (7, 60, 30, 61, whole + 1):
        pts, short = sample_points(pp, count)
        assert pts.tolist() == by_x(pp, count) and short == (count > whole), count
    curve._scans.cache_clear()


def test_block_scan_asserts_each_fiber_on_the_curve(monkeypatch):
    kth_roots = curve._kth_roots

    def one_root_off(c, k, p, zeta):
        roots = kth_roots(c, k, p, zeta)
        return roots[:-1] + [roots[-1] % (p - 1) + 1]

    monkeypatch.setattr(curve, "_kth_roots", one_root_off)
    with pytest.raises(AssertionError):
        next(curve._scan(make_curve_params(3, 3, p=103)))


def test_is_on_curve_rejects():
    pp = make_curve_params(3, 3, p=103)
    x, *ys = sample_points(pp, 1)[0][0].tolist()
    assert is_on_curve(pp, (x, *ys))
    assert not is_on_curve(pp, ((x + 1) % pp.p, *ys))
    assert not is_on_curve(pp, (x, 0, *ys[1:]))


def test_evaluate_theta_manual():
    pp = make_curve_params(3, 3, p=103)
    pts, _ = sample_points(pp, 5)
    q = pts[2]
    x, y2, y3 = q.tolist()
    t = (1, 2, 1)
    expected = (
        x
        * pow(pow(y2, 2, pp.p), pp.p - 2, pp.p)
        * pow(y3, pp.p - 2, pp.p)
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
        return (sample_points(params, 3 * fiber)[0].tolist(), check_equivariance(params),
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
    assert evaluation_matrix(pp, pts[:0], basis).shape == (0, len(basis))
    # x = 0 (and every y = 1): 0^0 = 1 in the r = 0 columns, 0 elsewhere
    window = enumerate_im(3, 3, 1).members
    row = evaluation_matrix(pp, np.array([[0, 1, 1]]), window)[0].tolist()
    assert row == [int(t[0] == 0) for t in window]
    assert 0 in row and 1 in row


def test_evaluation_matrix_is_exact_below_the_int64_limit():
    # 2^31 - 1 is prime and 1 mod 3: products of residues reach ~2^62
    p = 2**31 - 1
    pp = make_curve_params(3, 3, p=p)
    pts = np.array([[p - 1, p - 2, p - 3], [p - 7, 123456789, p - 1], [2, p - 1, 3]])
    basis = enumerate_im(3, 3, 3).members
    expected = [[evaluate_theta(pp, q, t) for t in basis] for q in pts]
    assert evaluation_matrix(pp, pts, basis).tolist() == expected
    # above it a product of two residues no longer fits in int64
    big = make_curve_params(3, 3, p=2147483659)  # the first prime > 2^31 that is 1 mod 3
    with pytest.raises(ParameterError):
        evaluation_matrix(big, pts, basis)


def test_apply_group():
    # All points at once, against the scalar reference one point at a time;
    # at 2^31 - 1 the products of residues come close to 2^62.
    rng = random.Random(3)
    for k, n, p in [(3, 3, 103), (4, 4, 2833), (3, 3, 2147483647)]:
        pp = make_curve_params(k, n, seed=1, p=p)
        pts, _ = sample_points(pp, 30)
        assert len(pts) == 30
        for _ in range(10):
            g = tuple(rng.randrange(-k, 2 * k) for _ in range(n))
            moved = apply_group(pp, pts, g)
            scalar = (apply_group_to_point(pp, AffinePoint(x, tuple(ys)), g)
                      for x, *ys in pts.tolist())
            assert moved.tolist() == [[q.x, *q.y] for q in scalar]
            assert all(is_on_curve(pp, q) for q in moved)
            # composition law: acting twice equals acting by the sum
            h = tuple(rng.randrange(k) for _ in range(n))
            assert np.array_equal(apply_group(pp, moved, h), apply_group(
                pp, pts, tuple((a + b) % k for a, b in zip(g, h))))
        with pytest.raises(ValueError):
            apply_group(pp, pts, (1,) * (n - 1))  # wrong arity


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


@contextmanager
def blocks_ranked():
    """The shapes of the blocks curve hands rank_mod_p, which still ranks them."""
    shapes = []

    def spy(mat, p):
        shapes.append(mat.shape)
        return rank_mod_p(mat, p)

    with mock.patch.object(curve, "rank_mod_p", spy):
        yield shapes


def class_widths(k: int, n: int, m: int) -> dict:
    """Columns per class of a mod k in the weight-m window."""
    widths = {}
    for t in enumerate_im(k, n, m):
        cls = tuple(a % k for a in t[1:])
        widths[cls] = widths.get(cls, 0) + 1
    return widths


@settings(max_examples=20)  # enough draws to reach every curve
@given(
    curve_kn=st.sampled_from([(2, 4), (3, 3), (3, 4), (4, 3), (5, 3)]),
    min_bound=st.integers(100, 3000),
    seed=st.integers(0, 2**31),
    extra=st.integers(-1, 2),
)
def test_blocked_basis_rank_equals_dense_rank(curve_kn, min_bound, seed, extra):
    # From one fiber fewer than the bound (rank-deficient) to two more, the
    # certified class ranks add up to the dense rank over every point, and
    # no class is eliminated.
    k, n = curve_kn
    fiber = k ** (n - 1)
    most = max(full_rank_oversample(k, n, m) for m in (1, 2, 3)) + 2 * fiber
    pp = next(suitable_params(k, n, most, seed=seed, min_bound=min_bound))
    for m in (1, 2, 3):
        basis = enumerate_im(k, n, m).members
        need = full_rank_oversample(k, n, m)
        count = need + extra * fiber
        pts, _ = sample_points(pp, count)
        dense = rank_mod_p_array(evaluation_matrix(pp, pts, basis), pp.p)
        with blocks_ranked() as shapes:
            assert curve._basis_rank(pp, m, pts) == dense, (m, count)
            full = basis_rank_check(pp, m, count)
        assert shapes == []
        assert full == (dense == len(basis)) == (count >= need)
        with pytest.raises(ParameterError):
            basis_rank_check(pp, m, need + 1)


def test_basis_rank_check_eliminates_only_failing_classes(monkeypatch):
    # (4,4), m = 3: a passing check eliminates nothing.  With the last fiber
    # a copy of the first, every class of two or more columns fails its
    # certificate (one abscissa twice) and is ranked as one (F x width)
    # block of its own; the one-column classes stay certified.  A class of
    # width w then has rank min(F - 1, w): a Vandermonde block on F - 1
    # distinct abscissas.
    need = full_rank_oversample(4, 4, 3)
    fibers = need // 4 ** 3
    pp = next(suitable_params(4, 4, need, seed=0))
    with blocks_ranked() as shapes:
        assert basis_rank_check(pp, 3, need)
    assert shapes == []
    pts = sample_points(pp, need)[0].copy()
    pts[-4 ** 3:] = pts[:4 ** 3]
    monkeypatch.setattr(curve, "sample_points", lambda params, count: (pts, False))
    widths = class_widths(4, 4, 3).values()
    with blocks_ranked() as shapes:
        assert curve._basis_rank(pp, 3, pts) == sum(min(fibers - 1, w) for w in widths)
    assert sorted(shapes) == sorted((fibers, w) for w in widths if w > 1)
    assert not basis_rank_check(pp, 3, need)


DEFECT_CURVES = [(3, 3, 2), (3, 4, 1), (4, 3, 3)]


def widest_class(k, n, m):
    """(class, its columns in basis order: r = 0, 1, ...) of the widest class."""
    basis = enumerate_im(k, n, m).members
    widths = class_widths(k, n, m)
    cls = max(widths, key=widths.get)
    return cls, [j for j, t in enumerate(basis) if tuple(a % k for a in t[1:]) == cls]


def break_one_fiber(monkeypatch, cols, x, change):
    """Patch curve.evaluation_matrix: the columns cols, at every point over x,
    become change(entries).  A fiber's points then still split by class, so
    the dense rank stays the sum of the class ranks on one point per fiber."""
    evaluate = curve.evaluation_matrix

    def broken(params, points, rows):
        out = evaluate(params, points, rows)
        at = np.ix_(np.asarray(points)[:, 0] == x, cols)
        out[at] = change(out[at])
        return out

    monkeypatch.setattr(curve, "evaluation_matrix", broken)
    return broken


def assert_only_class_eliminated(k, n, m, pp, evaluate, cls):
    """The broken class cls alone is eliminated, the rank is the dense rank, and
    the verdict is the dense rank's."""
    need = full_rank_oversample(k, n, m)
    pts = sample_points(pp, need)[0]
    dense = rank_mod_p_array(evaluate(pp, pts, enumerate_im(k, n, m).members), pp.p)
    with blocks_ranked() as shapes:
        assert curve._basis_rank(pp, m, pts) == dense
    assert shapes == [(need // k ** (n - 1), class_widths(k, n, m)[cls])]
    assert basis_rank_check(pp, m, need) == (dense == dim_vm(k, n, m))
    return dense


@pytest.mark.parametrize("k, n, m", DEFECT_CURVES)
def test_a_deficiency_in_one_class_fails_the_basis_check(monkeypatch, k, n, m):
    # One column copied onto another of its class (the same a mod k) at every
    # point: that class alone fails its x-step, is eliminated, and loses one
    # rank.
    need = full_rank_oversample(k, n, m)
    pp = next(suitable_params(k, n, need, seed=2))
    cls, cols = widest_class(k, n, m)
    src, dst = cols[:2]
    evaluate = curve.evaluation_matrix

    def copied(params, points, rows):
        out = evaluate(params, points, rows)
        out[:, dst] = out[:, src]
        return out

    monkeypatch.setattr(curve, "evaluation_matrix", copied)
    assert assert_only_class_eliminated(k, n, m, pp, copied, cls) == dim_vm(k, n, m) - 1


@pytest.mark.parametrize("k, n, m", DEFECT_CURVES)
def test_a_zero_in_a_root_column_is_eliminated(monkeypatch, k, n, m):
    # The widest class vanishes on the last fiber, its r = 0 column there
    # too: every x-step still holds, but the root column has a zero, so that
    # class alone is eliminated, and it loses a rank.
    need = full_rank_oversample(k, n, m)
    pp = next(suitable_params(k, n, need, seed=2))
    cls, cols = widest_class(k, n, m)
    x = sample_points(pp, need)[0][-1, 0]
    broken = break_one_fiber(monkeypatch, cols, x, lambda v: 0 * v)
    assert assert_only_class_eliminated(k, n, m, pp, broken, cls) == dim_vm(k, n, m) - 1


@pytest.mark.parametrize("k, n, m", DEFECT_CURVES)
def test_a_broken_x_step_is_eliminated(monkeypatch, k, n, m):
    # The widest class's r = 1 column doubles on the last fiber: it is no
    # longer its r = 0 column times x there, so that class alone is
    # eliminated.
    need = full_rank_oversample(k, n, m)
    pp = next(suitable_params(k, n, need, seed=2))
    cls, cols = widest_class(k, n, m)
    x = sample_points(pp, need)[0][-1, 0]
    assert x % pp.p  # else doubling would change nothing
    broken = break_one_fiber(monkeypatch, cols[1:2], x, lambda v: 2 * v % pp.p)
    assert_only_class_eliminated(k, n, m, pp, broken, cls)


@pytest.mark.parametrize("k, n, m", DEFECT_CURVES)
def test_fibers_with_one_x_are_eliminated(monkeypatch, k, n, m):
    # The last fiber a copy of the first: every class of two or more columns
    # is eliminated, the one-column classes stay certified, and the widest
    # class loses a rank, so the check fails.
    need = full_rank_oversample(k, n, m)
    fiber = k ** (n - 1)
    pp = next(suitable_params(k, n, need, seed=2))
    pts = sample_points(pp, need)[0].copy()
    pts[-fiber:] = pts[:fiber]
    monkeypatch.setattr(curve, "sample_points", lambda params, count: (pts, False))
    dense = rank_mod_p_array(evaluation_matrix(pp, pts, enumerate_im(k, n, m).members), pp.p)
    with blocks_ranked() as shapes:
        assert curve._basis_rank(pp, m, pts) == dense == dim_vm(k, n, m) - 1
    assert sorted(shapes) == sorted((need // fiber, w)
                                    for w in class_widths(k, n, m).values() if w > 1)
    assert not basis_rank_check(pp, m, need)


@pytest.mark.parametrize("k, n, m", [(3, 3, 2), (4, 3, 2), (3, 4, 3)])
def test_a_class_of_two_a_is_eliminated(monkeypatch, k, n, m):
    # A window one wider below, (m-1)(k-1) - 1 <= a_j: a class now holds two
    # a with one residue mod k, so two r = 0 columns, whose x-steps all
    # hold.  Exactly those classes are eliminated.
    lo = (m - 1) * (k - 1) - 1
    lattice = curve._lattice
    rows = lattice(k, n, m, lo)[0]
    monkeypatch.setattr(curve, "_lattice", lambda k, n, m: lattice(k, n, m, lo))
    roots = {}
    for a in rows[rows[:, 0] == 0, 1:].tolist():
        roots.setdefault(tuple(v % k for v in a), []).append(a)
    twice = [cls for cls, a in roots.items() if len(a) > 1]
    assert twice
    need = full_rank_oversample(k, n, m)
    pp = next(suitable_params(k, n, need, seed=2))
    pts = sample_points(pp, need)[0]
    dense = rank_mod_p_array(evaluation_matrix(pp, pts, rows), pp.p)
    with blocks_ranked() as shapes:
        assert curve._basis_rank(pp, m, pts) == dense
    assert [rows for rows, _ in shapes] == [need // k ** (n - 1)] * len(twice)
