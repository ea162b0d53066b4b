"""Exact rank computation over prime fields."""

import os
import subprocess
import sys

import numpy as np
import pytest

import gfcring
from gfcring.linalg import rank_mod_p
from gfcring.params import ParameterError
from references import rank_mod_p_array


def test_rank_small_frozen():
    for rank in (rank_mod_p_array, rank_mod_p):
        assert rank([[1, 2], [2, 4]], 5) == 1
        assert rank([[1, 2], [2, 4]], 3) == 1
        assert rank([[1, 0], [0, 1]], 7) == 2
        assert rank([[0, 0], [0, 0]], 7) == 0
        assert rank([], 7) == 0
        # rank can drop mod p even when the integer matrix is invertible
        assert rank([[1, 1], [1, 8]], 7) == 1
        assert rank([[1, 1], [1, 8]], 5) == 2


def test_rank_mod_p_array_does_not_clobber():
    mat = np.array([[1, 2], [3, 4]], dtype=np.int64)
    before = mat.copy()
    assert rank_mod_p_array(mat, 101) == 2
    assert np.array_equal(mat, before)


def test_rank_of_products():
    rng = np.random.default_rng(7)
    for p in (101, 103, 2833):
        for rows, cols, inner in ((40, 60, 30), (80, 50, 50), (25, 25, 10)):
            left = rng.integers(0, p, size=(rows, inner))
            right = rng.integers(0, p, size=(inner, cols))
            mat = (left @ right) % p
            assert rank_mod_p_array(mat, p) == min(rows, cols, inner)


def test_duplicated_column_leaves_rank_unchanged():
    rng = np.random.default_rng(1)
    mat = rng.integers(0, 101, size=(12, 8))
    base = rank_mod_p_array(mat, 101)
    extended = np.hstack([mat, mat[:, 3:4]])
    assert rank_mod_p_array(extended, 101) == base


def test_nullity():
    # nullity = n_cols - rank
    assert 3 - rank_mod_p_array([[1, 2, 3]], 5) == 2
    assert 2 - rank_mod_p_array([[1, 0], [0, 1]], 5) == 0


def test_large_prime_is_rejected():
    # int64 exactness needs p^2 < 2^62
    with pytest.raises(ParameterError):
        rank_mod_p_array([[1, 1], [1, 2]], 2305843009213693951)  # 2^61 - 1, prime


def test_large_prime_is_rejected_under_optimization():
    # python -O strips asserts, so the p^2 < 2^62 guard must be a raise
    code = (
        "from gfcring.linalg import rank_mod_p\n"
        "from gfcring.params import ParameterError\n"
        "try:\n"
        "    rank_mod_p([[1, 1], [1, 2]], 2305843009213693951)\n"
        "except ParameterError:\n"
        "    print('rejected')\n"
    )
    src = os.path.dirname(os.path.dirname(gfcring.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "rejected\n"


def test_multiple_of_p_matrix_has_rank_zero():
    assert rank_mod_p_array(np.eye(4, dtype=np.int64) * 101, 101) == 0


# 536870909 < 2^29 renormalizes the drifting entries every 15 steps, and
# 2^31 - 1 after every step.
@pytest.mark.parametrize("p", [2, 3, 2833, 536870909, 2**31 - 1])
def test_ranks_mod_p_match_the_per_matrix_oracle(p):
    rng = np.random.default_rng(p % 1000)
    shapes = [(0, 4), (4, 0), (0, 0), (1, 1), (120, 40), (40, 120)]
    shapes += [tuple(rng.integers(1, 9, size=2)) for _ in range(120)]
    for shape in shapes:
        mat = rng.integers(0, p, size=shape)
        sparse = mat * (rng.random(shape) < rng.random())
        for block in (mat, sparse):
            before = block.copy()
            assert rank_mod_p(block, p) == rank_mod_p_array(block, p), shape
            assert np.array_equal(block, before)
    # known deficiency: exact products mod p through `inner` dimensions; the
    # tall one runs 30 steps, past where unreduced drift would wrap int64
    for shape, inner in (((9, 7), 0), ((9, 7), 1), ((9, 7), 3), ((80, 60), 30)):
        left = rng.integers(0, p, size=(shape[0], inner)).astype(object)
        right = rng.integers(0, p, size=(inner, shape[1])).astype(object)
        mat = (left @ right % p).astype(np.int64)
        rank = rank_mod_p(mat, p)
        assert rank == rank_mod_p_array(mat, p) and rank <= inner


def test_ranks_mod_p_takes_any_layout_and_clobbers_nothing():
    rng = np.random.default_rng(11)
    mat = rng.integers(-500, 500, size=(12, 9)) * (rng.random((12, 9)) < 0.4)
    mat[7] = 3 * mat[2] - mat[4]
    before = mat.copy()
    fortran = np.asfortranarray(mat)
    assert (rank_mod_p(mat, 101) == rank_mod_p(fortran, 101) == rank_mod_p(mat.tolist(), 101)
            == rank_mod_p(mat[:, ::-1], 101) == rank_mod_p_array(mat, 101))
    assert np.array_equal(mat, before) and np.array_equal(fortran, before)
    assert fortran.flags.f_contiguous


def test_ranks_mod_p_rejects_a_prime_past_int64():
    with pytest.raises(ParameterError):
        rank_mod_p(np.eye(2, dtype=np.int64), 2305843009213693951)  # 2^61 - 1
    with pytest.raises(ParameterError):
        rank_mod_p(np.zeros((0, 2), dtype=np.int64), 2**31)  # p^2 = 2^62, even with no cells
