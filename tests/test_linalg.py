"""Exact rank computation over prime fields."""

import os
import subprocess
import sys

import numpy as np
import pytest

import gfcring
from gfcring import linalg
from gfcring.linalg import ranks_mod_p
from gfcring.params import ParameterError
from references import rank_mod_p_array


def test_rank_small_frozen():
    assert rank_mod_p_array([[1, 2], [2, 4]], 5) == 1
    assert rank_mod_p_array([[1, 2], [2, 4]], 3) == 1
    assert rank_mod_p_array([[1, 0], [0, 1]], 7) == 2
    assert rank_mod_p_array([[0, 0], [0, 0]], 7) == 0
    assert rank_mod_p_array([], 7) == 0
    # rank can drop mod p even when the integer matrix is invertible
    assert rank_mod_p_array([[1, 1], [1, 8]], 7) == 1
    assert rank_mod_p_array([[1, 1], [1, 8]], 5) == 2


def test_rank_mod_p_array_does_not_clobber():
    mat = np.array([[1, 2], [3, 4]], dtype=np.int64)
    before = mat.copy()
    assert rank_mod_p_array(mat, 101) == 2
    assert np.array_equal(mat, before)


def test_fortran_ordered_input_is_eliminated_in_c_order(monkeypatch):
    rng = np.random.default_rng(5)
    mat = np.asfortranarray(rng.integers(0, 101, size=(2, 30, 20)))
    before = mat.copy()
    layouts = []

    class Spy:
        """numpy, with the layout of every 3-D array made by np.array noted."""

        def __getattr__(self, name):
            return getattr(np, name)

        def array(self, *args, **kwargs):
            out = np.array(*args, **kwargs)
            if out.ndim == 3:
                layouts.append(out.flags.c_contiguous)
            return out

    monkeypatch.setattr(linalg, "np", Spy())
    assert (ranks_mod_p(mat, 101).tolist()
            == ranks_mod_p(np.ascontiguousarray(mat), 101).tolist() == [20, 20])
    assert np.array_equal(mat, before) and mat.flags.f_contiguous
    assert layouts == [True, True]


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
        "from gfcring.linalg import ranks_mod_p\n"
        "from gfcring.params import ParameterError\n"
        "try:\n"
        "    ranks_mod_p([[[1, 1], [1, 2]]], 2305843009213693951)\n"
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


def oracle_ranks(stack, p):
    return [rank_mod_p_array(mat, p) for mat in stack]


# 536870909 < 2^29 renormalizes the drifting entries every 15 steps, and
# 2^31 - 1 after every step.
@pytest.mark.parametrize("p", [2, 3, 2833, 536870909, 2**31 - 1])
def test_ranks_mod_p_match_the_per_matrix_oracle(p):
    rng = np.random.default_rng(p % 1000)
    shapes = [(3, 0, 4), (3, 4, 0), (0, 3, 3), (1, 1, 1), (1, 120, 40), (1, 40, 120)]
    shapes += [tuple(rng.integers(1, 9, size=3)) for _ in range(40)]
    for shape in shapes:
        stack = rng.integers(0, p, size=shape)
        sparse = stack * (rng.random(shape) < rng.random())  # ragged ranks within the stack
        for mat in (stack, sparse):
            before = mat.copy()
            assert ranks_mod_p(mat, p).tolist() == oracle_ranks(mat, p), shape
            assert np.array_equal(mat, before)
    # known deficiency: exact products mod p through `inner` dimensions; the
    # tall one runs 30 steps, past where unreduced drift would wrap int64
    for shape, inner in (((6, 9, 7), 0), ((6, 9, 7), 1), ((6, 9, 7), 3), ((1, 80, 60), 30)):
        left = rng.integers(0, p, size=shape[:2] + (inner,)).astype(object)
        right = rng.integers(0, p, size=(shape[0], inner, shape[2])).astype(object)
        stack = (left @ right % p).astype(np.int64)
        ranks = ranks_mod_p(stack, p).tolist()
        assert ranks == oracle_ranks(stack, p) and max(ranks) <= inner


def test_ranks_mod_p_updates_in_slabs_of_a_few_rows(monkeypatch):
    # Each step clears the trailing block slab by slab, CHUNK_CELLS cells at
    # a time; with slabs of one to a few rows the ranks stay the oracle's.
    monkeypatch.setattr(linalg, "CHUNK_CELLS", 20)
    rng = np.random.default_rng(3)
    for shape in ((1, 50, 12), (4, 9, 7), (3, 30, 5)):
        stack = rng.integers(0, 101, size=shape) * (rng.random(shape) < 0.5)
        assert ranks_mod_p(stack, 101).tolist() == oracle_ranks(stack, 101)


def test_ranks_mod_p_takes_any_layout_and_clobbers_nothing():
    rng = np.random.default_rng(11)
    stack = rng.integers(-500, 500, size=(5, 12, 9)) * (rng.random((5, 12, 9)) < 0.4)
    stack[1, 7] = 3 * stack[1, 2] - stack[1, 4]
    before = stack.copy()
    fortran = np.asfortranarray(stack)
    assert (ranks_mod_p(stack, 101).tolist() == ranks_mod_p(fortran, 101).tolist()
            == ranks_mod_p(stack.tolist(), 101).tolist() == oracle_ranks(stack, 101))
    assert np.array_equal(stack, before) and np.array_equal(fortran, before)
    assert fortran.flags.f_contiguous


def test_ranks_mod_p_rejects_a_prime_past_int64():
    with pytest.raises(ParameterError):
        ranks_mod_p(np.eye(2, dtype=np.int64)[None], 2305843009213693951)  # 2^61 - 1
    with pytest.raises(ParameterError):
        ranks_mod_p(np.zeros((0, 2, 2), dtype=np.int64), 2**31)  # p^2 = 2^62, even with no cells
