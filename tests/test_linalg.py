"""Exact rank computation over prime fields."""

import os
import subprocess
import sys

import numpy as np
import pytest

import gfcring
from gfcring import linalg
from gfcring.linalg import rank_mod_p_array
from gfcring.params import ParameterError


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
    mat = np.asfortranarray(rng.integers(0, 101, size=(30, 20)))
    before = mat.copy()
    layouts = []
    eliminate = linalg._eliminate

    def spy(work, p):
        layouts.append(work.flags.c_contiguous)
        return eliminate(work, p)

    monkeypatch.setattr(linalg, "_eliminate", spy)
    assert rank_mod_p_array(mat, 101) == rank_mod_p_array(np.ascontiguousarray(mat), 101) == 20
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
        "from gfcring.linalg import rank_mod_p_array\n"
        "from gfcring.params import ParameterError\n"
        "try:\n"
        "    rank_mod_p_array([[1, 1], [1, 2]], 2305843009213693951)\n"
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
