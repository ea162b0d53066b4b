"""Dense linear algebra over a prime field F_p.

Everything here works on small/medium matrices (a few thousand rows at
most), so plain Gaussian elimination on int64 numpy arrays is fine.  All
arithmetic stays exact because entries are reduced mod p after every
multiply and p**2 fits comfortably in int64 for the primes we use.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def rank_mod_p_array(mat: np.ndarray | Sequence[Sequence[int]], p: int) -> int:
    """Rank over F_p of an integer array or list of rows (never clobbered)."""
    mat = np.array(mat, dtype=np.int64)
    return _eliminate(mat, p) if mat.size else 0


def _eliminate(mat: np.ndarray, p: int) -> int:
    """In-place row reduction; returns the number of pivots.

    Full-matrix reduction mod p after every pivot would dominate the runtime
    (int64 division is slow), so entries are left to drift and only the
    pivot row and the column being cleared are canonicalized.  One update
    step grows magnitudes by at most p^2, so a counter renormalizes the
    trailing block before int64 could overflow; for desk-scale primes that
    never actually triggers.
    """
    assert p * p < 2**62
    n_rows, n_cols = mat.shape
    mat %= p
    rank = 0
    dirty = 0
    max_dirty = 2**62 // (p * p) - 1
    for col in range(n_cols):
        if rank == n_rows:
            break
        colvals = mat[rank:, col] % p
        nz = np.nonzero(colvals)[0]
        if nz.size == 0:
            continue
        pivot = rank + int(nz[0])
        if pivot != rank:
            mat[[rank, pivot]] = mat[[pivot, rank]]
        # Columns left of the pivot are never read again, so scaling and
        # clearing both act on the trailing block only.
        row = mat[rank, col:]
        row %= p
        inv = pow(int(row[0]), p - 2, p)
        row *= inv
        row %= p
        below = mat[rank + 1:, col:]
        if below.size:
            factors = below[:, 0] % p
            below -= np.outer(factors, row)
            dirty += 1
            if dirty >= max_dirty:
                below %= p
                dirty = 0
        rank += 1
    return rank

