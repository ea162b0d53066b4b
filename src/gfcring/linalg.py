"""Dense linear algebra over a prime field F_p.

The library ranks the character blocks of verify's degree-2 check (the phi2
block and the relation block of each (Z/k)^n character; at (2,10) the largest
has 6921 rows and 1793 columns) and the per-class blocks of
curve.basis_rank_check's evaluation matrix.  Gaussian elimination on int64
numpy arrays takes one Python step per pivot, each a vectorized update of
the trailing block.  All arithmetic stays exact because entries are reduced
mod p after every multiply and the prime must satisfy p**2 < 2**62.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .params import ParameterError


def require_int64_prime(p: int) -> None:
    """Products of two residues fit in int64 only while p^2 < 2^62."""
    if p * p >= 2**62:
        raise ParameterError(f"p = {p} is too large for int64 arithmetic (need p^2 < 2^62)")


def rank_mod_p_array(mat: np.ndarray | Sequence[Sequence[int]], p: int) -> int:
    """Rank over F_p of an integer array or list of rows (never clobbered).

    The working copy is C-ordered whatever the input's layout: elimination
    walks rows, and on a column-strided copy it runs about 3x slower.
    Raises ParameterError when p^2 >= 2^62, where int64 products would wrap.
    """
    require_int64_prime(p)
    mat = np.array(mat, dtype=np.int64, order="C")
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

