"""Dense linear algebra over a prime field F_p.

rank_mod_p ranks one 2-D block by Gaussian elimination on an int64 numpy
array, one Python step per column.  Only a failing run reaches it: the a mod
k classes of curve._basis_rank and the degree-2 character blocks of
ideal._character_blocks are certified, and only a block whose certificate
fails is eliminated.
Exact while p**2 < 2**62, where a product of two residues fits in int64.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .params import require_int64_prime


def rank_mod_p(mat: np.ndarray | Sequence[Sequence[int]], p: int) -> int:
    """The rank over F_p of a 2-D integer array or list of rows (never clobbered).

    Per column the pivot is the first nonzero entry at or below the rank: it
    is swapped up and scaled to 1, and only the rows below it with a nonzero
    entry in the column are cleared, as most rows of a sparse degree-2
    character block need nothing.  Entries drift between steps (int64
    division is slow): only the pivot row and the factor column are reduced,
    each step grows the rest by at most p^2, and a counter renormalizes the
    trailing block before int64 could overflow.  The working copy is
    C-ordered: on a column-strided copy elimination runs about 3x slower.
    Raises ParameterError when p^2 >= 2^62, where int64 products would wrap.
    """
    require_int64_prime(p)
    mat = np.array(mat, dtype=np.int64, order="C")
    if not mat.size:
        return 0
    mat %= p
    rank = dirty = 0
    max_dirty = 2**62 // (p * p) - 1
    for col in range(mat.shape[1]):
        factors = mat[rank:, col] % p
        nonzero = factors.nonzero()[0]
        if not nonzero.size:
            continue
        first = int(nonzero[0])
        pivot = mat[rank + first, col:] % p
        # The swap: the finished row at `rank` is never read again, so only
        # the old one moves down, to the pivot's place; its factor is zero,
        # as the pivot is the first nonzero entry.
        if first:
            mat[rank + first, col:] = mat[rank, col:]
        pivot *= pow(int(pivot[0]), -1, p)
        pivot %= p
        hit = nonzero[1:]
        mat[rank + hit, col:] -= factors[hit, None] * pivot
        rank += 1
        if rank == len(mat):
            break
        dirty += 1
        if dirty >= max_dirty:
            mat[rank:, col:] %= p
            dirty = 0
    return rank
