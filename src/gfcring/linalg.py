"""Dense linear algebra over a prime field F_p.

ranks_mod_p ranks a (B, R, C) stack of same-shape blocks: the a mod k
classes that fail the scaled-Vandermonde certificate of curve._basis_rank,
each padded with zero columns to the widest of them, as a zero column adds
no rank, and the degree-2 character blocks whose ranks
ideal._character_blocks cannot certify.  Only a failing run reaches it: a
passing verify certifies every rank it takes.
Gaussian elimination on int64 numpy arrays takes one Python step per column
for the whole stack.  Callers keep a stack within CHUNK_CELLS cells, or one
block.
Exact while p**2 < 2**62: entries are reduced mod p after every multiply.
"""

from __future__ import annotations

import numpy as np

from .params import ParameterError

# Cells per stack, and per slab of an elimination step's update: past it the
# temporaries cost more memory than the saved Python steps are worth.
CHUNK_CELLS = 1 << 16


def require_int64_prime(p: int) -> None:
    """Products of two residues fit in int64 only while p^2 < 2^62."""
    if p * p >= 2**62:
        raise ParameterError(f"p = {p} is too large for int64 arithmetic (need p^2 < 2^62)")


def ranks_mod_p(stack: np.ndarray, p: int) -> np.ndarray:
    """The B ranks over F_p of a (B, R, C) integer stack (never clobbered).

    Each column is one step for the whole stack: each member's pivot is its
    first nonzero entry at or below its rank; only pivot rows are swapped and
    scaled, and every member's trailing block is cleared at once, the factors
    of its finished rows set to zero.  Entries drift between steps (int64
    division is slow), each step by at most p^2, and a counter renormalizes
    before int64 could overflow.  The working copy is C-ordered: on a
    column-strided copy elimination runs about 3x slower.  Raises
    ParameterError when p^2 >= 2^62, where int64 products would wrap.
    """
    require_int64_prime(p)
    mat = np.array(stack, dtype=np.int64, order="C")
    n_mats, n_rows, n_cols = mat.shape
    rank = np.zeros(n_mats, dtype=np.intp)
    if not mat.size:
        return rank
    mat %= p
    members, row_at = np.arange(n_mats), np.arange(n_rows)
    lo = dirty = 0  # lo: the least rank; rows above it are finished in every member
    ragged = False  # whether the members' ranks may differ
    max_dirty = 2**62 // (p * p) - 1
    for col in range(n_cols):
        # factors: the column below each member's rank; rows above it are finished
        factors = mat[:, lo:, col] % p
        if ragged:
            factors[row_at[lo:] < rank[:, None]] = 0
        nonzero = factors != 0
        first = nonzero.argmax(axis=1)
        b = nonzero[members, first].nonzero()[0]
        if not b.size:
            continue
        src, dst = first[b] + lo, rank[b]
        pivot = mat[b, src, col:] % p
        # The pivot row, finished, is never read again: only dst's old row
        # (zero in this column, so its factor is zero) is stored, at src.
        # Where src is dst, the update may clear the finished row itself.
        if (src != dst).any():
            mat[b, src, col:] = mat[b, dst, col:]
            factors[b, first[b]] = 0
        inv = np.array([pow(v, -1, p) for v in pivot[:, 0].tolist()], dtype=np.int64)
        pivot *= inv[:, None]
        pivot %= p
        if b.size < n_mats:
            rows = np.zeros((n_mats, n_cols - col), dtype=np.int64)
            rows[b] = pivot
        else:
            rows = pivot
        slab = max(1, CHUNK_CELLS // rows.size)
        for top in range(0, n_rows - lo, slab):
            trailing = mat[:, lo + top:lo + top + slab, col:]
            trailing -= factors[:, top:top + slab, None] * rows[:, None, :]
        dirty += 1
        if dirty >= max_dirty:
            mat[:, lo:, col:] %= p
            dirty = 0
        if b.size < n_mats:
            rank[b] += 1
            lo, ragged = int(rank.min()), True
        else:
            rank += 1
            lo += 1
        if lo == n_rows:
            break
    return rank
