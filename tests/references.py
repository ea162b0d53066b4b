"""Test-only reference implementations: second routes to jobs that
gfcring computes on one production path, kept here as oracles.

  - evaluate_theta, the scalar form of curve.evaluation_matrix;
  - the divisors of x, y_j and dx, and a divisor's degree, which the
    canonical-divisor tests combine into divisor_of_theta;
  - monomial_sort_key and compare_monomials, the term order that
    ideal._degree2_data sorts the degree-2 monomials by;
  - degree2_monomials, the rows of ideal._degree2_data as tuples of
    window members, which export and verify read as index arrays;
  - reduce_to_basis and phi2_matrix, the weight-2 rewriting and the dense
    evaluation map whose character blocks verify_degree2_kernel ranks;
  - span_rank_by_character, the per-character ranks without the checks;
  - relations_vanish_at_by_monomials, the degree-2 point check that
    multiplies every monomial's window values at every point;
  - member_im, the window test behind enumerate_im;
  - action_exponent, the scalar form of reps.character_of's action;
  - syzygy_multiplicity, mu - nu per label through the DFS mu.
"""

from __future__ import annotations

import numpy as np

from gfcring.curve import AffinePoint, evaluation_matrix
from gfcring.ideal import (
    MonomialKey,
    _character_blocks,
    _degree2_data,
    _reduce,
    _trinomial_rows,
)
from gfcring.indexsets import IndexTuple, enumerate_im, minkowski_di1
from gfcring.params import CurveParams, ParameterError
from gfcring.reps import mu, nu_closed


# --- curve --------------------------------------------------------------------

def evaluate_theta(params: CurveParams, pt: AffinePoint, t: IndexTuple) -> int:
    """Value of x^r * prod y_j^(-a_j) at the point (tensor factor omitted)."""
    p = params.p
    val = pow(pt.x, t[0], p)
    for yj, aj in zip(pt.y, t[1:]):
        if aj:
            val = val * pow(pow(yj, aj, p), p - 2, p) % p
    return val


def divisor_of_x(n: int) -> tuple[int, ...]:
    return (-1, 1) + (0,) * (n - 1)


def divisor_of_y(n: int, j: int) -> tuple[int, ...]:
    """Divisor of y_j for j in 2..n: a pole on D_0, a zero on D_j."""
    if not 2 <= j <= n:
        raise ParameterError(f"y index must be in 2..{n}, got {j}")
    c = [0] * (n + 1)
    c[0], c[j] = -1, 1
    return tuple(c)


def divisor_of_dx(k: int, n: int) -> tuple[int, ...]:
    return (-2, 0) + (k - 1,) * (n - 1)


def divisor_degree(k: int, n: int, c: tuple[int, ...]) -> int:
    """Total degree: every class D_j consists of k^(n-1) points."""
    return sum(c) * k ** (n - 1)


# --- ideal --------------------------------------------------------------------

def monomial_sort_key(mono: MonomialKey):
    """Total-order key: degree, then larger exponent-sum of x first, then
    smaller coordinate sums of a, then the factor sequence."""
    sums = tuple(sum(c) for c in zip(*mono))
    return (len(mono), -sums[0], *sums[1:], mono)


def compare_monomials(m1: MonomialKey, m2: MonomialKey) -> int:
    """-1, 0, or 1 as m1 precedes, equals, or follows m2 in the term order."""
    k1, k2 = monomial_sort_key(m1), monomial_sort_key(m2)
    return (k1 > k2) - (k1 < k2)


def degree2_monomials(k: int, n: int) -> tuple[MonomialKey, ...]:
    window = enumerate_im(k, n, 1).members
    return tuple((window[i], window[j]) for i, j in _degree2_data(k, n)[0].tolist())


def reduce_to_basis(params: CurveParams, t: IndexTuple) -> dict[IndexTuple, int]:
    """Express the weight-2 element at t (any 2-fold sumset point) as a
    combination of weight-2 window members, as a dict index -> coefficient.

    Each coordinate below the window is raised once by k, so the expansion
    has at most 2^(number of low coordinates) terms and every output index
    lies in the weight-2 window.
    """
    t = tuple(t)
    if t not in set(minkowski_di1(params.k, params.n, 2).members):
        raise ParameterError(f"{t} is not a 2-fold sumset point")
    out = _reduce(params, t)
    assert set(out) <= set(enumerate_im(params.k, params.n, 2).members)
    return out


def phi2_matrix(params: CurveParams) -> np.ndarray:
    """Evaluation matrix of degree-2 monomials in the weight-2 basis.

    Rows follow the sorted weight-2 window, columns follow the term order on
    monomials; column M holds the basis expansion of the element at M's
    index-sum.  Full row rank (= dim V_2) is the surjectivity statement.
    """
    k, n = params.k, params.n
    pairs, fibers = _degree2_data(k, n)
    row = {s: i for i, s in enumerate(enumerate_im(k, n, 2).members)}
    mat = np.zeros((len(row), len(pairs)), dtype=np.int64)
    for t, (start, stop) in fibers.items():
        for s, c in _reduce(params, t).items():
            mat[row[s], start:stop] = c
    return mat


def span_rank_by_character(params: CurveParams) -> dict[IndexTuple, int]:
    """Rank of each character's block of the degree-2 relation span; labels
    with no relations are omitted (their dimension is 0)."""
    return _character_blocks(params, _trinomial_rows(params))[2]


def relations_vanish_at_by_monomials(
    params: CurveParams, rows: list[dict[IndexTuple, int]], points: list[AffinePoint]
) -> bool:
    """Whether every binomial and every fiber row {fiber: coefficient} in
    rows evaluates to zero at every point.

    The degree-1 window is evaluated once as a (points x variables) matrix.
    The binomials stay implicit: at each point every monomial's value
    vals[i]*vals[j] must equal that of its fiber's first row, so a row reads
    fiber t at prod[fibers[t][0]].  The rows are padded to a common length
    with zero coefficients and checked as one int64 expression.  The scan
    stops at the first point where a check fails; one point at a time keeps
    the working set at a few monomial-sized arrays.
    """
    p = params.p
    window = enumerate_im(params.k, params.n, 1).members
    pairs, fibers = _degree2_data(params.k, params.n)
    runs = np.array(sorted(fibers.values()), dtype=np.intp)
    first = np.repeat(runs[:, 0], runs[:, 1] - runs[:, 0])
    mono_i, mono_j = pairs.T.astype(np.intp)  # an intp index is not converted per gather
    width = max(map(len, rows), default=0)
    coeff = np.zeros((len(rows), width), dtype=np.int64)
    at = np.zeros((len(rows), width), dtype=np.intp)
    for r, row in enumerate(rows):
        for j, (t, c) in enumerate(row.items()):
            coeff[r, j], at[r, j] = c % p, fibers[t][0]
    for vals in evaluation_matrix(params, points, window):
        prod = vals[mono_i] * vals[mono_j] % p
        if np.any(prod != prod[first]) or np.any((prod[at] * coeff % p).sum(axis=1) % p):
            return False
    return True


# --- indexsets ----------------------------------------------------------------

def member_im(k: int, n: int, m: int, t: IndexTuple) -> bool:
    """Whether t lies in the m-th basis window: (m-1)(k-1) <= a_j <= m(k-1)
    for every coordinate and 0 <= r <= |a| - 2m."""
    if m < 1:
        raise ParameterError(f"need m >= 1, got {m}")
    if len(t) != n:
        raise ParameterError(f"index tuple {t} has length {len(t)}, expected n = {n}")
    r, a = t[0], t[1:]
    lo, hi = (m - 1) * (k - 1), m * (k - 1)
    return all(lo <= aj <= hi for aj in a) and 0 <= r <= sum(a) - 2 * m


# --- reps ---------------------------------------------------------------------

def action_exponent(k: int, m: int, t: IndexTuple, g: IndexTuple) -> int:
    """Exponent of zeta by which the automorphism g scales the weight-m
    element at t: e_1 (r + m) - a . e, reduced mod k."""
    if len(g) != len(t):
        raise ParameterError(f"length mismatch: t={t}, g={g}")
    return (g[0] * (t[0] + m) - sum(aj * ej for aj, ej in zip(t[1:], g[1:]))) % k


def syzygy_multiplicity(k: int, n: int, d: int, h: IndexTuple) -> int:
    """mu - nu in degree d; the number of independent degree-d relations
    transforming by h.  Always nonnegative."""
    val = mu(k, n, d, h) - nu_closed(k, n, d, h)
    assert val >= 0, f"negative relation multiplicity at (k={k}, n={n}, d={d}, h={h})"
    return val
