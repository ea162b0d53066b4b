"""Character theory of the abelian cover group (Z/kZ)^n.

Group elements and character labels are flat tuples of length n with entries
mod k: component 0 pairs with the exponent of x (plus the tensor weight m),
components 1..n-1 pair with the denominator exponents a.  The character of
the basis element at (r, a) in weight m is ((r + m) mod k, (-a) mod k).

Multiplicities:
  - nu(m, h): copies of the character h in the weight-m differentials;
    counted brute-force on the index window, or by the closed formula.
  - mu(d, h): copies of h in Sym^d of the degree-1 characters (characters
    add under multiplication), all k^n at once by mu_table in the group ring
    of (Z/k)^n.
  - syzygy(d, h) = mu - nu: copies of h among degree-d relations.

check_equivariance tests character_of on the generators' action through
curve.evaluation_matrix, in column blocks within curve.CHUNK_CELLS cells.
"""

from __future__ import annotations

import itertools

import numpy as np

from .curve import (CHUNK_CELLS, InsufficientPointsError, apply_group, evaluation_matrix,
                    sample_points)
from .indexsets import IndexTuple, _lattice, _window, total_degree_d_monomials
from .params import CurveParams, ParameterError, dim_vm


def character_of(k: int, m: int, t: IndexTuple) -> IndexTuple:
    """Label h such that every automorphism g scales the weight-m element at t by
    zeta^(h . g): e_1 (r + m) - a . e = h . g (mod k), per column if t is rows.T
    (and m may give one weight per column)."""
    return ((t[0] + m) % k, *((-aj) % k for aj in t[1:]))


def all_labels(k: int, n: int) -> list[IndexTuple]:
    return [t for t in itertools.product(range(k), repeat=n)]


def nu_closed(k: int, n: int, m: int, h) -> int:
    """Closed-form multiplicity of the character h in weight m.

    The count reduces to the number of multiples of k in an interval whose
    endpoints involve the residues; that derivation divides r + m by k with
    a nonnegative quotient, so the leading residue must be taken in the
    window [m, m + k) (the trailing residues stay in [0, k)).  Labels whose
    interval is empty come out negative and are clamped to 0, label by label
    if h is the n columns of a label array.  Validated against the brute route.
    """
    if m < 1:
        raise ParameterError(f"need m >= 1, got {m}")
    h1 = m + (h[0] - m) % k
    rest = [hj % k for hj in h[1:]]
    tot = h1 + sum(rest)
    ceil_term = -((-(tot + m)) // k)  # ceil((tot + m) / k) with exact ints
    val = (n - 1) * (m - 1) - ceil_term - sum((m - 1 - hj) // k for hj in rest) + 1
    return val * (val > 0)  # max(0, val), label by label


def nu_table(k: int, n: int, m: int, closed: bool = True) -> dict[IndexTuple, int]:
    """All k^n multiplicities at once, keyed by label in all_labels order.

    closed=False bincounts the window members' characters (the brute-force
    route), read off the unsorted window grid; closed=True runs nu_closed on
    the label columns, in int64.
    """
    if closed:
        if (n + 2) * (m + k) >= 1 << 63:  # bounds every intermediate of nu_closed
            raise ParameterError(f"weight m = {m} is beyond the int64 range of nu_closed")
        if n * k ** n >= 1 << 60:  # numpy refuses the columns' 2^63 bytes or more
            raise ParameterError(f"the {k}^{n} character labels are too many to lay out")
        counts = nu_closed(k, n, m, np.indices((k,) * n).reshape(n, -1))
    else:
        r, a, _ = _window(k, n, m)
        chars = character_of(k, m, (r, *a.T))
        counts = np.bincount(np.ravel_multi_index(chars, (k,) * n), minlength=k ** n)
    return dict(zip(all_labels(k, n), counts.tolist()))


def _cayley_difference(k: int, n: int) -> np.ndarray:
    """diff[y, x] = position of x - y in all_labels(k, n)."""
    z = (np.arange(k)[None, :] - np.arange(k)[:, None]) % k
    diff = np.zeros((1, 1), dtype=np.intp)
    for _ in range(n):
        diff = (diff[:, None, :, None] * k + z[None, :, None, :]).reshape(k * len(diff), -1)
    return diff


def _convolve(a: np.ndarray, b: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """(a * b)[h] = sum over chi of a[chi] b[h - chi] on (Z/k)^n, with both
    shaped (k, k^(n-1)): per leading coordinate x0, one gather of a[x0]
    through the Cayley table `diff` of (Z/k)^(n-1) and one roll by x0."""
    out = np.zeros_like(b)
    for x0, row in enumerate(a):
        out += np.roll(b @ row[diff], x0, axis=0)
    return out


# The most degrees mu_table's loop runs: at small genus the int64 guard alone
# admits millions, at a fraction of a millisecond each.
MAX_MU_DEGREE = 10**4


def mu_table(k: int, n: int, d: int) -> dict[IndexTuple, int]:
    """All k^n multiplicities of Sym^d(V_1), V_1 being the degree-1 window
    members bucketed by character.

    In the group ring of (Z/k)^n, Newton's identity d h_d = sum over
    i = 1..d of psi^i * h_{d-i} gives h_d exactly; psi^i buckets the members
    by i times their character, so it depends on i mod k only, and the terms
    i = i0, i0 + k, ... are one convolution with the running sum of h_m over
    m = d - i0 (mod k).  The term i = d, h_0 being the identity, is psi^d
    itself, and a sum with no degree m in 0 < m < d is skipped: degree 2
    takes one convolution.  Every partial sum is nonnegative and at most
    d * comb(g + d - 1, d): ParameterError before any allocation when that
    reaches 2^63, or when d exceeds MAX_MU_DEGREE.
    """
    if d < 1:
        raise ParameterError(f"need d >= 1, got {d}")
    g = dim_vm(k, n, 1)
    bound = d  # times comb(g - 1 + d, min(d, g - 1)): exact factors, each >= 2
    for j in range(1, min(d, g - 1, 63) + 1):
        bound = bound * (max(d, g - 1) + j) // j
    if bound >= 1 << 63:
        raise ParameterError(f"degree-{d} multiplicities at (k, n) = ({k}, {n}) need sums up to "
                             f"{d} * comb({g + d - 1}, {d}), beyond the int64 limit 2^63")
    if d > MAX_MU_DEGREE:
        raise ParameterError(f"degree d = {d} is above the limit {MAX_MU_DEGREE} "
                             "of the multiplicity recurrence")
    chars = np.array(character_of(k, 1, _lattice(k, n, 1)[0].T))
    psi = [np.bincount(np.ravel_multi_index(i * chars % k, (k,) * n),
                       minlength=k ** n).reshape(k, -1) for i in range(k)]
    diff = _cayley_difference(k, n - 1)
    h = psi[1]  # h_1
    sums = [np.zeros_like(h) for _ in range(k)]  # sums[s]: h_m over 0 < m < j, m = s mod k
    for j in range(2, d + 1):
        sums[(j - 1) % k] += h
        h = (psi[j % k] + sum(_convolve(psi[i % k], sums[(j - i) % k], diff)
                              for i in range(1, min(j - 1, k) + 1))) // j
    vals = dict(zip(all_labels(k, n), h.ravel().tolist()))
    assert sum(vals.values()) == total_degree_d_monomials(k, n, d)
    return vals


def syzygy_table(k: int, n: int, d: int) -> dict[IndexTuple, int]:
    """mu - nu for every label, unchecked: a negative count is left for the
    callers to report."""
    mu_t, nu_t = mu_table(k, n, d), nu_table(k, n, d)
    return {h: mu_t[h] - nu_t[h] for h in all_labels(k, n)}


# Curve points at which check_equivariance compares the action.
EQUIVARIANCE_POINTS = 25


def check_equivariance(params: CurveParams) -> bool:
    """True iff character_of gives the geometric action on every window member
    t of weights m = 1..3: at EQUIVARIANCE_POINTS points, translating by the
    generator e_j scales the value by zeta^(h_j - m [j = 0]),
    h = character_of(k, m, t); the m [j = 0] removes the tensor weight, which
    evaluation omits.  zeta must have order k, its powers zeta^0..zeta^(k-1)
    distinct: a root of lower order moves the points and predicts their
    scaling alike, and would pass vacuously, so it fails before any
    evaluation.  The three windows are one stack of lattice rows with a
    weight per row, walked in column blocks of CHUNK_CELLS cells of points x
    members: a block's labels are one character_of call on its columns, its
    values at the points one evaluation_matrix call, and its values at each
    generator's translates one more call, compared with the scaled values.
    The generators suffice, as apply_group scales each coordinate by a power
    of zeta and the exponent is linear in g.  Raises InsufficientPointsError
    when the prime has no points.
    """
    k, n, p, zeta = params.k, params.n, params.p, params.zeta
    points, _ = sample_points(params, EQUIVARIANCE_POINTS)
    if not len(points):
        raise InsufficientPointsError(f"no affine points over p = {p}")
    powers = [pow(zeta, e, p) for e in range(k)]
    if len(set(powers)) < k:
        return False
    moved = [apply_group(params, points, g) for g in np.eye(n, dtype=int)]
    windows = [_lattice(k, n, m)[0] for m in (1, 2, 3)]
    weight = np.repeat([1, 2, 3], [len(rows) for rows in windows])
    basis = np.concatenate(windows)
    per = max(1, CHUNK_CELLS // len(points))
    for at in range(0, len(basis), per):
        block, m = np.asfortranarray(basis[at:at + per], dtype=np.intp), weight[at:at + per]
        exps = np.column_stack(character_of(k, m, block.T))
        exps[:, 0] -= m
        base = evaluation_matrix(params, points, block)
        if not all(np.array_equal(evaluation_matrix(params, translates, block), base * scale % p)
                   for translates, scale in zip(moved, np.array(powers)[exps.T % k])):
            return False
    return True
