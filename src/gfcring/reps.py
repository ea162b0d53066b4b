"""Character theory of the abelian cover group (Z/kZ)^n.

Group elements and character labels are flat tuples of length n with entries
mod k: component 0 pairs with the exponent of x (plus the tensor weight m),
components 1..n-1 pair with the denominator exponents a.  The character of
the basis element at (r, a) in weight m is ((r + m) mod k, (-a) mod k).

Multiplicities:
  - nu(m, h): copies of the character h in the weight-m differentials;
    counted brute-force on the index window, or by the closed formula.
  - mu(d, h): copies of h in Sym^d of the degree-1 characters (characters
    add under multiplication); mu_table works in the group ring of (Z/k)^n,
    mu counts partitions over the stratum J_h of the d-fold sumset.
  - syzygy(d, h) = mu - nu: copies of h among degree-d relations.

check_equivariance tests character_of on the generators' action through
curve.evaluation_matrix; action_exponent is the tests' scalar reference.
"""

from __future__ import annotations

import itertools

import numpy as np

from .curve import InsufficientPointsError, apply_group, evaluation_matrix, sample_points
from .indexsets import (
    IndexTuple,
    count_partitions,
    enumerate_im,
    enumerate_jd,
    total_degree_d_monomials,
)
from .params import CurveParams, ParameterError, dim_vm


def action_exponent(k: int, m: int, t: IndexTuple, g: IndexTuple) -> int:
    """Exponent of zeta by which the automorphism g scales the weight-m
    element at t: e_1 (r + m) - a . e, reduced mod k."""
    if len(g) != len(t):
        raise ParameterError(f"length mismatch: t={t}, g={g}")
    return (g[0] * (t[0] + m) - sum(aj * ej for aj, ej in zip(t[1:], g[1:]))) % k


def character_of(k: int, m: int, t: IndexTuple) -> IndexTuple:
    """Label h with action_exponent(k, m, t, g) = h . g for all g."""
    return ((t[0] + m) % k, *((-aj) % k for aj in t[1:]))


def all_labels(k: int, n: int) -> list[IndexTuple]:
    return [t for t in itertools.product(range(k), repeat=n)]


def nu_closed(k: int, n: int, m: int, h: IndexTuple) -> int:
    """Closed-form multiplicity of the character h in weight m.

    The count reduces to the number of multiples of k in an interval whose
    endpoints involve the residues; that derivation divides r + m by k with
    a nonnegative quotient, so the leading residue must be taken in the
    window [m, m + k) (the trailing residues stay in [0, k)).  Labels whose
    interval is empty come out negative and are clamped to 0.  Validated
    exhaustively against nu_table(..., closed=False).
    """
    if m < 1:
        raise ParameterError(f"need m >= 1, got {m}")
    h1 = h[0] % k
    while h1 < m:
        h1 += k
    rest = [hj % k for hj in h[1:]]
    tot = h1 + sum(rest)
    ceil_term = -((-(tot + m)) // k)  # ceil((tot + m) / k) with exact ints
    val = (n - 1) * (m - 1) - ceil_term - sum((m - 1 - hj) // k for hj in rest) + 1
    return max(0, val)


def mu(k: int, n: int, d: int, h: IndexTuple) -> int:
    """Multiplicity of h in the degree-d part of the polynomial ring:
    total number of degree-d monomials whose index-sum lies in J_h."""
    return sum(count_partitions(k, n, d, t) for t in enumerate_jd(k, n, d, h))


def syzygy_multiplicity(k: int, n: int, d: int, h: IndexTuple) -> int:
    """mu - nu in degree d; the number of independent degree-d relations
    transforming by h.  Always nonnegative."""
    val = mu(k, n, d, h) - nu_closed(k, n, d, h)
    assert val >= 0, f"negative relation multiplicity at (k={k}, n={n}, d={d}, h={h})"
    return val


def nu_table(k: int, n: int, m: int, closed: bool = True) -> dict[IndexTuple, int]:
    """All k^n multiplicities at once, keyed by label in all_labels order.

    closed=False buckets the window members by character in a single pass
    (the brute-force route); closed=True evaluates the formula per label.
    """
    if closed:
        vals = {h: nu_closed(k, n, m, h) for h in all_labels(k, n)}
    else:
        vals = {h: 0 for h in all_labels(k, n)}
        for t in enumerate_im(k, n, m):
            vals[character_of(k, m, t)] += 1
    return vals


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
    m = d - i0 (mod k).  Every partial sum is nonnegative and at most
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
    chars = np.array([character_of(k, 1, t) for t in enumerate_im(k, n, 1)],
                     dtype=np.int64).reshape(-1, n)
    psi = [np.bincount(np.ravel_multi_index((i * chars % k).T, (k,) * n),
                       minlength=k ** n).reshape(k, -1) for i in range(k)]
    diff = _cayley_difference(k, n - 1)
    h = np.eye(1, k ** n, dtype=np.int64).reshape(k, -1)  # the identity, h_0
    sums = [np.zeros_like(h) for _ in range(k)]  # sums[s]: h_m over m < j, m = s mod k
    for j in range(1, d + 1):
        sums[(j - 1) % k] += h
        h = sum(_convolve(psi[i % k], sums[(j - i) % k], diff)
                for i in range(1, min(j, k) + 1)) // j
    vals = dict(zip(all_labels(k, n), h.ravel().tolist()))
    assert sum(vals.values()) == total_degree_d_monomials(k, n, d)
    return vals


def syzygy_table(k: int, n: int, d: int) -> dict[IndexTuple, int]:
    """mu - nu for every label, unchecked: a negative count is left for the
    callers to report (syzygy_multiplicity asserts it per label)."""
    mu_t, nu_t = mu_table(k, n, d), nu_table(k, n, d)
    return {h: mu_t[h] - nu_t[h] for h in all_labels(k, n)}


def check_equivariance(params: CurveParams) -> bool:
    """True iff character_of gives the geometric action on every window member
    t of weights m = 1..3: at 25 points, translating by the generator e_j
    scales the value by zeta^(h_j - m [j = 0]), h = character_of(k, m, t);
    the m [j = 0] removes the tensor weight, which evaluation omits.  The
    generators suffice, as apply_group scales each coordinate by a power of
    zeta and the exponent is linear in g.  Raises InsufficientPointsError
    when the prime has no points.
    """
    k, n, p, zeta = params.k, params.n, params.p, params.zeta
    points, _ = sample_points(params, 25)
    if not points:
        raise InsufficientPointsError(f"no affine points over p = {p}")
    moved = [apply_group(params, pt, g) for g in np.eye(n, dtype=int).tolist()
             for pt in points]
    basis = [(m, t) for m in (1, 2, 3) for t in enumerate_im(k, n, m)]
    vals = evaluation_matrix(params, points + moved, [t for _, t in basis])
    vals = vals.reshape(n + 1, len(points), len(basis))
    exps = np.array([character_of(k, m, t) for m, t in basis]).reshape(-1, n)
    exps[:, 0] -= [m for m, _ in basis]
    scale = np.array([pow(zeta, e, p) for e in range(k)], dtype=np.int64)[exps % k]
    return all(np.array_equal(vals[j + 1], vals[0] * scale[:, j] % p) for j in range(n))
