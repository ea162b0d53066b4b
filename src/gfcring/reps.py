"""Character theory of the abelian cover group (Z/kZ)^n.

Group elements and character labels are flat tuples of length n with entries
mod k: component 0 pairs with the exponent of x (plus the tensor weight m),
components 1..n-1 pair with the denominator exponents a.  The character of
the basis element at (r, a) in weight m is ((r + m) mod k, (-a) mod k).

Multiplicities:
  - nu(m, h): copies of the character h in the weight-m differentials;
    counted brute-force on the index window, or by the closed formula.
  - mu(d, h): copies of h in the degree-d part of the polynomial ring,
    summed over the congruence stratum J_h of the d-fold sumset.
  - syzygy(d, h) = mu - nu: copies of h among degree-d relations.
"""

from __future__ import annotations

import itertools
import random

from .curve import apply_group, evaluate_theta, sample_points
from .indexsets import (
    IndexTuple,
    count_partitions,
    enumerate_im,
    enumerate_jd,
    partition_count_table,
    total_degree_d_monomials,
)
from .params import CurveParams, ParameterError


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


def mu_table(k: int, n: int, d: int) -> dict[IndexTuple, int]:
    """All k^n symmetric-power multiplicities via the bulk partition table."""
    vals = {h: 0 for h in all_labels(k, n)}
    for t, cnt in partition_count_table(k, n, d).items():
        vals[character_of(k, d, t)] += cnt
    assert sum(vals.values()) == total_degree_d_monomials(k, n, d)
    return vals


def syzygy_table(k: int, n: int, d: int) -> dict[IndexTuple, int]:
    mu_t = mu_table(k, n, d)
    nu_t = nu_table(k, n, d)
    vals = {}
    for h in all_labels(k, n):
        v = mu_t[h] - nu_t[h]
        assert v >= 0, f"negative relation multiplicity at (k={k}, n={n}, d={d}, h={h})"
        vals[h] = v
    return vals


def check_equivariance(params: CurveParams, trials: int, seed: int = 0) -> bool:
    """Compare the action scalar with the evaluation ratio at random data.

    For random (point, group element, window member) the translate's value
    must equal zeta^(action_exponent - m*e_1) times the original value; the
    m*e_1 correction removes the tensor-factor weight, which evaluation
    omits.  The weight m is drawn from 1..3.
    """
    k, n, p, zeta = params.k, params.n, params.p, params.zeta
    points, _ = sample_points(params, 25)
    if not points:
        raise RuntimeError(f"no affine points over p = {p}")
    rng = random.Random(seed)
    for _ in range(trials):
        m = rng.randint(1, 3)
        basis = enumerate_im(k, n, m).members
        t = basis[rng.randrange(len(basis))]
        g = tuple(rng.randrange(k) for _ in range(n))
        pt = points[rng.randrange(len(points))]
        lhs = evaluate_theta(params, apply_group(params, pt, g), t)
        e = (action_exponent(k, m, t, g) - m * g[0]) % k
        rhs = pow(zeta, e, p) * evaluate_theta(params, pt, t) % p
        if lhs != rhs:
            return False
    return True
