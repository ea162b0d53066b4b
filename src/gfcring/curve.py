"""Affine model of the curve over F_p: points, evaluation, divisors.

A point is (x, y_2, ..., y_n) with lam[j-1] + x^k + y_{j+1}^k = 0 for every
j; points with any y coordinate equal to 0 are branch points and are never
sampled, since evaluation inverts the y's.

Divisors are integer vectors (c_0, c_1, ..., c_n) of coefficients on the
n+1 branch-point classes D_0 (over x = infinity), D_1 (over x = 0) and D_j
(over the j-th branch value); each class consists of k^(n-1) points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .indexsets import IndexTuple, enumerate_im
from .linalg import rank_mod_p_array
from .params import (
    CurveParams,
    ParameterError,
    default_prime_bound,
    dim_vm,
    make_curve_params,
)


class InsufficientPointsError(RuntimeError):
    """The chosen prime does not yield enough affine points; raise the prime."""


@dataclass(frozen=True)
class AffinePoint:
    x: int
    y: tuple[int, ...]  # (y_2, ..., y_n), all nonzero mod p


def is_on_curve(params: CurveParams, pt: AffinePoint) -> bool:
    k, p = params.k, params.p
    xk = pow(pt.x, k, p)
    return all(
        (lam_j + xk + pow(yj, k, p)) % p == 0 and yj % p != 0
        for lam_j, yj in zip(params.lam, pt.y)
    )


def _kth_roots(c: int, k: int, p: int, zeta: int) -> list[int]:
    """All k solutions of Y^k = c, for c a nonzero k-th power residue.

    One root is located by exhaustive scan (p is small by design); the rest
    are its zeta-multiples.
    """
    root = next(y for y in range(1, p) if pow(y, k, p) == c)
    return sorted(root * pow(zeta, t, p) % p for t in range(k))


def sample_points(
    params: CurveParams, count: int
) -> tuple[list[AffinePoint], bool]:
    """Deterministically sample up to `count` points with all y_j nonzero.

    Scans x = 0, 1, 2, ...; for each x every -(lam[j-1] + x^k) must be a
    nonzero k-th power residue (tested by raising to (p-1)/k), and then all
    combinations of the k root choices per coordinate are emitted.  Returns
    (points, shortfall): shortfall is True when the whole field was scanned
    and fewer than `count` points exist.
    """
    k, p, zeta = params.k, params.p, params.zeta
    res_exp = (p - 1) // k
    points: list[AffinePoint] = []
    for x in range(p):
        xk = pow(x, k, p)
        targets = [(-(lam_j + xk)) % p for lam_j in params.lam]
        if any(c == 0 or pow(c, res_exp, p) != 1 for c in targets):
            continue
        root_lists = [_kth_roots(c, k, p, zeta) for c in targets]
        for ys in itertools.product(*root_lists):
            pt = AffinePoint(x, ys)
            assert is_on_curve(params, pt)
            points.append(pt)
            if len(points) == count:
                return points, False
    return points, True


def suitable_params(
    k: int,
    n: int,
    needed_points: int = 0,
    *,
    lam: list[int] | tuple[int, ...] | None = None,
    seed: int | None = None,
    p: int | None = None,
    min_bound: int | None = None,
) -> Iterator[CurveParams]:
    """Yield configurations over increasing primes p = 1 (mod k), each with at
    least `needed_points` affine points.

    The first prime is searched from `min_bound` (default
    default_prime_bound(k, n)), doubling the bound past every prime that
    falls short; each later prime is the next one above its predecessor that
    has enough points.  A pinned `p` is yielded once, or raises
    InsufficientPointsError when it falls short.
    """

    def found(params: CurveParams) -> int:
        # sample_points with count 0 would scan the whole field
        return len(sample_points(params, needed_points)[0]) if needed_points else 0

    if p is not None:
        params = make_curve_params(k, n, lam=lam, seed=seed, p=p)
        have = found(params)
        if have < needed_points:
            raise InsufficientPointsError(
                f"p = {p} yields only {have} points, "
                f"need {needed_points}; pick a larger prime"
            )
        yield params
        return
    bound = min_bound or default_prime_bound(k, n)
    first = True
    while True:
        params = make_curve_params(k, n, lam=lam, seed=seed, min_bound=bound)
        if found(params) >= needed_points:
            yield params
            first = False
        bound = 2 * params.p if first else params.p + 1


def evaluate_theta(params: CurveParams, pt: AffinePoint, t: IndexTuple) -> int:
    """Value of x^r * prod y_j^(-a_j) at the point (tensor factor omitted)."""
    p = params.p
    val = pow(pt.x, t[0], p)
    for yj, aj in zip(pt.y, t[1:]):
        if aj:
            val = val * pow(pow(yj, aj, p), p - 2, p) % p
    return val


def apply_group(params: CurveParams, pt: AffinePoint, g: IndexTuple) -> AffinePoint:
    """Translate the point by the automorphism indexed by g = (e_1, ..., e_n):
    x scales by zeta^(e_1) and y_{j+1} by zeta^(e_{j+1})."""
    if len(g) != params.n:
        raise ParameterError(f"group element {g} has length {len(g)}, expected {params.n}")
    p, zeta = params.p, params.zeta
    x = pt.x * pow(zeta, g[0] % params.k, p) % p
    ys = tuple(
        yj * pow(zeta, e % params.k, p) % p for yj, e in zip(pt.y, g[1:])
    )
    return AffinePoint(x, ys)


# --- divisors ---------------------------------------------------------------

def divisor_of_theta(k: int, n: int, m: int, t: IndexTuple) -> tuple[int, ...]:
    """Divisor coefficients (c_0, ..., c_n) of the m-fold differential at t:
    c_0 = |a| - 2m - r, c_1 = r, c_j = m(k-1) - a_j."""
    if m < 1:
        raise ParameterError(f"need m >= 1, got {m}")
    r, a = t[0], t[1:]
    return (sum(a) - 2 * m - r, r, *(m * (k - 1) - aj for aj in a))


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


# --- rank verification --------------------------------------------------------

def full_rank_oversample(k: int, n: int, m: int) -> int:
    """Point count guaranteeing the m-th evaluation matrix reaches full rank.

    sample_points emits complete x-fibers of k^(n-1) points each.  On a single
    fiber x is constant, so basis elements sharing the same residues a mod k
    collapse; each window [.(k-1), ..] is a run of k consecutive integers, so
    the classes are singletons and a fiber separates exactly the characters.
    Within the class of a fixed a the elements differ only by the contiguous
    exponents r = 0..|a|-2m, and distinct fiber abscissas give a nonsingular
    Vandermonde block, so F complete fibers yield rank sum(min(F, |a|-2m+1)).
    Full rank d_m therefore needs F = max |a| - 2m + 1 = m[(k-1)(n-1)-2] + 1
    fibers -- no fewer, and never more.
    """
    fibers = m * ((k - 1) * (n - 1) - 2) + 1
    return k ** (n - 1) * fibers


def basis_rank_check(params: CurveParams, m: int, oversample: int) -> bool:
    """True iff the (points x basis) evaluation matrix has full rank d_m.

    Raises InsufficientPointsError when fewer than oversample points exist
    over the configured prime.
    """
    d_m = dim_vm(params.k, params.n, m)
    if oversample < d_m:
        raise ParameterError(f"oversample {oversample} below the dimension {d_m}")
    points, shortfall = sample_points(params, oversample)
    if shortfall:
        raise InsufficientPointsError(
            f"only {len(points)} affine points over p = {params.p}, "
            f"wanted {oversample}"
        )
    basis = enumerate_im(params.k, params.n, m)
    mat = np.array(
        [[evaluate_theta(params, pt, t) for t in basis] for pt in points],
        dtype=np.int64,
    )
    return rank_mod_p_array(mat, params.p) == d_m
