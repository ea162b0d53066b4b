"""Affine model of the curve over F_p: points, evaluation, divisors.

A point is (x, y_2, ..., y_n) with lam[j-1] + x^k + y_{j+1}^k = 0 for every
j; points with any y coordinate equal to 0 are branch points and are never
sampled, since evaluation inverts the y's.  evaluation_matrix is the one
evaluation kernel: the basis rank checks, the degree-2 point check and the
equivariance check all use it.

Divisors are integer vectors (c_0, c_1, ..., c_n) of coefficients on the
n+1 branch-point classes D_0 (over x = infinity), D_1 (over x = 0) and D_j
(over the j-th branch value); each class consists of k^(n-1) points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .indexsets import IndexTuple, _lattice
from .linalg import ranks_mod_p, require_int64_prime
from .params import (
    CurveParams,
    ParameterError,
    default_prime_bound,
    dim_vm,
    make_curve_params,
)


class InsufficientPointsError(RuntimeError):
    """The chosen prime does not yield enough affine points; raise the prime."""


@dataclass(frozen=True, slots=True)
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


def _rth_root(c: int, r: int, p: int) -> int:
    """One solution of Y^r = c, for a prime r dividing p - 1 and c a nonzero
    r-th power residue (Adleman-Manders-Miller).

    With p - 1 = r^s * t and r not dividing t, c^alpha (alpha = r^-1 mod t)
    is a root up to an error in the order-r^s subgroup, which a non-residue
    rho generates as rho^t; the error is cancelled one r-adic digit at a time,
    each digit a discrete log among the r powers of an element of order r.
    """
    s, t = 0, p - 1
    while t % r == 0:
        s, t = s + 1, t // r
    rho = next(g for g in range(2, p) if pow(g, (p - 1) // r, p) != 1)
    alpha = pow(r, -1, t)
    a = pow(rho, t * r ** (s - 1), p)
    log_a = {pow(a, j, p): j for j in range(r)}
    # Invariant: err * h^-r is the error c^(r*alpha - 1), and err has order
    # dividing r^(s-i) before step i.
    err, g, h = pow(c, r * alpha - 1, p), pow(rho, t, p), 1
    for i in range(1, s):
        j = -log_a[pow(err, r ** (s - 1 - i), p)] % r
        gr = pow(g, r, p)
        err, h, g = err * pow(gr, j, p) % p, h * pow(g, j, p) % p, gr
    return pow(c, alpha, p) * h % p


def _kth_roots(c: int, k: int, p: int, zeta: int) -> list[int]:
    """All k solutions of Y^k = c, for c a nonzero k-th power residue.

    One root is taken as a chain of prime-degree roots, one per prime factor
    of k with multiplicity; every intermediate value is again a residue of
    the remaining degree, since F_p holds the k-th roots of unity.  The rest
    are its zeta-multiples.
    """
    root, rest, r = c, k, 2
    while rest > 1:  # trial division: each r that divides rest is prime
        while rest % r == 0:
            root, rest = _rth_root(root, r, p), rest // r
        r += 1
    return sorted(root * pow(zeta, t, p) % p for t in range(k))


def sample_points(
    params: CurveParams, count: int
) -> tuple[list[AffinePoint], bool]:
    """Deterministically sample up to `count` points with all y_j nonzero
    (every point of the field when count < 1).

    Scans x = 0, 1, 2, ...; for each x every -(lam[j-1] + x^k) must be a
    nonzero k-th power residue (tested by raising to (p-1)/k), and then all
    combinations of the k root choices per coordinate are emitted.  Returns
    (points, shortfall): shortfall is True when the whole field was scanned
    and fewer than `count` points exist.  The scan of each of the last few
    curves is kept and resumed, so a request is a prefix of one scan, copied.
    Raises ParameterError before the scan when p^2 >= 2^62, where
    evaluation_matrix would reject the points.
    """
    require_int64_prime(params.p)
    points, scan = _scans(params)
    points.extend(itertools.islice(scan, max(count - len(points), 0)) if count > 0 else scan)
    points = points[:count] if count > 0 else points[:]
    return points, len(points) < count


@lru_cache(maxsize=4)
def _scans(params: CurveParams) -> tuple[list[AffinePoint], Iterator[AffinePoint]]:
    """(the points scanned so far, the rest of the scan) of one curve."""
    return [], _scan(params)


def _scan(params: CurveParams) -> Iterator[AffinePoint]:
    k, p, zeta = params.k, params.p, params.zeta
    res_exp = (p - 1) // k
    for x in range(p):
        xk = pow(x, k, p)
        targets = [(-(lam_j + xk)) % p for lam_j in params.lam]
        if any(c == 0 or pow(c, res_exp, p) != 1 for c in targets):
            continue
        root_lists = [_kth_roots(c, k, p, zeta) for c in targets]
        for ys in itertools.product(*root_lists):
            pt = AffinePoint(x, ys)
            assert is_on_curve(params, pt)
            yield pt


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
    default_prime_bound(k, n)), but never below n or k: a seeded lambda draw
    needs p >= n.  The bound doubles past every prime that falls short; each
    later prime is the next one above its predecessor that has enough points.
    A pinned `p` is yielded once, or raises InsufficientPointsError when it
    falls short.  When points are needed, a pinned prime or first bound with
    p^2 >= 2^62, which sampling rejects, raises ParameterError at once.
    """

    def found(params: CurveParams) -> int:
        # sample_points with count 0 would scan the whole field
        return len(sample_points(params, needed_points)[0]) if needed_points else 0

    if min_bound is None:
        min_bound = default_prime_bound(k, n)
    bound = p if p is not None else max(min_bound, n, k)
    if needed_points:
        require_int64_prime(bound)  # before any primality test at this size
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
    first = True
    while True:
        params = make_curve_params(k, n, lam=lam, seed=seed, min_bound=bound)
        if found(params) >= needed_points:
            yield params
            first = False
        bound = 2 * params.p if first else params.p + 1


def evaluation_matrix(
    params: CurveParams, points: list[AffinePoint], basis: Sequence[IndexTuple]
) -> np.ndarray:
    """C-ordered int64 (points x basis) matrix of the values
    x^r * prod y_j^(-a_j) mod p (tensor factor omitted).

    Builds power tables of x^r and of y_j^(-a), with one Fermat inverse per
    point and coordinate, and gathers one table column per basis element,
    reducing mod p after every product.  Entries stay below p, so each
    product is exact while p^2 < 2^62.
    """
    p, width = params.p, params.n
    require_int64_prime(p)
    exps = np.array(basis, dtype=np.intp).reshape(-1, width)
    xs = np.array([pt.x % p for pt in points], dtype=np.int64)
    inv = np.array(
        [[pow(yj, p - 2, p) for yj in pt.y] for pt in points], dtype=np.int64
    ).reshape(-1, width - 1)

    def powers(base: np.ndarray, top: int) -> np.ndarray:
        """Columns base^0, ..., base^top mod p."""
        table = np.ones((base.size, top + 1), dtype=np.int64)
        for e in range(1, top + 1):
            table[:, e] = table[:, e - 1] * base % p
        return table

    top = exps.max(axis=0, initial=0)
    out = np.take(powers(xs, int(top[0])), exps[:, 0], axis=1)
    for j in range(1, width):
        out *= np.take(powers(inv[:, j - 1], int(top[j])), exps[:, j], axis=1)
        out %= p
    return np.ascontiguousarray(out)


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


# --- rank verification --------------------------------------------------------

def full_rank_oversample(k: int, n: int, m: int) -> int:
    """Point count guaranteeing the m-th evaluation matrix reaches full rank.

    sample_points emits complete x-fibers of k^(n-1) points each.  On a single
    fiber x is constant and the y's run over zeta-multiples, so a DFT over the
    y-roots splits the fiber's rows by the residues a mod k; each coordinate
    window [(m-1)(k-1), m(k-1)] holds k consecutive integers, so the classes
    are singletons and a fiber separates exactly the characters.
    Within the class of a fixed a the elements differ only by the contiguous
    exponents r = 0..|a|-2m, and distinct fiber abscissas give a nonsingular
    Vandermonde block, so F complete fibers yield rank sum(min(F, |a|-2m+1)).
    Full rank d_m therefore needs F = max |a| - 2m + 1 = m[(k-1)(n-1)-2] + 1
    fibers -- no fewer, and never more.
    """
    fibers = m * ((k - 1) * (n - 1) - 2) + 1
    return k ** (n - 1) * fibers


# Cells per stack of evaluation blocks.  Past 2^14 cells (128 KiB, where
# glibc's malloc turns to mmap) the freed stacks leave the heap fragmented
# for the degree-2 check that follows: (6,4) then peaks at 70.8 MB, not 66.0.
BASIS_STACK_CELLS = 1 << 12


def basis_rank_check(params: CurveParams, m: int, oversample: int) -> bool:
    """True iff the weight-m basis evaluated at `oversample` points has rank d_m.

    The points form complete x-fibers, whose rows split by the class of a mod
    k (see full_rank_oversample); within a class all points of a fiber give
    one row up to scalars.  So the rank is a sum over the classes, each taken
    on one point per fiber, and the classes of one size are ranked as one
    ranks_mod_p stack.  Raises ParameterError when oversample is below
    d_m or not a whole number of fibers, and InsufficientPointsError when the
    prime has fewer points.
    """
    k, n, p = params.k, params.n, params.p
    d_m = dim_vm(k, n, m)
    fiber = k ** (n - 1)
    if oversample < d_m:
        raise ParameterError(f"oversample {oversample} below the dimension {d_m}")
    if oversample % fiber:
        raise ParameterError(
            f"oversample {oversample} is not a whole number of {fiber}-point fibers")
    points, shortfall = sample_points(params, oversample)
    if shortfall:
        raise InsufficientPointsError(
            f"only {len(points)} affine points over p = {p}, "
            f"wanted {oversample}"
        )
    assert all(len({pt.x for pt in points[i:i + fiber]}) == 1
               for i in range(0, oversample, fiber))
    basis = _lattice(k, n, m)[0]
    firsts = evaluation_matrix(params, points[::fiber], basis)
    # The columns class by class, the classes ordered by size: stacks of
    # (fibers x size) blocks of one size, each within BASIS_STACK_CELLS.
    cls = np.ravel_multi_index((basis[:, 1:] % k).T, (k,) * (n - 1))
    size = np.bincount(cls)[cls]
    order = np.argsort(size * k ** (n - 1) + cls, kind="stable")
    edges = np.flatnonzero(np.diff(size[order], prepend=0, append=0)).tolist()
    rank = 0
    for lo, hi in itertools.pairwise(edges):
        cols = order[lo:hi].reshape(-1, size[order[lo]])  # a row per class
        per = max(1, BASIS_STACK_CELLS // cols[0].size // len(firsts))
        for at in range(0, len(cols), per):
            rank += int(ranks_mod_p(firsts[:, cols[at:at + per]].transpose(1, 0, 2), p).sum())
    return rank == d_m
