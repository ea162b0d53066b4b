"""Affine model of the curve over F_p: points, evaluation, divisors.

A point is a row (x, y_2, ..., y_n) of a (P, n) int64 array, with
lam[j-1] + x^k + y_{j+1}^k = 0 for every j; points with any y coordinate
equal to 0 are branch points and are never sampled, since evaluation inverts
the y's.  evaluation_matrix is the one evaluation kernel: the basis rank
checks, the degree-2 point check and the equivariance check all use it.

Divisors are integer vectors (c_0, c_1, ..., c_n) of coefficients on the
n+1 branch-point classes D_0 (over x = infinity), D_1 (over x = 0) and D_j
(over the j-th branch value); each class consists of k^(n-1) points.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
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


def _pow_mod(base: np.ndarray, e: int, p: int) -> np.ndarray:
    """base^e mod p elementwise, by square and multiply in int64: exact while
    p^2 < 2^62, as every factor is reduced below p."""
    out, base = np.ones_like(base), base % p
    while e:
        if e & 1:
            out = out * base % p
        base, e = base * base % p, e >> 1
    return out


@lru_cache(maxsize=16)
def _root_constants(r: int, p: int) -> tuple[int, int, int, dict[int, int]]:
    """(s, alpha, rho^t, log_a) of _rth_root for the prime r dividing p - 1,
    found once per (r, p): the non-residue rho is searched from 2 upwards."""
    s, t = 0, p - 1
    while t % r == 0:
        s, t = s + 1, t // r
    rho = next(g for g in range(2, p) if pow(g, (p - 1) // r, p) != 1)
    a = pow(rho, t * r ** (s - 1), p)
    return s, pow(r, -1, t), pow(rho, t, p), {pow(a, j, p): j for j in range(r)}


def _rth_root(c: int, r: int, p: int) -> int:
    """One solution of Y^r = c, for a prime r dividing p - 1 and c a nonzero
    r-th power residue (Adleman-Manders-Miller).

    With p - 1 = r^s * t and r not dividing t, c^alpha (alpha = r^-1 mod t)
    is a root up to an error in the order-r^s subgroup, which a non-residue
    rho generates as rho^t; the error is cancelled one r-adic digit at a time,
    each digit a discrete log among the r powers of an element of order r.
    """
    s, alpha, g, log_a = _root_constants(r, p)
    # Invariant: err * h^-r is the error c^(r*alpha - 1), and err has order
    # dividing r^(s-i) before step i.
    err, h = pow(c, r * alpha - 1, p), 1
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


def sample_points(params: CurveParams, count: int) -> tuple[np.ndarray, bool]:
    """Deterministically sample up to `count` points with all y_j nonzero
    (every point of the field when count < 1), as a read-only C-ordered
    (P, n) int64 array of rows (x, y_2, ..., y_n).

    Scans x = 0, 1, 2, ... in blocks of SCAN_BLOCK; an x is kept when every
    -(lam[j-1] + x^k) is a nonzero k-th power residue (its (p-1)/k-th power
    is 1), and then all combinations of the k root choices per coordinate
    are emitted.  Returns (points, shortfall): shortfall is True when the
    whole field was scanned and fewer than `count` points exist.  The scan of
    each of the last few curves is kept and resumed, so a request is a prefix
    of one scan.  Raises ParameterError before the scan when p^2 >= 2^62,
    where the scan's int64 powers and evaluation_matrix would wrap, or when
    the k^(n-1) root choices of an x-fiber take 2^63 bytes or more.
    """
    require_int64_prime(params.p)
    k, n = params.k, params.n
    if (n - 1) * k ** (n - 1) * np.dtype(np.intp).itemsize >= 1 << 63:
        raise ParameterError(f"the {k}^{n - 1} points of an x-fiber of curve ({k}, {n}) "
                             "need 2^63 bytes or more")
    blocks, scan = _scans(params)
    while count < 1 or sum(map(len, blocks)) < count:
        if (block := next(scan, None)) is None:
            break
        blocks.append(block)
    if len(blocks) > 1:
        blocks[:] = [np.concatenate(blocks)]
        blocks[0].flags.writeable = False
    points = blocks[0][:count] if count > 0 else blocks[0]
    return points, len(points) < count


@lru_cache(maxsize=4)
def _scans(params: CurveParams) -> tuple[list[np.ndarray], Iterator[np.ndarray]]:
    """([the points scanned so far, in one array], the rest of the scan) of
    one curve."""
    return [np.empty((0, params.n), dtype=np.int64)], _scan(params)


# The x values that one step of the point scan tests at once.
SCAN_BLOCK = 1 << 10


def _scan(params: CurveParams) -> Iterator[np.ndarray]:
    """The points in sample_points' order, one (Q, n) array for each block
    of x that keeps any.  The k-th roots are taken for the accepted x alone,
    each x-fiber is laid out in itertools.product order of its roots, and
    the block is asserted on the curve as one array."""
    k, n, p, zeta = params.k, params.n, params.p, params.zeta
    lam = np.array([v % p for v in params.lam], dtype=np.int64)
    pick = np.indices((k,) * (n - 1)).reshape(n - 1, -1).T  # a fiber's root choices
    for lo in range(0, p, SCAN_BLOCK):
        x = np.arange(lo, min(lo + SCAN_BLOCK, p), dtype=np.int64)
        xk = _pow_mod(x, k, p)
        targets = -(lam[:, None] + xk) % p
        # a zero target fails too: its power is 0, as (p-1)/k >= 1
        keep = np.all(_pow_mod(targets, (p - 1) // k, p) == 1, axis=0)
        if not keep.any():
            continue
        roots = np.array([[_kth_roots(c, k, p, zeta) for c in cs]
                          for cs in targets[:, keep].T.tolist()], dtype=np.int64)
        ys = roots[:, np.arange(n - 1), pick]  # (x, fiber point, coordinate)
        assert np.all(ys % p != 0) and not np.any(
            (lam + xk[keep, None, None] + _pow_mod(ys, k, p)) % p)
        yield np.column_stack((np.repeat(x[keep], len(pick)), ys.reshape(-1, n - 1)))


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
    params: CurveParams, points: np.ndarray, rows: np.ndarray | Sequence[IndexTuple]
) -> np.ndarray:
    """C-ordered int64 (points x rows) matrix of the values
    x^r * prod y_j^(-a_j) mod p (tensor factor omitted) at (P, n) points
    (x, y_2, ..., y_n) and (F, n) basis rows (r, a_2, ..., a_n).

    Builds power tables of x^r and of y_j^(-a), with one Fermat inverse per
    point and coordinate, and gathers one table column per basis element,
    reducing mod p after every product.  Entries stay below p, so each
    product is exact while p^2 < 2^62.  The basis is read a coordinate at a
    time, from its intp transpose: intp rows in Fortran order are that
    exponent table already, so a caller that evaluates one basis at many
    blocks of points builds it once with np.asfortranarray.
    """
    p, width = params.p, params.n
    require_int64_prime(p)
    exps = np.ascontiguousarray(np.asarray(rows, dtype=np.intp).reshape(-1, width).T)
    points = np.asarray(points, dtype=np.int64).reshape(-1, width)
    inv = _pow_mod(points[:, 1:], p - 2, p)

    def powers(base: np.ndarray, top: int) -> np.ndarray:
        """Columns base^0, ..., base^top mod p."""
        table = np.ones((base.size, top + 1), dtype=np.int64)
        for e in range(1, top + 1):
            table[:, e] = table[:, e - 1] * base % p
        return table

    top = exps.max(axis=1, initial=0).tolist()
    out = np.take(powers(points[:, 0] % p, top[0]), exps[0], axis=1)
    for j in range(1, width):
        out *= np.take(powers(inv[:, j - 1], top[j]), exps[j], axis=1)
        out %= p
    return np.ascontiguousarray(out)


def apply_group(params: CurveParams, points: np.ndarray, g: IndexTuple) -> np.ndarray:
    """Translate (P, n) points by the automorphism indexed by g = (e_1, ..., e_n):
    column j scales by zeta^(e_j), so x by zeta^(e_1) and y_{j+1} by
    zeta^(e_{j+1})."""
    if len(g) != params.n:
        raise ParameterError(f"group element {g} has length {len(g)}, expected {params.n}")
    p, zeta = params.p, params.zeta
    scale = np.array([pow(zeta, int(e) % params.k, p) for e in g], dtype=np.int64)
    return np.asarray(points, dtype=np.int64) % p * scale % p


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
    exponents r = 0..|a|-2m, so on one point per fiber the class is the block
    diag(w) V: w_f = prod y_j^(-a_j) is nonzero and V is the Vandermonde
    matrix of the distinct fiber abscissas.  F complete fibers therefore yield
    rank sum(min(F, |a|-2m+1)), which basis_rank_check certifies from that
    structure.  Full rank d_m therefore needs F = max |a| - 2m + 1 =
    m[(k-1)(n-1)-2] + 1 fibers -- no fewer, and never more.
    """
    fibers = m * ((k - 1) * (n - 1) - 2) + 1
    return k ** (n - 1) * fibers


# Cells per stack of the evaluation blocks that fail their certificate in
# basis_rank_check, which a passing check never forms.  2^14 ranked all 64
# classes at (4,4), m = 3, in two stacks, and `verify --k 6 --n 4 --seed 1`
# peaked at 59.5 MB with it, as with 2^12; 2^16 raised that check's peak RSS
# by 0.7 MB (2 vCPUs, Python 3.11, numpy 2.4).
BASIS_STACK_CELLS = 1 << 14


def basis_rank_check(params: CurveParams, m: int, oversample: int) -> bool:
    """True iff the weight-m basis evaluated at `oversample` points has rank d_m.

    The rank is _basis_rank's: certified class by class, and eliminated only
    where a class fails its certificate.  Raises ParameterError when
    oversample is below d_m or not a whole number of fibers, and
    InsufficientPointsError when the prime has fewer points.
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
    return _basis_rank(params, m, points) == d_m


def _basis_rank(params: CurveParams, m: int, points: np.ndarray) -> int:
    """Rank over F_p of the weight-m basis evaluated at (P, n) points that
    form complete x-fibers, in sample_points' layout.

    The fibers' rows split by the class of a mod k (see full_rank_oversample);
    within a class all points of a fiber give one row up to scalars.  So the
    rank is a sum over the classes, each taken on one point per fiber, and a
    class is certified to be diag(w) V, of rank min(F, width), when
    - it has exactly one r = 0 column, with no zero entry (w);
    - every other column's (r - 1, a) column is in the basis and equals that
      column times x mod p, so the class is one a with r = 0..width-1;
    - the F fiber abscissas ascend, so they are distinct; only a class of
      width >= 2 needs this.  sample_points' fibers ascend, and the test
      needs no sort: a process's first np.sort raised the peak RSS of this
      check by 0.37 MB (numpy 2.4).
    Only the classes that fail are eliminated: one (F x widest failing
    class) block each, a short one padded with zero columns, which add no
    rank, ranked as ranks_mod_p stacks within BASIS_STACK_CELLS cells.
    """
    k, n, p = params.k, params.n, params.p
    fiber = k ** (n - 1)
    assert np.all(points[:, 0].reshape(-1, fiber) == points[::fiber, :1])  # one x per fiber
    basis, keys, dims = _lattice(k, n, m)
    firsts = evaluation_matrix(params, points[::fiber], basis)
    x = points[::fiber, 0] % p
    cls = np.ravel_multi_index((basis[:, 1:] % k).T, (k,) * (n - 1))
    size = np.bincount(cls, minlength=fiber)
    # The certificate, column by column: at r = 0 no zero entry, above it
    # one x-step from the (r - 1, a) column.
    root = basis[:, 0] == 0
    down = keys - prod(dims[1:])
    prev = np.searchsorted(keys, down)
    stepped = firsts.take(prev, axis=1, mode="clip")
    stepped *= x[:, None]
    stepped %= p
    ok = np.where(root, np.all(firsts != 0, axis=0),
                  (keys.take(prev, mode="clip") == down) & np.all(stepped == firsts, axis=0))
    failed = (np.bincount(cls[~ok], minlength=fiber) > 0) | (
        np.bincount(cls[root], minlength=fiber) != np.minimum(size, 1))
    if not np.all(x[1:] > x[:-1]):  # sample_points' fibers ascend in x
        failed |= size > 1
    rank = int(np.minimum(size[~failed], len(x)).sum())
    if not failed.any():
        return rank
    # A row of column indices per failing class, in basis order; len(basis)
    # names the zero column appended to firsts.
    order = np.argsort(cls, kind="stable")
    table = np.full((fiber, size.max()), len(basis))
    table[cls[order], np.arange(len(basis)) - np.repeat(np.cumsum(size) - size, size)] = order
    table = table[failed, :size[failed].max()]
    firsts = np.pad(firsts, ((0, 0), (0, 1)))
    per = max(1, BASIS_STACK_CELLS // max(table.shape[1] * len(firsts), 1))
    return rank + sum(int(ranks_mod_p(firsts[:, table[at:at + per]].transpose(1, 0, 2), p).sum())
                      for at in range(0, len(table), per))
