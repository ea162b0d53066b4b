"""Curve parameters, genus/Hilbert numbers, and the exact mod-p arithmetic setup.

A curve in this family is cut out by the simultaneous affine equations

    lam[j-1] + x^k + y_{j+1}^k = 0        for j = 1, ..., n-1,

with lam[0] = 1 and the remaining lam values pairwise distinct and outside
{0, 1}.  All arithmetic happens in F_p for a prime p = 1 (mod k), which
guarantees a primitive k-th root of unity zeta; integer dimension counts are
field-independent, and callers that want extra safety rerun rank computations
over a second prime.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass


class ParameterError(ValueError):
    """Raised when (k, n), lambda values, or the prime violate the domain."""


def _check_kn(k: int, n: int) -> None:
    if k < 2 or n < 2:
        raise ParameterError(f"need k, n >= 2, got (k, n) = ({k}, {n})")


def genus(k: int, n: int) -> int:
    """Genus of the curve: 1 + (k^(n-1)/2) * ((k-1)(n-1) - 2).

    Requires (k-1)(n-1) > 1 so the formula is in its valid range; the
    halved product is asserted to be an integer.
    """
    _check_kn(k, n)
    if (k - 1) * (n - 1) <= 1:
        raise ParameterError(f"(k-1)(n-1) must exceed 1, got (k, n) = ({k}, {n})")
    num = k ** (n - 1) * ((k - 1) * (n - 1) - 2)
    assert num % 2 == 0, "genus formula produced a non-integer"
    return 1 + num // 2


def dim_vm(k: int, n: int, m: int) -> int:
    """Dimension of the space of holomorphic m-differentials.

    Equals g for m = 1 and (2m-1)(g-1) for m >= 2.
    """
    if m < 1:
        raise ParameterError(f"need m >= 1, got m = {m}")
    g = genus(k, n)
    if m == 1:
        return g
    return (2 * m - 1) * (g - 1)


def is_nonhyperelliptic(k: int, n: int) -> bool:
    _check_kn(k, n)
    return (k - 1) * (n - 1) > 2


def require_nonhyperelliptic(k: int, n: int) -> None:
    if not is_nonhyperelliptic(k, n):
        raise ParameterError(
            f"(k-1)(n-1) = {(k - 1) * (n - 1)} <= 2: curve ({k}, {n}) is outside "
            "the non-hyperelliptic regime this package handles"
        )


# --- prime field plumbing ---------------------------------------------------

# Miller-Rabin with the first twelve primes as bases decides primality
# exactly below MILLER_RABIN_BOUND, the least strong pseudoprime to all of them.
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MILLER_RABIN_BOUND = 318665857834031151167461


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test; a p at or above MILLER_RABIN_BOUND,
    where these bases no longer decide, raises ParameterError."""
    if p >= MILLER_RABIN_BOUND:
        raise ParameterError(f"p = {p} is not below {MILLER_RABIN_BOUND}, the bound "
                             "up to which primality is decided exactly")
    if p < 2 or any(p % q == 0 for q in MILLER_RABIN_BASES):
        return p in MILLER_RABIN_BASES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # p is a strong probable prime to base a: a^d = 1, or a^(d 2^r) = -1 for an r < s
    return all(pow(a, d, p) == 1 or any(pow(a, d << r, p) == p - 1 for r in range(s))
               for a in MILLER_RABIN_BASES)


def _pollard_rho(x: int) -> int:
    """A nontrivial factor of the odd composite x (Floyd's cycle search)."""
    for c in itertools.count(1):
        a = b = 2
        d = 1
        while d == 1:
            a = (a * a + c) % x
            b = (b * b + c) % x
            b = (b * b + c) % x
            d = math.gcd(a - b, x)
        if d != x:
            return d


def _prime_factors(x: int) -> list[int]:
    """The distinct prime factors of x >= 1, in increasing order: trial
    division by the integers below 1000, then Pollard's rho on the cofactor,
    split until every part passes is_prime."""
    out = set()
    for f in range(2, 1000):
        if x % f == 0:
            out.add(f)
            while x % f == 0:
                x //= f
    parts = [x] if x > 1 else []
    while parts:
        y = parts.pop()
        if is_prime(y):
            out.add(y)
        else:
            d = _pollard_rho(y)
            parts += [d, y // d]
    return sorted(out)


def least_primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group of F_p."""
    if p == 2:
        return 1
    factors = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise AssertionError(f"no primitive root found mod {p}")  # unreachable for prime p


def find_prime_and_root(k: int, min_bound: int) -> tuple[int, int]:
    """Smallest prime p >= min_bound with p = 1 (mod k), and a root of unity.

    The returned zeta is gamma^((p-1)/k) for the least primitive root gamma,
    so it has exact multiplicative order k.
    """
    if k < 2:
        raise ParameterError(f"need k >= 2, got k = {k}")
    if min_bound < k:
        raise ParameterError(f"need min_bound >= k, got {min_bound} < {k}")
    p = min_bound
    while not (is_prime(p) and p % k == 1):
        p += 1
    zeta = pow(least_primitive_root(p), (p - 1) // k, p)
    assert pow(zeta, k, p) == 1
    return p, zeta


def default_prime_bound(k: int, n: int) -> int:
    return max(10 * k * n, 101)


@dataclass(frozen=True)
class CurveParams:
    """Validated configuration: curve (k, n), its lambda vector, and F_p data.

    lam has length n-1 with lam[0] = 1; lam[j-1] is the constant in the
    equation tying x to y_{j+1}.  zeta has exact order k in F_p*.
    """

    k: int
    n: int
    lam: tuple[int, ...]
    p: int
    zeta: int

    @property
    def genus(self) -> int:
        return genus(self.k, self.n)

    @property
    def plane_quintic(self) -> bool:
        return (self.k, self.n) == (5, 2)


def make_curve_params(
    k: int,
    n: int,
    lam: list[int] | tuple[int, ...] | None = None,
    seed: int | None = None,
    p: int | None = None,
    min_bound: int | None = None,
) -> CurveParams:
    """Validate everything and assemble a CurveParams.

    Exactly one of `lam` (explicit values, lam[0] must be 1) and `seed`
    (deterministic draw from F_p minus {0, 1}) picks the lambda vector; n = 2
    needs neither since the vector is just (1,).  Pass `p` to pin the prime,
    otherwise the smallest suitable prime above `min_bound` (default
    max(10kn, 101)) is used.
    """
    require_nonhyperelliptic(k, n)

    if p is not None and not is_prime(p):
        raise ParameterError(f"p = {p} is not prime")
    if p is not None and p % k != 1:
        raise ParameterError(f"p = {p} is not 1 mod k = {k}")
    p, zeta = find_prime_and_root(k, p or min_bound or default_prime_bound(k, n))

    n_free = n - 2  # lambda values beyond the fixed leading 1
    if lam is not None and seed is not None:
        raise ParameterError("pass an explicit lambda vector or a seed, not both")
    if lam is not None:
        lam_t = tuple(int(v) % p for v in lam)
        if len(lam_t) != n - 1:
            raise ParameterError(
                f"lambda vector must have length n-1 = {n - 1}, got {len(lam_t)}"
            )
        if lam_t[0] != 1:
            raise ParameterError(f"leading lambda must be 1, got {lam_t[0]}")
        for v in lam_t[1:]:
            if v in (0, 1):
                raise ParameterError(f"lambda value {v} lies in the forbidden set {{0, 1}}")
        if len(set(lam_t)) != len(lam_t):
            raise ParameterError(f"lambda values must be pairwise distinct, got {lam_t}")
    else:
        if p - 2 < n_free:
            raise ParameterError(f"p = {p} is too small to draw {n_free} distinct "
                                 "lambda values outside {0, 1}")
        rng = random.Random(seed if seed is not None else 0)
        chosen: list[int] = []
        while len(chosen) < n_free:
            v = rng.randrange(2, p)
            if v not in chosen:
                chosen.append(v)
        lam_t = (1, *chosen)

    return CurveParams(k=k, n=n, lam=lam_t, p=p, zeta=zeta)
