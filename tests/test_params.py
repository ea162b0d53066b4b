"""Genus/dimension formulas, prime-field setup, and parameter validation."""

import pytest

from gfcring.params import (
    MILLER_RABIN_BOUND,
    CurveParams,
    ParameterError,
    default_prime_bound,
    dim_vm,
    find_prime_and_root,
    genus,
    is_nonhyperelliptic,
    is_prime,
    make_curve_params,
    require_nonhyperelliptic,
)

# (k, n) -> genus for every desk-scale curve exercised in this suite.
KNOWN_GENERA = {
    (2, 4): 5,
    (3, 3): 10,
    (4, 2): 3,
    (2, 5): 17,
    (3, 4): 55,
    (4, 3): 33,
    (5, 2): 6,
    (4, 4): 225,
}


def test_genus_frozen_values():
    for (k, n), g in KNOWN_GENERA.items():
        assert genus(k, n) == g


def test_genus_formula_consistency():
    # 2g - 2 = k^(n-1) * ((k-1)(n-1) - 2) must hold exactly.
    for (k, n), g in KNOWN_GENERA.items():
        assert 2 * g - 2 == k ** (n - 1) * ((k - 1) * (n - 1) - 2)


def test_genus_domain_errors():
    with pytest.raises(ParameterError):
        genus(2, 2)  # (k-1)(n-1) = 1
    with pytest.raises(ParameterError):
        genus(1, 5)
    with pytest.raises(ParameterError):
        genus(3, 0)


def test_dim_vm():
    for (k, n), g in KNOWN_GENERA.items():
        assert dim_vm(k, n, 1) == g
        for m in range(2, 7):
            assert dim_vm(k, n, m) == (2 * m - 1) * (g - 1)
    with pytest.raises(ParameterError):
        dim_vm(3, 3, 0)


def test_hilbert_numbers():
    assert genus(3, 3) == 10
    assert tuple(dim_vm(3, 3, m) for m in range(1, 7)) == (10, 27, 45, 63, 81, 99)


def test_nonhyperelliptic_predicate():
    assert is_nonhyperelliptic(3, 3)
    assert is_nonhyperelliptic(2, 4)
    assert not is_nonhyperelliptic(2, 3)  # (k-1)(n-1) = 2
    assert not is_nonhyperelliptic(3, 2)
    with pytest.raises(ParameterError):
        require_nonhyperelliptic(2, 3)
    require_nonhyperelliptic(5, 2)  # plane quintic is allowed here


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert is_prime(101) and is_prime(103) and not is_prime(1)


@pytest.mark.usefixtures("hang_guard")
def test_is_prime_agrees_with_trial_division():
    # a sieve of Eratosthenes marks every n below the size that trial division calls prime
    size = 2 * 10**5
    sieve = bytearray([0, 0]) + bytearray([1]) * (size - 2)
    for f in range(2, int(size**0.5) + 1):
        if sieve[f]:
            sieve[f * f::f] = bytes(len(range(f * f, size, f)))
    assert [n for n in range(size) if is_prime(n)] == [n for n in range(size) if sieve[n]]


@pytest.mark.usefixtures("hang_guard")
def test_is_prime_decides_large_numbers_quickly():
    assert is_prime(4611686018427387847)  # the largest prime below 2^62
    assert is_prime(6000001968000013483)
    assert not is_prime(1000000016000000063)  # 1000000007 * 1000000009
    assert not is_prime(3825123056546413051)  # strong pseudoprime to the bases up to 23
    with pytest.raises(ParameterError, match=str(MILLER_RABIN_BOUND)):
        is_prime(MILLER_RABIN_BOUND)


def exact_order(c, p):
    """The multiplicative order of c mod p, by repeated multiplication."""
    e, power = 1, c % p
    while power != 1:
        e, power = e + 1, power * c % p
    return e


def least_prime_by_scan(k, bound):
    """The first p >= bound that is prime and 1 mod k, one integer at a time."""
    p = bound
    while not (is_prime(p) and p % k == 1):
        p += 1
    return p


def test_find_prime_and_root():
    assert find_prime_and_root(3, 101) == (103, 46)
    assert find_prime_and_root(2, 101) == (101, 100)
    assert find_prime_and_root(4, 160) == (173, 80)
    assert find_prime_and_root(5, 101) == (101, 95)
    for k in (2, 3, 4, 5, 6):
        p, zeta = find_prime_and_root(k, 101)
        assert p % k == 1
        # zeta must have exact order k
        assert pow(zeta, k, p) == 1
        for e in range(1, k):
            assert pow(zeta, e, p) != 1
    with pytest.raises(ParameterError):
        find_prime_and_root(5, 3)


def test_find_prime_and_root_matches_brute_force():
    # p: the integer scan; zeta: the least x >= 2 whose power x^((p-1)/k)
    # has exact order k, the order found by repeated multiplication.
    for k in range(2, 10):
        for bound in range(k, 400):
            p, zeta = find_prime_and_root(k, bound)
            assert p == least_prime_by_scan(k, bound), (k, bound)
            powers = (pow(x, (p - 1) // k, p) for x in range(2, p))
            assert zeta == next(c for c in powers if exact_order(c, p) == k), (k, p)
            assert exact_order(zeta, p) == k


@pytest.mark.usefixtures("hang_guard")
def test_find_prime_and_root_at_large_primes():
    # p - 1 = 6 * 1000000007 * 1000000321 for the second prime; the order
    # of zeta is checked on the divisors of k, and p - 1 is not factored.
    for big in (4611686018427387847, 6000001968000013483):
        for k in range(2, 10):
            p, zeta = find_prime_and_root(k, big)
            assert p == least_prime_by_scan(k, big)
            assert p == big or (big - 1) % k
            assert pow(zeta, k, p) == 1
            assert all(pow(zeta, e, p) != 1 for e in range(1, k))


def test_default_prime_bound():
    assert default_prime_bound(2, 4) == 101
    assert default_prime_bound(3, 4) == 120
    assert default_prime_bound(4, 4) == 160


def test_make_curve_params_defaults():
    pp = make_curve_params(3, 3, p=103)
    assert isinstance(pp, CurveParams)
    assert (pp.k, pp.n, pp.p, pp.zeta) == (3, 3, 103, 46)
    assert pp.lam == (1, 51)  # deterministic seed-0 draw
    assert pp.genus == 10
    assert not pp.plane_quintic


def test_make_curve_params_seeded_draw_is_deterministic():
    a = make_curve_params(3, 4, seed=9)
    b = make_curve_params(3, 4, seed=9)
    c = make_curve_params(3, 4, seed=10)
    assert a.lam == b.lam
    assert a.lam != c.lam
    assert a.lam[0] == 1
    assert len(a.lam) == 3
    assert len(set(a.lam)) == 3
    assert all(v not in (0, 1) for v in a.lam[1:])


def test_make_curve_params_explicit_lambda():
    pp = make_curve_params(3, 3, lam=(1, 51), p=103)
    assert pp.lam == (1, 51)
    # values are reduced mod p
    assert make_curve_params(3, 3, lam=(1, 103 + 51), p=103).lam == (1, 51)


def test_make_curve_params_n2_needs_no_lambda():
    pp = make_curve_params(4, 2)
    assert pp.lam == (1,)
    quintic = make_curve_params(5, 2)
    assert quintic.plane_quintic
    assert not pp.plane_quintic


def test_make_curve_params_validation_errors():
    with pytest.raises(ParameterError):
        make_curve_params(2, 3)  # hyperelliptic regime
    with pytest.raises(ParameterError):
        make_curve_params(3, 3, lam=(1, 5), seed=2, p=103)  # both specs
    with pytest.raises(ParameterError):
        make_curve_params(3, 3, lam=(1, 5, 7), p=103)  # wrong length
    with pytest.raises(ParameterError):
        make_curve_params(3, 3, lam=(2, 5), p=103)  # leading value not 1
    with pytest.raises(ParameterError):
        make_curve_params(3, 3, lam=(1, 0), p=103)  # forbidden value
    with pytest.raises(ParameterError):
        make_curve_params(3, 4, lam=(1, 5, 5), p=103)  # duplicate
    # A value given outside 0..p-1 is named as given, with its residue.
    with pytest.raises(ParameterError, match=r"got 105 \(= 2 mod p = 103\)"):
        make_curve_params(3, 3, lam=(105, 5), p=103)
    with pytest.raises(ParameterError, match=r"value -103 \(= 0 mod p = 103\)"):
        make_curve_params(3, 3, lam=(1, -103), p=103)
    with pytest.raises(ParameterError, match=r"got \(1, 5, 108\) \(= \(1, 5, 5\) mod p"):
        make_curve_params(3, 4, lam=(1, 5, 108), p=103)
    with pytest.raises(ParameterError):
        make_curve_params(3, 3, p=100)  # not prime
    with pytest.raises(ParameterError):
        make_curve_params(3, 3, p=101)  # 101 != 1 mod 3
    with pytest.raises(ParameterError):
        make_curve_params(2, 4, p=3)  # F_3 minus {0, 1} holds one lambda value, not two
    for min_bound in (0, 1):  # 0 is a bound below k, not an unset bound
        with pytest.raises(ParameterError, match="need min_bound >= k"):
            make_curve_params(3, 3, seed=1, min_bound=min_bound)


def test_zeta_has_exact_order_k():
    for (k, n) in KNOWN_GENERA:
        pp = make_curve_params(k, n)
        assert pow(pp.zeta, k, pp.p) == 1
        for e in range(1, k):
            assert pow(pp.zeta, e, pp.p) != 1
