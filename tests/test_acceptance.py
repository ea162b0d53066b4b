"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Every numeric target here was computed by an independent route (brute-force
enumeration, exact linear algebra over two primes, or point evaluation)
before being frozen; nothing is tuned to make a test green.
"""

import json
import random
import time
from itertools import islice
from math import comb

from gfcring.curve import divisor_of_theta, suitable_params
from gfcring.ideal import export_ideal, verify_degree2_kernel
from gfcring.indexsets import (
    count_im,
    enumerate_im,
    standard_set,
    standard_set_identity,
)
from gfcring.params import dim_vm, genus, make_curve_params
from gfcring.reps import (
    all_labels,
    check_equivariance,
    mu_table,
    nu_table,
    syzygy_table,
)
from references import (
    binomial_relations,
    compare_monomials,
    index_sum,
    minkowski_di1_by_tuples,
    parse_ideal_json,
    span_rank_by_character,
    tau,
    trinomial_relations,
)

GRID = [(2, 4), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4), (5, 3), (2, 7)]
KERNEL_CURVES = [(2, 4), (2, 5), (3, 3), (4, 2), (3, 4), (4, 3), (5, 3), (2, 7), (4, 4)]
SPAN_RANKS = {
    (2, 4): 3, (2, 5): 105, (3, 3): 28, (4, 2): 0, (3, 4): 1378,
    (4, 3): 465, (5, 3): 2701, (2, 7): 8001, (4, 4): 24753,
}


def _report(num: int, ok: bool, elapsed: float, bound: float, detail: str) -> None:
    verdict = "PASS" if ok and elapsed < bound else "FAIL"
    print(
        f"[criterion {num}] {verdict} — {detail} ({elapsed:.2f}s, bound {bound:.0f}s)"
    )


def test_criterion_1_genus_and_hilbert_numbers():
    t0 = time.perf_counter()
    ok = genus(2, 4) == 5
    checked = 0
    for k in range(2, 7):
        for n in range(2, 7):
            if (k - 1) * (n - 1) <= 2:
                continue
            for m in range(1, 7):
                ok = ok and count_im(k, n, m) == dim_vm(k, n, m)
                checked += 1
    # independent enumeration route on the desk-scale part of the range
    for (k, n) in GRID:
        for m in (1, 2, 3):
            ok = ok and len(enumerate_im(k, n, m)) == count_im(k, n, m)
    elapsed = time.perf_counter() - t0
    _report(1, ok, elapsed, 5.0, f"genus(2,4)=5; {checked} window counts = d_m")
    assert ok and elapsed < 5.0


def test_criterion_2_multiplicity_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    labels_checked = 0
    for (k, n) in GRID:
        for m in range(1, 5):
            closed = nu_table(k, n, m, closed=True)
            brute = nu_table(k, n, m, closed=False)
            for h in all_labels(k, n):
                ok = ok and closed[h] == brute[h]
                labels_checked += 1
    elapsed = time.perf_counter() - t0
    _report(2, ok, elapsed, 10.0, f"nu closed = brute on {labels_checked} labels")
    assert ok and elapsed < 10.0


def test_criterion_3_character_sum_rules():
    t0 = time.perf_counter()
    ok = True
    for (k, n) in GRID:
        g = dim_vm(k, n, 1)
        for m in range(1, 5):
            ok = ok and sum(nu_table(k, n, m).values()) == dim_vm(k, n, m)
        for d in range(1, 4):
            ok = ok and sum(mu_table(k, n, d).values()) == comb(g + d - 1, d)
    elapsed = time.perf_counter() - t0
    _report(3, ok, elapsed, 30.0, "sum nu = d_m (m<=4), sum mu = C(g+d-1,d) (d<=3)")
    assert ok and elapsed < 30.0


def test_criterion_4_standard_monomial_identity():
    t0 = time.perf_counter()
    ok = True
    details = []
    for (k, n) in GRID:
        ok = ok and standard_set_identity(k, n)
        d2 = dim_vm(k, n, 2)
        ok = ok and len(standard_set(k, n)) == d2
        # ideal-level count: monomials minus the relation-span rank
        pp = make_curve_params(k, n)
        dim_s2 = comb(dim_vm(k, n, 1) + 1, 2)
        span = sum(span_rank_by_character(pp).values())
        ok = ok and dim_s2 - span == d2
        details.append(f"({k},{n}):{dim_s2 - span}")
    elapsed = time.perf_counter() - t0
    _report(4, ok, elapsed, 30.0, "standard counts = |I2|: " + " ".join(details))
    assert ok and elapsed < 30.0


def test_criterion_5_degree2_kernel_two_primes():
    t0 = time.perf_counter()
    ok = True
    details = []
    for (k, n) in KERNEL_CURVES:
        first, second = islice(suitable_params(k, n, 60), 2)
        d2 = dim_vm(k, n, 2)
        for pp in (first, second):
            rep = verify_degree2_kernel(pp)
            ok = ok and rep["passed"]
            ok = ok and rep["phi2_rank"] == d2
            ok = ok and rep["symbolic_kernel_ok"] and rep["point_kernel_ok"]
            ok = ok and rep["points_used"] >= 50
            ok = ok and rep["span_rank"] == rep["dim_s2"] - d2 == SPAN_RANKS[(k, n)]
        details.append(f"({k},{n}):span={SPAN_RANKS[(k, n)]}@p{first.p},{second.p}")
    elapsed = time.perf_counter() - t0
    _report(5, ok, elapsed, 60.0, " ".join(details))
    assert ok and elapsed < 60.0


def test_criterion_6_equivariant_syzygy_decomposition():
    t0 = time.perf_counter()
    ok = True
    labels_checked = 0
    for (k, n) in GRID:
        pp = make_curve_params(k, n)
        dims = span_rank_by_character(pp)
        expect = syzygy_table(k, n, 2)
        for h in all_labels(k, n):
            ok = ok and dims.get(h, 0) == expect[h] >= 0
            labels_checked += 1
    elapsed = time.perf_counter() - t0
    _report(6, ok, elapsed, 30.0, f"span dims = mu2 - nu2 on {labels_checked} labels")
    assert ok and elapsed < 30.0


def test_criterion_7_evaluation_representation_consistency():
    t0 = time.perf_counter()
    ok = True
    for (k, n) in KERNEL_CURVES:
        pp = next(suitable_params(k, n, 25))
        ok = ok and check_equivariance(pp)
    elapsed = time.perf_counter() - t0
    _report(7, ok, elapsed, 30.0, "character_of = generator action at 25 points, m <= 3")
    assert ok and elapsed < 30.0


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    ok = True

    # divisor nonnegativity (holomorphy) across the grid
    for (k, n) in GRID:
        for m in (1, 2, 3):
            for t in enumerate_im(k, n, m):
                ok = ok and min(divisor_of_theta(k, n, m, t)) >= 0

    # total-order axioms on random monomial triples
    items = enumerate_im(3, 3, 1).members
    rng = random.Random(2026)

    def draw():
        d = rng.randint(1, 3)
        return tuple(sorted(items[rng.randrange(len(items))] for _ in range(d)))

    for _ in range(1000):
        a, b, c = draw(), draw(), draw()
        ok = ok and compare_monomials(a, b) == -compare_monomials(b, a)
        ok = ok and (compare_monomials(a, b) == 0) == (a == b)
        if compare_monomials(a, b) <= 0 and compare_monomials(b, c) <= 0:
            ok = ok and compare_monomials(a, c) <= 0

    # tau is an injective section of the fiber map
    for (k, n) in KERNEL_CURVES:
        fibers = minkowski_di1_by_tuples(k, n)
        images = {tau(k, n, t) for t in fibers}
        ok = ok and len(images) == len(fibers)
        ok = ok and all(index_sum(tau(k, n, t)) == t for t in fibers)

    # JSON export round-trip
    for (k, n) in [(2, 4), (3, 3)]:
        pp = make_curve_params(k, n)
        text = "".join(export_ideal(pp, "json"))
        data = parse_ideal_json(text)
        ok = ok and data["binomials"] == binomial_relations(k, n)
        ok = ok and data["trinomials"] == trinomial_relations(pp)
        ok = ok and json.loads(text) == json.loads("".join(export_ideal(pp, "json")))

    elapsed = time.perf_counter() - t0
    _report(8, ok, elapsed, 30.0, "divisors, order axioms, tau section, round-trip")
    assert ok and elapsed < 30.0
