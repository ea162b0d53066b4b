"""Term order, tau, relation generation, kernel verification, and export."""

import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfcring import ideal, indexsets
from gfcring.curve import (
    InsufficientPointsError,
    sample_points,
    suitable_params,
)
from gfcring.ideal import (
    KERNEL_POINTS,
    _character_blocks,
    _phi2_entries,
    _relations_vanish_at,
    export_ideal,
    generate_binomials,
    generate_trinomials,
    variable_name,
    verify_degree2_kernel,
)
from gfcring.indexsets import _lattice, enumerate_im, total_degree_d_monomials
from gfcring.linalg import rank_mod_p
from gfcring.params import ParameterError, dim_vm, make_curve_params
from gfcring.reps import character_of, mu_table, nu_table, syzygy_table
import references
from references import (
    Relation,
    binomial_relations,
    character_blocks_one_by_one,
    compare_monomials,
    degree2_monomials,
    enumerate_ci_by_tuples,
    evaluate_theta,
    export_text,
    fiber_sizes_by_lookup,
    index_sum,
    minkowski_di1_by_tuples,
    monomial_sort_key,
    parse_ideal_json,
    phi2_matrix,
    rank_mod_p_array,
    reduce_stepwise,
    reduce_to_basis,
    relations_vanish_at_by_monomials,
    span_rank_by_character,
    tau,
    trinomial_relations,
)

# relation counts per curve: binomials = #monomials - #fibers,
# trinomials = sum of the |C_i|
RELATION_COUNTS = {
    (2, 4): (0, 3),
    (3, 3): (20, 8),
    (3, 4): (1150, 267),
    (4, 2): (0, 0),
    (2, 5): (51, 60),
    (5, 2): (6, 0),
}

# rank of the degree-2 relation span = dim S_2 - d_2
SPAN_RANKS = {
    (2, 4): 3, (3, 3): 28, (3, 4): 1378, (4, 2): 0, (2, 5): 105, (4, 3): 465,
}


def test_term_order_degree_first():
    one = ((0, 2, 2),)
    two = ((0, 2, 2), (0, 2, 2))
    assert compare_monomials(one, two) == -1
    assert compare_monomials(two, one) == 1
    assert compare_monomials(one, one) == 0


def test_term_order_larger_r_sum_is_smaller():
    # the order inverts the x-exponent clause
    assert compare_monomials(((0, 2, 2), (1, 2, 2)), ((0, 1, 2), (0, 2, 2))) == -1
    # with equal r sums, smaller a-column sums come first
    assert compare_monomials(((0, 1, 2), (0, 2, 2)), ((0, 2, 2), (0, 2, 2))) == -1


def test_term_order_axioms_random_triples():
    items = enumerate_im(3, 3, 1).members
    rng = random.Random(11)

    def draw():
        d = rng.randint(1, 3)
        return tuple(sorted(items[rng.randrange(len(items))] for _ in range(d)))

    for _ in range(1000):
        a, b, c = draw(), draw(), draw()
        # totality + antisymmetry
        assert compare_monomials(a, b) == -compare_monomials(b, a)
        assert (compare_monomials(a, b) == 0) == (a == b)
        # transitivity
        if compare_monomials(a, b) <= 0 and compare_monomials(b, c) <= 0:
            assert compare_monomials(a, c) <= 0


def test_tau_frozen_examples():
    assert tau(3, 3, (1, 4, 4)) == ((0, 2, 2), (1, 2, 2))
    assert tau(3, 3, (0, 4, 4)) == ((0, 2, 2), (0, 2, 2))
    assert tau(3, 3, (0, 1, 4)) == ((0, 0, 2), (0, 1, 2))
    with pytest.raises(ValueError):
        tau(3, 3, (9, 0, 0))


def test_tau_is_a_section():
    for (k, n) in [(2, 4), (3, 3), (4, 2), (2, 5)]:
        fibers = minkowski_di1_by_tuples(k, n)
        images = set()
        for t in fibers:
            mono = tau(k, n, t)
            assert index_sum(mono) == t
            images.add(mono)
        assert len(images) == len(fibers)  # injectivity


def test_tau_of_doubled_point():
    # doubling a window member with no other split gives the square
    t = (2, 2, 2)  # unique split of (4,4,4)... doubled: a=(4,4), r=4
    doubled = tuple(2 * c for c in t)
    assert tau(3, 3, doubled) == (t, t)


def test_tau_is_order_minimal():
    monos = degree2_monomials(3, 3)
    by_fiber = {}
    for mono in monos:
        by_fiber.setdefault(index_sum(mono), []).append(mono)
    for t, group in by_fiber.items():
        lo = min(group, key=monomial_sort_key)
        assert tau(3, 3, t) == lo


def test_binomial_generation():
    for (k, n), (n_bi, _) in RELATION_COUNTS.items():
        bins = binomial_relations(k, n)
        assert len(bins) == len(degree2_monomials(k, n)) - len(_lattice(k, n, 2, 0)[0])
        assert len(bins) == n_bi
        seen = set()
        for rel in bins:
            (c1, m1), (c2, m2) = rel.terms
            assert (c1, c2) == (1, -1)
            assert index_sum(m1) == index_sum(m2)  # homogeneity
            assert m2 == tau(k, n, index_sum(m1))  # star pattern center
            assert m1 != m2
            assert m1 not in seen  # each non-tau monomial appears once
            seen.add(m1)


def test_generator_arrays_are_window_indices_of_the_taus():
    # One row per generator, int32 window indices: a binomial pairs a
    # monomial with the tau of its fiber, a trinomial leads with its index i.
    for (k, n), (n_bi, n_tri) in RELATION_COUNTS.items():
        window = enumerate_im(k, n, 1).members
        bins, tris = generate_binomials(k, n), generate_trinomials(k, n)
        assert (bins.shape, tris.shape) == ((n_bi, 4), (n_tri, 7))
        assert bins.dtype == tris.dtype == np.int32
        for a, b, c, d in bins.tolist():
            t = index_sum((window[a], window[b]))
            assert a <= b and c <= d and (window[c], window[d]) == tau(k, n, t)
        got = [(i, (window[a], window[b]), (window[c], window[d]), (window[e], window[f]))
               for i, a, b, c, d, e, f in tris.tolist()]
        assert got == [(i, tau(k, n, t), tau(k, n, (t[0] + k, *t[1:])),
                        tau(k, n, (*t[:i], t[i] - k, *t[i + 1:])))
                       for i in range(1, n) for t in enumerate_ci_by_tuples(k, n, i)]


def test_trinomial_generation():
    pp = make_curve_params(3, 3, p=103)
    tris = trinomial_relations(pp)
    assert len(tris) == sum(len(enumerate_ci_by_tuples(3, 3, i)) for i in (1, 2)) == 8
    for rel in tris:
        assert rel.kind == "trinomial"
        (c0, m0), (c1, m1), (c2, m2) = rel.terms
        t = index_sum(m0)
        assert c0 == pp.lam[rel.index - 1] % pp.p
        assert (c1, c2) == (1, 1)
        assert index_sum(m1) == (t[0] + 3, *t[1:])
        down = list(t)
        down[rel.index] -= 3
        assert index_sum(m2) == tuple(down)


def test_trinomial_spec_example():
    # lambda_1 = 1 relation at the fiber (0,(4,4))
    pp = make_curve_params(3, 3, p=103)
    match = [
        rel
        for rel in trinomial_relations(pp)
        if rel.index == 1 and index_sum(rel.terms[0][1]) == (0, 4, 4)
    ]
    assert len(match) == 1
    rel = match[0]
    assert [c for c, _ in rel.terms] == [1, 1, 1]
    assert [index_sum(m) for _, m in rel.terms] == [(0, 4, 4), (3, 4, 4), (0, 1, 4)]
    assert rel.terms[0][1] == tau(3, 3, (0, 4, 4))


def test_trinomial_counts_frozen():
    for (k, n), (_, n_tri) in RELATION_COUNTS.items():
        pp = make_curve_params(k, n)
        assert len(trinomial_relations(pp)) == n_tri


def test_trinomial_initial_term_is_lambda_term():
    # monomial_sort_key is the reference for the term order; verify reads the
    # maximal term off the three fibers alone, by (-t[0], *t[1:]).
    for (k, n) in [(3, 3), (2, 5), (3, 4)]:
        pp = make_curve_params(k, n)
        for rel in trinomial_relations(pp):
            monos = [m for _, m in rel.terms]
            top = max(monos, key=monomial_sort_key)
            assert top == monos[0]
            by_fiber = max(map(index_sum, monos), key=lambda t: (-t[0], *t[1:]))
            assert by_fiber == index_sum(top)


def test_trinomial_initial_check_can_fail(monkeypatch):
    # One row that lists its down fiber first: the same relation, so only
    # check (d) sees it.
    trinomial_rows = ideal._trinomial_rows

    def down_first(params):
        fibers, coeff = trinomial_rows(params)
        fibers[0, [0, 2]] = fibers[0, [2, 0]]
        coeff[0, [0, 2]] = coeff[0, [2, 0]]
        return fibers, coeff

    pp = next(suitable_params(3, 4, KERNEL_POINTS, seed=1))
    monkeypatch.setattr(ideal, "_trinomial_rows", down_first)
    rep = verify_degree2_kernel(pp)
    assert rep["symbolic_kernel_ok"] and rep["point_kernel_ok"] and rep["span_rank_ok"]
    assert not rep["trinomial_initial_ok"]
    assert not rep["passed"]


def test_relation_character_is_shared():
    pp = make_curve_params(3, 3, p=103)
    for rel in binomial_relations(3, 3) + trinomial_relations(pp):
        labels = {character_of(3, 2, index_sum(m)) for _, m in rel.terms}
        assert len(labels) == 1


def test_relations_vanish_at_points():
    pp = make_curve_params(3, 3, p=103)
    pts, _ = sample_points(pp, 10)
    var_val = [
        {t: evaluate_theta(pp, q, t) for t in enumerate_im(3, 3, 1)} for q in pts
    ]
    for rel in binomial_relations(3, 3) + trinomial_relations(pp):
        for vals in var_val:
            acc = sum(c * vals[m[0]] * vals[m[1]] for c, m in rel.terms)
            assert acc % pp.p == 0


def test_reduce_to_basis_identity_on_window():
    pp = make_curve_params(3, 3, p=103)
    for t in enumerate_im(3, 3, 2):
        assert reduce_to_basis(pp, t) == {t: 1}


def test_reduce_to_basis_output_in_window():
    pp = make_curve_params(3, 4, p=547)
    window = set(enumerate_im(3, 4, 2).members)
    for t in minkowski_di1_by_tuples(3, 4):
        combo = reduce_to_basis(pp, t)
        assert combo
        assert all(s in window for s in combo)
        low = sum(1 for aj in t[1:] if aj <= 1)
        assert len(combo) <= low + 1
    with pytest.raises(ValueError):
        reduce_to_basis(pp, (50, 0, 0, 0))


def test_reduce_to_basis_evaluation_oracle():
    # 50 random fibers, 20 points: the rewrite is the same curve function
    pp = make_curve_params(3, 3, p=103)
    pts, _ = sample_points(pp, 20)
    rng = random.Random(17)
    fibers = rng.sample(minkowski_di1_by_tuples(3, 3), 30)
    fibers += rng.choices(minkowski_di1_by_tuples(3, 3), k=20)
    for t in fibers:
        combo = reduce_to_basis(pp, t)
        for q in pts:
            direct = evaluate_theta(pp, q, t)
            rewritten = (
                sum(c * evaluate_theta(pp, q, s) for s, c in combo.items()) % pp.p
            )
            assert direct == rewritten


@pytest.mark.parametrize("k, n, p", [(3, 3, None), (2, 7, None), (5, 3, None), (4, 4, None),
                                     (7, 3, None), (3, 4, 2147483647)])
def test_phi2_closed_form_matches_the_stepwise_rewrite(k, n, p):
    # At p = 2^31 - 1 the products of e_s and lam_j come close to 2^62.
    pp = make_curve_params(k, n, seed=5, p=p)
    window = enumerate_im(k, n, 2).members
    row, fiber, value = _phi2_entries(pp)
    assert np.all(np.diff(fiber) >= 0) and np.all((0 <= value) & (value < pp.p))
    closed = {}
    for r, f, v in zip(row.tolist(), fiber.tolist(), value.tolist()):
        if v:
            closed.setdefault(f, {})[window[r]] = v
    assert closed == {f: reduce_stepwise(pp, t)
                      for f, t in enumerate(minkowski_di1_by_tuples(k, n))}


def test_phi2_matrix_frozen_shapes_and_ranks():
    pp = make_curve_params(2, 4, p=101)
    mat = phi2_matrix(pp)
    assert mat.shape == (12, 15)
    assert rank_mod_p_array(mat, pp.p) == 12
    pp = make_curve_params(3, 3, p=103)
    mat = phi2_matrix(pp)
    assert mat.shape == (27, 55)
    assert rank_mod_p_array(mat, pp.p) == 27


@given(
    curve=st.sampled_from([(2, 4), (3, 3), (3, 4), (4, 3), (5, 3)]),
    min_bound=st.integers(100, 3000),
    seed=st.integers(0, 2**31),
)
def test_phi2_character_blocks_sum_to_dense_rank(curve, min_bound, seed):
    # phi2 is block-diagonal by character, each block of rank nu(2, h), and
    # the block ranks add up to the dense rank
    k, n = curve
    pp = next(suitable_params(k, n, seed=seed, min_bound=min_bound))
    mat = phi2_matrix(pp)
    rows = np.array([character_of(k, 2, s) for s in enumerate_im(k, n, 2).members])
    cols = np.array([character_of(k, 2, index_sum(m)) for m in degree2_monomials(k, n)])
    nu = nu_table(k, n, 2)
    total = 0
    for h in {tuple(c) for c in cols}:
        in_rows, in_cols = (rows == h).all(axis=1), (cols == h).all(axis=1)
        assert not np.any(mat[~in_rows][:, in_cols])
        block = rank_mod_p_array(mat[in_rows][:, in_cols], pp.p)
        assert block == nu[h]
        total += block
    dense = rank_mod_p_array(mat, pp.p)
    rels = binomial_relations(k, n) + trinomial_relations(pp)
    assert total == dense == _character_blocks(pp, fiber_rows(pp, rels))[1] == dim_vm(k, n, 2)


def relation_matrix(pp, rels):
    """Dense relation-by-monomial coefficient matrix, columns in term order."""
    col = {mono: i for i, mono in enumerate(degree2_monomials(pp.k, pp.n))}
    mat = np.zeros((len(rels), len(col)), dtype=np.int64)
    for r, rel in enumerate(rels):
        for c, mono in rel.terms:
            mat[r, col[mono]] += c
    return mat % pp.p


def test_span_rank_matches_dense_elimination():
    # per-character structural rank vs one dense elimination over everything
    for (k, n) in [(2, 4), (3, 3), (4, 2), (2, 5), (3, 4)]:
        pp = make_curve_params(k, n)
        rels = binomial_relations(k, n) + trinomial_relations(pp)
        structural = sum(span_rank_by_character(pp).values())
        if rels:
            dense = rank_mod_p_array(relation_matrix(pp, rels), pp.p)
        else:
            dense = 0
        assert structural == dense == SPAN_RANKS[(k, n)]


def fiber_rows(pp, rels):
    """Each relation in fiber coordinates, (fibers, coeff): the sumset rows of
    its index sums and their summed coefficients, padded to three with zero
    coefficients.  The relation -> fiber route, summing every monomial's
    indices, is an oracle for the fiber runs that verify reads."""
    at = {t: f for f, t in enumerate(minkowski_di1_by_tuples(pp.k, pp.n))}
    fibers = np.zeros((len(rels), 3), dtype=np.intp)
    coeff = np.zeros((len(rels), 3), dtype=np.int64)
    for r, rel in enumerate(rels):
        row = {}
        for c, mono in rel.terms:
            f = at[index_sum(mono)]
            row[f] = row.get(f, 0) + c
        fibers[r, :len(row)], coeff[r, :len(row)] = list(row), list(row.values())
    return fibers, coeff


def kernel_cases(pp):
    """(relations, whether they all vanish): the true generators, then three
    corruptions that each break exactly one relation."""
    k, n = pp.k, pp.n
    bins = binomial_relations(k, n)
    tris = trinomial_relations(pp)
    monos = degree2_monomials(k, n)

    def label(mono):
        return character_of(k, 2, index_sum(mono))

    # a trinomial whose lam_i coefficient is off by one
    (lam_c, lam_m), *rest = tris[0].terms
    bad_tri = Relation((((lam_c + 1) % pp.p, lam_m), *rest), "trinomial", tris[0].index)
    # a binomial whose second term lies over a different fiber than its first
    first = bins[0].terms[0][1] if bins else monos[0]
    other = next(m for m in monos if index_sum(m) != index_sum(first))
    bad_bin = Relation(((1, first), (-1, other)), "binomial")
    # the same, across two fibers of one character
    near = next((a, b) for a, b in itertools.combinations(monos, 2)
                if index_sum(a) != index_sum(b) and label(a) == label(b))
    bad_near = Relation(((1, near[0]), (-1, near[1])), "binomial")
    return [
        (bins + tris, True),
        (bins + [bad_tri] + tris[1:], False),
        ([bad_bin] + bins[1:] + tris, False),
        ([bad_near] + bins[1:] + tris, False),
    ]


@pytest.mark.parametrize("k,n,p", [(2, 4, 101), (3, 3, 103), (3, 4, 127)])
def test_sparse_kernel_check_matches_dense_oracle(k, n, p):
    def dense(pp, rels):
        return not np.any(phi2_matrix(pp) @ relation_matrix(pp, rels).T % pp.p)

    def symbolic(pp, rels):
        return _character_blocks(pp, fiber_rows(pp, rels))[0]

    # The certified ranks are the oracle's on every case, and the cross-fiber
    # binomial's terms lie under two characters, which fails check (a).
    pp = make_curve_params(k, n, p=p)
    char = sumset_characters(k, n)
    crossed = False
    for rels, expected in kernel_cases(pp):
        rows = fiber_rows(pp, rels)
        got, want = _character_blocks(pp, rows), character_blocks_one_by_one(pp, rows)
        assert got == want and list(got[2]) == list(want[2])
        assert got[0] == dense(pp, rels) == expected
        labels = np.where(rows[1] % p != 0, char[rows[0]], -1)
        crossed |= bool(np.any((labels >= 0) & (labels != labels.max(axis=1)[:, None])))
    assert crossed

    # (3,4) has no affine points over 127, so the pointwise check runs at the
    # first prime from p on with 50 points (p itself for the other curves).
    pp = next(suitable_params(k, n, 50, min_bound=p))
    pts, short = sample_points(pp, 50)
    assert not short
    for rels, expected in kernel_cases(pp):
        rows = fiber_rows(pp, rels)
        assert (_relations_vanish_at(pp, rows, pts)
                == relations_vanish_at_by_monomials(pp, rows, pts)
                == symbolic(pp, rels) == expected)
        assert dense(pp, rels) == expected
    assert _relations_vanish_at(pp, fiber_rows(pp, []), pts)


@pytest.mark.parametrize("k,n,p", [(2, 4, 101), (3, 3, 103), (3, 4, 127)])
def test_point_check_verdicts_do_not_depend_on_the_block_size(monkeypatch, k, n, p):
    # At 64 cells a block holds at most one point.  Beside kernel_cases, the
    # trinomials with lam_i = 1 (all of relation index 1) take every term
    # without a multiply, and still fail when one second fiber, coefficient
    # 1, is moved back by one row.
    pp = next(suitable_params(k, n, KERNEL_POINTS, min_bound=p))
    pts, _ = sample_points(pp, KERNEL_POINTS)
    fibers, coeff = ideal._trinomial_rows(pp)
    unit = coeff[:, 0] == 1
    assert unit.any()
    moved = fibers[unit].copy()
    moved[len(moved) // 2, 1] -= 1
    cases = [(fiber_rows(pp, rels), expected) for rels, expected in kernel_cases(pp)]
    cases += [((fibers[unit], coeff[unit]), True), ((moved, coeff[unit]), False)]
    for cells in (ideal.CHUNK_CELLS, 64):
        monkeypatch.setattr(ideal, "CHUNK_CELLS", cells)
        assert [_relations_vanish_at(pp, rows, pts) for rows, _ in cases] == [
            expected for _, expected in cases]


def point_check_peak() -> int:
    """The tracemalloc peak of the point check at (2,9), KERNEL_POINTS points,
    with the trinomials, the sumset and the points cached; it must pass."""
    pp = next(suitable_params(2, 9, KERNEL_POINTS, seed=1))
    rows = ideal._trinomial_rows(pp)
    _lattice(2, 9, 2, 0)
    pts, _ = sample_points(pp, KERNEL_POINTS)
    tracemalloc.start()
    try:
        assert _relations_vanish_at(pp, rows, pts)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_point_check_adds_the_terms_one_at_a_time():
    # At (2,9) a (points x 3 x trinomials) gather of the terms and its product
    # peak at 8.7 MiB here; one term column at a time, into one sum, with the
    # sumset and points cached, the check peaks below 7.5 MiB.
    assert point_check_peak() < 7.5 * 2**20


def test_point_check_evaluates_the_sumset_as_it_is_laid_out():
    # The column-major sumset is the evaluation's exponent table: the check
    # peaks at 2.9 MiB here, and at 5.2 MiB with a copy of the sumset in
    # another layout.
    assert point_check_peak() < 4 * 2**20


def test_symbolic_kernel_check_is_exact_at_the_largest_prime():
    # p = 2^31 - 1 is the largest prime with p^2 < 2^62, which the ranks
    # accept.  Scaling a trinomial keeps it in the kernel and makes all its
    # coefficients large; at (3,4) some then meet three large phi2 entries in
    # one row, about 3p^2 > 2^63, which an int64 product would wrap.
    for k, n in [(3, 3), (3, 4)]:
        pp = make_curve_params(k, n, seed=5, p=2147483647)
        for rels, expected in kernel_cases(pp):
            assert _character_blocks(pp, fiber_rows(pp, rels))[0] == expected
        scale = pp.p - 2
        scaled = [Relation(tuple((c * scale % pp.p, m) for c, m in rel.terms), rel.kind,
                           rel.index) for rel in trinomial_relations(pp)]
        assert _character_blocks(pp, fiber_rows(pp, scaled))[0]


@pytest.mark.parametrize("k,n", [(2, 5), (2, 7), (3, 3), (3, 4), (4, 2), (4, 4), (5, 3)])
def test_character_blocks_match_the_one_by_one_oracle(k, n):
    # Certifying the ranks changes no verdict and no rank: the same triple,
    # per_character in the same order, at two primes; and with one
    # trinomial coefficient off by one, both find a relation that does not
    # vanish.  (4,2) has no trinomials at all.
    for pp in itertools.islice(suitable_params(k, n, seed=1), 2):
        fibers, coeff = ideal._trinomial_rows(pp)
        cases = [((fibers, coeff), True)]
        if len(coeff):
            bad = coeff.copy()
            bad[len(bad) // 2, 0] += 1
            cases.append(((fibers, bad), False))
        for rows, vanish in cases:
            got, want = _character_blocks(pp, rows), character_blocks_one_by_one(pp, rows)
            assert got == want and list(got[2]) == list(want[2]) and got[0] == vanish


def spy_on_ranks(monkeypatch):
    """The (rows, cols) shapes of the blocks that ideal hands rank_mod_p, in
    call order."""
    shapes = []

    def spy(mat, p):
        shapes.append(mat.shape)
        return rank_mod_p(mat, p)

    monkeypatch.setattr(ideal, "rank_mod_p", spy)
    return shapes


def sumset_characters(k, n):
    """Each sumset row's character, raveled as _character_blocks ravels it."""
    return np.ravel_multi_index(character_of(k, 2, _lattice(k, n, 2, 0)[0].T), (k,) * n)


@pytest.mark.parametrize("k,n", [(2, 5), (3, 4), (4, 4)])
def test_a_missing_trinomial_ranks_its_character_alone(k, n, monkeypatch):
    # Without a trinomial whose down-fiber t - k*e_i no other trinomial
    # shares, that character's distinct leading fibers fall one short of its
    # kernel bound: its relation block alone is ranked, and the triple is
    # the oracle's, one less at that character.
    pp = next(suitable_params(k, n, seed=1))
    fibers, coeff = ideal._trinomial_rows(pp)
    drop = np.flatnonzero(np.bincount(fibers[:, 2])[fibers[:, 2]] == 1)[0]
    rows = np.delete(fibers, drop, axis=0), np.delete(coeff, drop, axis=0)
    char = sumset_characters(k, n)
    h = char[fibers[drop, 2]]
    full = _character_blocks(pp, (fibers, coeff))
    shapes = spy_on_ranks(monkeypatch)
    got, want = _character_blocks(pp, rows), character_blocks_one_by_one(pp, rows)
    assert got == want and list(got[2]) == list(want[2]) and got[0]
    assert shapes == [(np.sum(char[rows[0][:, 0]] == h), np.sum(char == h))]
    label = tuple(map(int, np.unravel_index(h, (k,) * n)))
    assert {**got[2], label: got[2][label] + 1} == full[2]


@pytest.mark.parametrize("k,n", [(2, 5), (3, 4), (4, 4)])
def test_a_phi2_column_off_the_unit_ranks_its_character_alone(k, n, monkeypatch):
    # A window fiber's phi2 column doubled fails its unit-vector certificate:
    # that character's phi2 block is ranked, and so is its relation block,
    # as the relations through that fiber no longer vanish.  The triple is
    # the oracle's, read off the same entries.
    pp = next(suitable_params(k, n, seed=1))
    rows = ideal._trinomial_rows(pp)
    row, col, value = ideal._phi2_entries(pp)
    window = np.searchsorted(_lattice(k, n, 2, 0)[1], _lattice(k, n, 2)[1])
    used = np.flatnonzero(np.isin(col, window) & np.isin(col, rows[0]))
    doubled = value.copy()
    doubled[used[len(used) // 2]] = 2
    for module in (ideal, references):
        monkeypatch.setattr(module, "_phi2_entries", lambda params: (row, col, doubled))
    char = sumset_characters(k, n)
    h = char[col[used[len(used) // 2]]]
    shapes = spy_on_ranks(monkeypatch)
    got, want = _character_blocks(pp, rows), character_blocks_one_by_one(pp, rows)
    assert got == want and list(got[2]) == list(want[2]) and not got[0]
    assert shapes == [(np.sum(char[window] == h), np.sum(char == h)),
                      (np.sum(char[rows[0][:, 0]] == h), np.sum(char == h))]


def test_symbolic_check_keeps_no_three_dimensional_product():
    # The image is a join of each relation's terms with their fibers' phi2
    # entries, a chunk of relations at a time: a (relations x fibers x
    # phi2 rows) product at (2,7) would peak above 4 MiB here.
    pp = make_curve_params(2, 7, seed=1)
    rows = ideal._trinomial_rows(pp)
    ideal._fiber_sizes(2, 7), enumerate_im(2, 7, 2)  # warm the caches
    tracemalloc.start()
    try:
        assert _character_blocks(pp, rows)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_verify_reads_each_fiber_once(monkeypatch):
    # verify reads the fiber sizes, counted once per curve, instead of
    # sorting the monomials or building the generator arrays, and builds the
    # trinomial rows and phi2 once per prime.
    calls = []

    def spy(fn):
        def counted(*args):
            calls.append((fn.__name__, args))
            return fn(*args)
        return counted

    primes = list(itertools.islice(suitable_params(3, 4, KERNEL_POINTS, seed=1), 2))
    ideal._fiber_sizes.cache_clear()
    for fn in (ideal._degree2_data, generate_binomials, generate_trinomials,
               ideal._trinomial_rows, ideal._phi2_entries):
        monkeypatch.setattr(ideal, fn.__name__, spy(fn))
    assert all(verify_degree2_kernel(pp)["passed"] for pp in primes)
    assert calls == [(name, (pp,)) for pp in primes
                     for name in ("_trinomial_rows", "_phi2_entries")]
    info = ideal._fiber_sizes.cache_info()
    assert info.misses == 1 and info.hits >= 1


def test_verify_builds_no_array_of_every_monomial():
    # At (6,4) the (dim S_2, 2) int32 pair array alone is 7.9 MB; with the
    # index caches warm, the degree-2 check peaks well below it.
    pp = next(suitable_params(6, 4, KERNEL_POINTS, seed=1))
    ideal._fiber_sizes.cache_clear()
    _lattice(6, 4, 1), _lattice(6, 4, 2), _lattice(6, 4, 2, 0)
    sample_points(pp, KERNEL_POINTS)
    tracemalloc.start()
    try:
        assert verify_degree2_kernel(pp)["passed"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * total_degree_d_monomials(6, 4, 2)


def sorted_key_route(k, n):
    """fiber -> its monomials in term order, by one monomial_sort_key per
    monomial and itertools.groupby over the sorted keys."""
    window = enumerate_im(k, n, 1).members
    keys = sorted(monomial_sort_key(pair)
                  for pair in itertools.combinations_with_replacement(window, 2))
    return {
        (-sums[0], *sums[1:]): tuple(key[-1] for key in run)
        for sums, run in itertools.groupby(keys, key=lambda key: key[1:n + 1])
    }


FIBER_CURVES = [(2, 4), (3, 3), (4, 2), (5, 2), (3, 4), (4, 4), (2, 7), (5, 3), (8, 2),
                (7, 3), (2, 8)]


@pytest.mark.parametrize("k,n", FIBER_CURVES)
def test_fiber_runs_match_the_sorted_key_route(k, n):
    expected = sorted_key_route(k, n)
    monos = degree2_monomials(k, n)
    edges = ideal._degree2_data(k, n)[1].tolist()
    fibers = minkowski_di1_by_tuples(k, n)
    assert monos == tuple(itertools.chain.from_iterable(expected[t] for t in fibers))
    assert {t: monos[a:b] for t, a, b in zip(fibers, edges, edges[1:])} == expected
    # check (d)'s key, sumset row - r*F, orders the fibers as the term order does
    term_key = np.arange(len(fibers)) - np.array([t[0] for t in fibers]) * len(fibers)
    assert [fibers[f] for f in np.argsort(term_key)] == list(expected)
    # verify's count is the sort's run lengths and the key search's count,
    # and per character it is mu
    size = ideal._fiber_sizes(k, n)
    assert np.array_equal(size, np.diff(edges))
    assert np.array_equal(size, fiber_sizes_by_lookup(k, n))
    mu = mu_table(k, n, 2)
    assert np.bincount(sumset_characters(k, n), weights=size, minlength=k ** n).tolist() == [
        mu[h] for h in itertools.product(range(k), repeat=n)]


@pytest.mark.parametrize("k,n", [(6, 4), (4, 5), (3, 6), (2, 10), (8, 4)])
def test_fiber_sizes_match_the_key_search(k, n):
    # Curves past the sorted-key route: the closed form against the count
    # that files every pair at its index sum's row.
    assert np.array_equal(ideal._fiber_sizes(k, n), fiber_sizes_by_lookup(k, n))


def test_fiber_sizes_search_no_key(monkeypatch):
    # The closed form reads the sumset rows alone: no pair is summed, and no
    # key is looked up.
    calls, lookup = [], indexsets._lookup

    def spy(keys, sought):
        calls.append(len(sought))
        return lookup(keys, sought)

    for module in (ideal, indexsets):
        monkeypatch.setattr(module, "_lookup", spy)
    ideal._fiber_sizes.cache_clear()
    _lattice(4, 4, 2, 0)
    assert ideal._fiber_sizes(4, 4).sum() == total_degree_d_monomials(4, 4, 2)
    assert calls == []


def binomials_share_sums(k, n):
    """Whether the two monomials of every generate_binomials row have one
    index sum, compared coordinate by coordinate: then the binomial
    vanishes on the curve, as x^r * prod y_j^(-a_j) is multiplicative in
    the index."""
    window = _lattice(k, n, 1)[0]
    i, j, i2, j2 = generate_binomials(k, n).T
    return np.array_equal(window[i] + window[j], window[i2] + window[j2])


@pytest.mark.parametrize("k,n", FIBER_CURVES)
def test_written_binomials_share_their_index_sums(k, n):
    assert binomials_share_sums(k, n)


def test_degree2_data_is_read_only():
    # The arrays are cached per curve: a write would reach every later
    # verify or export of that curve.
    pairs, edges = ideal._degree2_data(3, 3)
    size = ideal._fiber_sizes(3, 3)
    for array, at in ((pairs, (0, 0)), (edges, 0), (size, 0)):
        with pytest.raises(ValueError):
            array[at] = 1


def test_binomial_check_finds_a_monomial_filed_under_a_neighbouring_fiber(monkeypatch):
    pairs, edges = ideal._degree2_data(3, 4)
    assert binomials_share_sums(3, 4)
    # Move the first row of some fiber with two or more monomials into the
    # run of the fiber before it.
    moved = edges.copy()
    moved[np.flatnonzero(np.diff(edges[1:]) > 1)[0] + 1] += 1
    monkeypatch.setattr(ideal, "_degree2_data", lambda k, n: (pairs, moved))
    assert not binomials_share_sums(3, 4)


@given(
    curve=st.sampled_from([(3, 3), (4, 3)]),
    min_bound=st.integers(100, 3000),
    seed=st.integers(0, 2**31),
)
def test_kernel_invariants_are_field_independent(curve, min_bound, seed):
    k, n = curve
    pp = next(suitable_params(k, n, 60, seed=seed, min_bound=min_bound))
    rep = verify_degree2_kernel(pp)
    assert rep["phi2_rank"] == dim_vm(k, n, 2)
    assert rep["span_rank"] == SPAN_RANKS[curve]
    dims = rep["per_character"]
    for h, v in syzygy_table(k, n, 2).items():
        assert dims.get(h, 0) == v
    assert rep["symbolic_kernel_ok"] and rep["point_kernel_ok"]


def test_per_character_dims_match_syzygy_table():
    for (k, n) in [(2, 4), (3, 3), (2, 5)]:
        pp = make_curve_params(k, n)
        dims = span_rank_by_character(pp)
        expected = syzygy_table(k, n, 2)
        assert all(v > 0 for v in dims.values())
        for h, v in expected.items():
            assert dims.get(h, 0) == v


def test_verify_degree2_kernel_report():
    pp = make_curve_params(3, 3, p=103)
    rep = verify_degree2_kernel(pp)
    assert list(rep) == [
        "p", "dim_s2", "n_binomials", "n_trinomials", "phi2_rank", "ker_dim", "span_rank",
        "standard_count", "points_used", "symbolic_kernel_ok", "point_kernel_ok",
        "span_rank_ok", "standard_count_ok", "trinomial_initial_ok", "per_character", "passed",
    ]
    assert rep["dim_s2"] == 55
    assert rep["n_binomials"] == 20 and rep["n_trinomials"] == 8
    assert rep["phi2_rank"] == 27 and rep["ker_dim"] == 28
    assert rep["span_rank"] == 28 and rep["standard_count"] == 27
    assert rep["span_rank"] <= rep["ker_dim"]
    assert rep["points_used"] >= 50
    assert rep["symbolic_kernel_ok"] and rep["point_kernel_ok"]
    assert rep["span_rank_ok"] and rep["standard_count_ok"] and rep["trinomial_initial_ok"]
    assert rep["passed"]
    assert sum(rep["per_character"].values()) == 28
    assert not pp.plane_quintic


def test_verify_degree2_kernel_plane_quintic_flag():
    # default prime 101 has a single usable fiber; 211 has plenty
    pp = make_curve_params(5, 2, p=211)
    rep = verify_degree2_kernel(pp)
    assert pp.plane_quintic
    assert rep["n_binomials"] == 6 and rep["n_trinomials"] == 0
    assert rep["passed"]  # the degree-2 facts hold; generation does not


def test_verify_degree2_kernel_insufficient_points():
    pp = make_curve_params(3, 3, p=7)
    with pytest.raises(InsufficientPointsError):
        verify_degree2_kernel(pp)


def test_variable_name():
    assert variable_name((1, 2, 2)) == "z_1_2_2"
    assert variable_name((0, 1, 1, 2)) == "z_0_1_1_2"


def test_export_json_roundtrip():
    pp = make_curve_params(3, 3, p=103)
    text = export_text(pp, "json")
    data = parse_ideal_json(text)
    assert (data["k"], data["n"], data["p"]) == (3, 3, 103)
    assert data["lambda"] == pp.lam
    assert data["variables"] == enumerate_im(3, 3, 1).members
    assert data["binomials"] == binomial_relations(3, 3)
    assert data["trinomials"] == trinomial_relations(pp)
    # and the round trip is idempotent at the text level
    assert json.loads(text) == json.loads(export_text(pp, "json"))


def enumerated_generators(pp):
    """(binomial terms, (index, trinomial terms)) as the paper writes them,
    without _degree2_data: the monomials from combinations_with_replacement,
    grouped by index sum, tau the minimum under monomial_sort_key."""
    k, n = pp.k, pp.n
    fibers = {}
    for mono in itertools.combinations_with_replacement(enumerate_im(k, n, 1).members, 2):
        fibers.setdefault(tuple(a + b for a, b in zip(*mono)), []).append(mono)
    for monos in fibers.values():
        monos.sort(key=monomial_sort_key)
    bins = [((1, mono), (-1, monos[0])) for _, monos in sorted(fibers.items())
            for mono in monos[1:]]
    tris = [(i, ((pp.lam[i - 1] % pp.p, fibers[t][0]),
                 (1, fibers[(t[0] + k, *t[1:])][0]),
                 (1, fibers[(*t[:i], t[i] - k, *t[i + 1:])][0])))
            for i in range(1, n) for t in enumerate_ci_by_tuples(k, n, i)]
    return bins, tris


@pytest.mark.parametrize("k, n", [(3, 3), (2, 5), (4, 3), (2, 4), (4, 2)])
def test_export_writes_the_enumerated_generators(k, n):
    pp = make_curve_params(k, n, seed=1)
    data = parse_ideal_json(export_text(pp, "json"))
    bins, tris = enumerated_generators(pp)
    assert [rel.terms for rel in data["binomials"]] == bins
    assert [(rel.index, rel.terms) for rel in data["trinomials"]] == tris


def test_export_builds_no_relation_and_copies_its_text_once():
    # export reads the generators as index arrays and joins shared text
    # pieces once: a peak near the text itself.  A Relation per generator
    # and nested joins peak at 3.6 times the text at (3,4).
    pp = make_curve_params(3, 4, seed=1)
    export_ideal(pp, "json")  # the cached index sets and fiber runs
    tracemalloc.start()
    try:
        text = export_text(pp, "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(text)


@pytest.mark.parametrize("k, n", [(4, 2), (5, 2), (2, 4), (3, 3), (2, 5), (3, 4), (5, 3)])
@settings(max_examples=3)
@given(seed=st.integers(0, 2**31), min_bound=st.integers(100, 5000))
def test_export_json_is_the_encoder_text(k, n, seed, min_bound):
    pp = make_curve_params(k, n, seed=seed, min_bound=min_bound)
    assert export_text(pp, "json") == references.encoder_export(pp)


def test_parse_ideal_json_rejects_a_corrupt_trinomial():
    text = export_text(make_curve_params(3, 3, p=103), "json")
    for term, j in ((0, 1), (2, 0)):
        data = json.loads(text)
        # moves one fiber coordinate, so the third term no longer sits exactly
        # k below the first along one a-coordinate
        data["trinomials"][0][term]["factors"][0][j] += 1
        with pytest.raises(ParameterError, match="trinomial"):
            parse_ideal_json(json.dumps(data))


def _cut_trinomial(data):
    del data["trinomials"][0][2]


def _drop_binomials(data):
    del data["binomials"]


def _one_term_binomial(data):
    del data["binomials"][0][1]


def _binomial_across_fibers(data):
    data["binomials"][0][1]["factors"][0][1] += 1


def _long_factor(data):
    data["binomials"][0][0]["factors"][0].append(0)


def _term_without_coeff(data):
    del data["binomials"][0][0]["coeff"]


def _term_as_list(data):
    term = data["trinomials"][0][1]
    data["trinomials"][0][1] = [term["coeff"], term["factors"]]


def _binomials_not_a_list(data):
    data["binomials"] = 5


def _factor_entry_not_an_int(data):
    data["trinomials"][0][1]["factors"][0][0] = "x"


@pytest.mark.parametrize("corrupt,named", [
    (_cut_trinomial, "trinomial"),
    (_drop_binomials, "binomials"),
    (_one_term_binomial, "binomial"),
    (_binomial_across_fibers, "binomial"),
    (_long_factor, "binomial"),
    (_term_without_coeff, "binomial"),
    (_term_as_list, "trinomial"),
    (_binomials_not_a_list, "binomials"),
    (_factor_entry_not_an_int, "trinomial"),
])
def test_parse_ideal_json_rejects_a_malformed_payload(corrupt, named):
    data = json.loads(export_text(make_curve_params(3, 3, p=103), "json"))
    corrupt(data)
    with pytest.raises(ParameterError, match=named):
        parse_ideal_json(json.dumps(data))


@pytest.mark.parametrize("text", ["5", "[]", '"ideal"', "null"])
def test_parse_ideal_json_rejects_a_payload_that_is_not_an_object(text):
    with pytest.raises(ParameterError, match="payload"):
        parse_ideal_json(text)


def test_export_cas_text():
    pp = make_curve_params(3, 3, p=103)
    text = export_text(pp, "cas-text")
    lines = text.splitlines()
    assert lines[0] == "// k=3 n=3 p=103"
    assert lines[1].startswith("// lambda parameters: l1=1 l2=")
    assert "variables (10), binomials (20), trinomials (8)" in lines[2]
    assert lines[3].startswith("ring R = (0, l1, l2), (z_0_0_2, ")
    assert lines[3].endswith(", dp;")
    body = lines[5:]
    assert len(body) == 28
    assert sum(1 for ln in body if ln.startswith("l")) == 8
    assert "z_0_2_2^2" in text  # squares render with a power


def test_export_unknown_format():
    pp = make_curve_params(3, 3, p=103)
    with pytest.raises(ValueError):
        export_ideal(pp, "sage")


def test_exported_quadrics_rank_humbert():
    # the genus-5 curve family is cut out by exactly 3 independent quadrics
    pp = make_curve_params(2, 4, p=101)
    data = parse_ideal_json(export_text(pp, "json"))
    rels = data["binomials"] + data["trinomials"]
    assert len(rels) == 3
    mat = relation_matrix(pp, rels)
    assert rank_mod_p_array(mat, pp.p) == 3
