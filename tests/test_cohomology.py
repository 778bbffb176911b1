"""Cohomology dimensions: worked values, symmetries, oracle agreement."""

import random
from math import comb

import pytest
from sympy import QQ_I
from sympy.polys.matrices import DomainMatrix

from nilcoh.algebra import d, del_, delbar, deldelbar, validate
from nilcoh.catalog import (
    catalog_get,
    catalog_list,
    exnilp_spec,
    iwasawa_spec,
    kodaira_spec,
    nakamura_ce_spec,
    torus_spec,
)
from nilcoh.cohomology import (
    THEORIES,
    _theory_operators,
    class_representatives,
    d_matrix,
    derham_betti,
    hodge_number,
    hodge_table,
    natural_map_rank,
    operator_matrix,
)
from nilcoh.dsl import parse_structure_file
from nilcoh.forms import BasisForm, Form, alpha, alphabar, component_masks, degree_masks
from nilcoh.linalg import IndexedMatrix, hstack, kernel_basis, rank, vstack
from nilcoh.obstructions import holomorphic_one_forms
from nilcoh.scalars import GaussianRational

from oracle import OracleAlgebra, scalar_to_sympy
from generators import basis_forms, rand_gauss_over, random_two_step
from test_algebra import rand_valid_spec


def test_iwasawa_headline_numbers():
    iw = iwasawa_spec()
    assert hodge_number(iw, "bott_chern", 0, 1) == 2
    assert hodge_number(iw, "aeppli", 0, 1) == 3


def test_torus_tables_are_binomial():
    for n in (1, 2, 3):
        spec = torus_spec(n)
        for theory in THEORIES:
            table = hodge_table(spec, theory)
            for p in range(n + 1):
                for q in range(n + 1):
                    assert table.entries[p][q] == comb(n, p) * comb(n, q)
        assert derham_betti(spec) == [comb(2 * n, k) for k in range(2 * n + 1)]


def test_kodaira_numbers():
    ko = kodaira_spec()
    assert hodge_number(ko, "bott_chern", 0, 1) == 1
    assert hodge_number(ko, "aeppli", 0, 1) == 2
    assert hodge_number(ko, "dolbeault", 0, 1) == 2
    # real first betti number of the underlying nilmanifold is 3
    assert derham_betti(ko) == [1, 3, 4, 3, 1]


def test_jacobi_failing_spec_has_no_cohomology():
    spec = parse_structure_file(
        "algebra bad dim 2\nd a1 = (1) * a1 ^ a2\nd a2 = (1) * a1 ^ ~a1\n"
    )
    assert not validate(spec).jacobi_ok
    for compute in (lambda: hodge_table(spec, "dolbeault"), lambda: derham_betti(spec)):
        with pytest.raises(ValueError, match="fails the Jacobi check"):
            compute()


def test_tables_match_oracle():
    specs = [iwasawa_spec(), kodaira_spec(), nakamura_ce_spec()]
    for spec in specs:
        oracle = OracleAlgebra.from_spec(spec, scalar_to_sympy)
        bc = hodge_table(spec, "bott_chern").entries
        ae = hodge_table(spec, "aeppli").entries
        do = hodge_table(spec, "dolbeault").entries
        cd = hodge_table(spec, "conj_dolbeault").entries
        for p in range(spec.n + 1):
            for q in range(spec.n + 1):
                assert bc[p][q] == oracle.bott_chern_dim(p, q)
                assert ae[p][q] == oracle.aeppli_dim(p, q)
                assert do[p][q] == oracle.dolbeault_dim(p, q)
                assert cd[p][q] == oracle.conj_dolbeault_dim(p, q)
        assert derham_betti(spec) == [
            oracle.derham_dim(k) for k in range(2 * spec.n + 1)
        ]


def test_random_specs_match_oracle_at_selected_spots():
    rng = random.Random(97)
    for _ in range(6):
        spec = rand_valid_spec(rng, 3)
        oracle = OracleAlgebra.from_spec(spec, scalar_to_sympy)
        for p, q in ((0, 1), (1, 1), (1, 2), (2, 2)):
            assert hodge_number(spec, "bott_chern", p, q) == oracle.bott_chern_dim(p, q)
            assert hodge_number(spec, "aeppli", p, q) == oracle.aeppli_dim(p, q)


def _degree_sums(spec, theory):
    """sum over p+q = k of h^{p,q}, for k = 0 .. 2n."""
    t = hodge_table(spec, theory).entries
    n = spec.n
    return [
        sum(t[p][k - p] for p in range(max(0, k - n), min(k, n) + 1)) for k in range(2 * n + 1)
    ]


def test_frolicher_and_angella_tomassini_inequalities():
    # b_k <= sum h_delbar^{p,q} and h_BC^k + h_A^k >= 2 b_k hold for any
    # bounded double complex (Angella & Tomassini, Invent. Math. 192, 2013)
    rng = random.Random(107)
    specs = [random_two_step(rng, n, name="draw%d" % n) for n in (2, 3, 4) for _ in range(8)]
    specs += [catalog_get(key).spec for key in catalog_list()]
    for spec in specs:
        if not validate(spec).jacobi_ok:
            continue
        betti = derham_betti(spec)
        dolbeault = _degree_sums(spec, "dolbeault")
        bc, ae = _degree_sums(spec, "bott_chern"), _degree_sums(spec, "aeppli")
        for k, b in enumerate(betti):
            assert b <= dolbeault[k], (spec.name, k)
            assert bc[k] + ae[k] >= 2 * b, (spec.name, k)


def test_frolicher_and_angella_tomassini_equalities_on_tori():
    for n in (1, 2, 3):
        spec = torus_spec(n)
        betti = derham_betti(spec)
        assert _degree_sums(spec, "dolbeault") == betti
        bc, ae = _degree_sums(spec, "bott_chern"), _degree_sums(spec, "aeppli")
        assert [x + y for x, y in zip(bc, ae)] == [2 * b for b in betti]


def test_conjugation_symmetry_everywhere():
    for key in catalog_list():
        spec = catalog_get(key).spec
        if not validate(spec).jacobi_ok:
            continue
        for theory in ("bott_chern", "aeppli"):
            t = hodge_table(spec, theory).entries
            for p in range(spec.n + 1):
                for q in range(spec.n + 1):
                    assert t[p][q] == t[q][p], (key, theory, p, q)


def test_duality_pairs_bott_chern_with_aeppli():
    for key in ("iwasawa", "kodaira", "torus(3)", "exnilp_ones(3)", "nakamura_ce"):
        spec = catalog_get(key).spec
        n = spec.n
        bc = hodge_table(spec, "bott_chern").entries
        ae = hodge_table(spec, "aeppli").entries
        for p in range(n + 1):
            for q in range(n + 1):
                assert bc[p][q] == ae[n - p][n - q], (key, p, q)


def test_dolbeault_conj_dolbeault_mirror():
    for key in ("iwasawa", "kodaira", "nakamura_ce"):
        spec = catalog_get(key).spec
        do = hodge_table(spec, "dolbeault").entries
        cd = hodge_table(spec, "conj_dolbeault").entries
        for p in range(spec.n + 1):
            for q in range(spec.n + 1):
                assert do[p][q] == cd[q][p]


def test_betti_palindrome_and_euler_zero():
    for key in ("iwasawa", "kodaira", "exnilp_ones(3)", "torus(2)"):
        spec = catalog_get(key).spec
        betti = derham_betti(spec)
        assert betti == betti[::-1]
        assert sum((-1) ** k * b for k, b in enumerate(betti)) == 0


def test_table_corner_values():
    iw = iwasawa_spec()
    for theory in THEORIES:
        t = hodge_table(iw, theory)
        assert t.entries[0][0] == 1
        assert t.entries[3][3] == 1
        assert t.validity == "nilpotent_J"
    assert hodge_table(nakamura_ce_spec(), "bott_chern").validity == "ce_only"


def test_hodge_number_outside_range_is_zero():
    iw = iwasawa_spec()
    assert hodge_number(iw, "bott_chern", 4, 0) == 0
    assert hodge_number(iw, "aeppli", 0, 5) == 0


def test_invalid_spec_is_refused():
    from nilcoh.algebra import AlgebraSpec

    bad = AlgebraSpec("bad", 2, [Form(), alpha(1) ^ alphabar(2)])
    with pytest.raises(ValueError):
        hodge_table(bad, "bott_chern")


def test_unknown_theory_is_refused():
    with pytest.raises(ValueError):
        hodge_table(iwasawa_spec(), "singular")


def test_class_representatives_are_closed_and_span():
    iw = iwasawa_spec()
    reps = class_representatives(iw, "bott_chern", 0, 1)
    assert len(reps) == 2
    for rep in reps:
        assert d(iw, rep).is_zero()
    reps_a = class_representatives(iw, "aeppli", 0, 1)
    assert len(reps_a) == 3


def test_natural_map_rank_values():
    # on a torus everything is closed and nothing exact: map is injective
    t2 = torus_spec(2)
    assert natural_map_rank(t2, 1, 1) == hodge_number(t2, "bott_chern", 1, 1) == 4
    iw = iwasawa_spec()
    r = natural_map_rank(iw, 0, 1)
    assert r == 2  # both (0,1) classes survive into aeppli
    assert r <= hodge_number(iw, "aeppli", 0, 1)
    # at top bidegree both are one-dimensional and the map is nonzero
    assert natural_map_rank(iw, 3, 3) == 1


def test_natural_map_rank_raises_on_negative_kernel(monkeypatch):
    # an overcounting rank drives the kernel dimension below zero
    import nilcoh.cohomology

    true_rank = nilcoh.cohomology.rank
    monkeypatch.setattr(nilcoh.cohomology, "rank", lambda m: true_rank(m) + 1)
    with pytest.raises(ArithmeticError):
        natural_map_rank(torus_spec(2), 1, 1)


def _columnwise(fn, spec, domain, codomain):
    """The matrix whose column j is fn applied to the monomial of mask
    domain[j], every term of which must lie in the codomain; the masks
    label its columns and rows."""
    images = [fn(spec, Form({bf: 1})) for bf in basis_forms(spec.n, domain)]
    targets = basis_forms(spec.n, codomain)
    placed = set(targets)
    assert all(bf in placed for image in images for bf, _ in image.terms())
    return IndexedMatrix(
        codomain, domain, [[image.coefficient(bf) for image in images] for bf in targets]
    )


def _assert_operators_equal_columnwise_images(spec):
    shifts = {"del": (del_, 1, 0), "delbar": (delbar, 0, 1), "deldelbar": (deldelbar, 1, 1)}
    n = spec.n
    for op, (fn, dp, dq) in shifts.items():
        for p in range(-1, n + 1):
            for q in range(-1, n + 1):
                domain, codomain = component_masks(n, p, q), component_masks(n, p + dp, q + dq)
                m = operator_matrix(spec, op, p, q)
                assert m == _columnwise(fn, spec, domain, codomain)
                assert m.cols is domain and m.rows is codomain
    for k in range(-1, 2 * n + 1):
        domain, codomain = degree_masks(n, k), degree_masks(n, k + 1)
        m = d_matrix(spec, k)
        assert m == _columnwise(d, spec, domain, codomain)
        assert m.cols is domain and m.rows is codomain


def test_operator_matrices_equal_columnwise_images():
    rng = random.Random(97)
    for trial in range(8):
        _assert_operators_equal_columnwise_images(
            random_two_step(rng, 1 + trial % 4, name="draw%d" % trial)
        )


def test_operator_matrices_over_denominators_equal_columnwise_images():
    # structure constants over 2, 3 and 5 with imaginary parts: the matrices
    # are Gaussian integers over an lcm L > 1, del.delbar over L^2
    rng = random.Random(113)
    seen = set()
    for trial in range(8):
        spec = random_two_step(
            rng,
            2 + trial % 3,
            name="draw%d" % trial,
            coefficient=lambda rng: rand_gauss_over(rng, (1, 2, 3, 5)),
        )
        _assert_operators_equal_columnwise_images(spec)
        n = spec.n
        seen.update(
            operator_matrix(spec, op, p, q).denominator
            for op in ("del", "delbar", "deldelbar")
            for p in range(n + 1)
            for q in range(n + 1)
        )
    assert all(any(L % prime == 0 for L in seen) for prime in (2, 3, 5))


def test_operator_assembly_builds_no_basis_form(monkeypatch):
    """Bases and matrix labels are masks: once the Jacobi check has built
    the term table, no operator matrix, d matrix or theory pair of an
    n = 4 spec constructs a BasisForm."""
    spec = parse_structure_file(
        "algebra guard dim 4\n"
        "d a3 = (1) * a1 ^ a2 + (1/2-i) * a1 ^ ~a2\n"
        "d a4 = (2) * a1 ^ a3 + (i) * a2 ^ ~a1\n"
    )
    assert validate(spec).jacobi_ok
    built = []
    real = BasisForm.__init__

    def spy(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(BasisForm, "__init__", spy)
    n = spec.n
    for p in range(-1, n + 2):
        for q in range(-1, n + 2):
            for op in ("del", "delbar", "deldelbar"):
                operator_matrix(spec, op, p, q)
            for theory in THEORIES:
                _theory_operators(spec, theory, p, q)
    for k in range(-1, 2 * n + 2):
        d_matrix(spec, k)
    assert built == []
    assert spec._caches["matrices"]
    BasisForm((1,), (2,))
    assert built == [((1,), (2,))]


def test_n6_spots_match_oracle():
    spec = parse_structure_file(
        "algebra spot6 dim 6\n"
        "d a5 = (1/2) * a1 ^ a2\n"
        "d a6 = (2/3-i) * a1 ^ ~a3 + (1+1/5i) * a2 ^ a4\n"
    )
    oracle = OracleAlgebra.from_spec(spec, scalar_to_sympy)
    expected = {(0, 1): (4, 6), (1, 1): (16, 30), (1, 2): (38, 62)}
    for (p, q), (bc, ae) in expected.items():
        assert (oracle.bott_chern_dim(p, q), oracle.aeppli_dim(p, q)) == (bc, ae)
        assert hodge_number(spec, "bott_chern", p, q) == bc
        assert hodge_number(spec, "aeppli", p, q) == ae


def test_each_matrix_content_is_ranked_once(monkeypatch):
    import nilcoh.linalg

    certified_rank = nilcoh.linalg._certified_rank
    eliminated = []

    def spy(rows, ncols):
        eliminated.append((tuple(rows), ncols))
        return certified_rank(rows, ncols)

    monkeypatch.setattr(nilcoh.linalg, "_certified_rank", spy)
    rng = random.Random(101)
    checked = 0
    for trial in range(3):
        spec = random_two_step(rng, 4, name="draw%d" % trial)
        validate(spec)
        eliminated.clear()
        for theory in THEORIES:
            hodge_table(spec, theory)
        contents = [(rows, ncols) for rows, ncols in eliminated if any(rows)]
        assert len(contents) == len(set(contents))
        checked += len(contents)
    assert checked


def test_repeated_bott_chern_numbers_rank_nothing_again(monkeypatch):
    import nilcoh.linalg

    spec = iwasawa_spec()
    grid = [(p, q) for p in range(4) for q in range(4)]
    first = [hodge_number(spec, "bott_chern", p, q) for p, q in grid]
    calls = []
    certified_rank = nilcoh.linalg._certified_rank
    monkeypatch.setattr(
        nilcoh.linalg, "_certified_rank", lambda *args: calls.append(args) or certified_rank(*args)
    )
    assert [hodge_number(spec, "bott_chern", p, q) for p, q in grid] == first
    assert calls == []


def test_each_group_is_one_cached_pair(monkeypatch):
    import nilcoh.cohomology
    import nilcoh.linalg

    calls = {}

    def spy(module, name):
        fn = getattr(module, name)
        calls[name] = []
        monkeypatch.setattr(module, name, lambda *args: calls[name].append(args) or fn(*args))

    for name in ("subquotient_dim", "_kernel_vectors", "greedy_complement", "rank"):
        spy(nilcoh.cohomology, name)
    spy(nilcoh.linalg, "_certified_rank")
    spec = catalog_get("exnilp_ones(3)").spec
    p, q = 1, 1
    for theory in THEORIES:
        hodge_number(spec, theory, p, q)
        class_representatives(spec, theory, p, q)
        kernel_of, image = _theory_operators(spec, theory, p, q)
        kernel_arg, image_arg = calls["subquotient_dim"][-1]
        assert kernel_arg is kernel_of and image_arg is image
        assert calls["_kernel_vectors"][-1][0] is kernel_of
        assert calls["greedy_complement"][-1][0] is image
    natural_map_rank(spec, p, q)
    closed, exact = _theory_operators(spec, "bott_chern", p, q)
    join = _theory_operators(spec, "aeppli", p, q)[1]
    assert join.cols == component_masks(3, 0, 1) + component_masks(3, 1, 0)
    assert any(join.int_rows())
    kernel_arg, image_arg = calls["subquotient_dim"][-1]
    assert kernel_arg is closed and image_arg is exact
    ranked = [args[0] for args in calls["rank"]]
    assert len(ranked) == 3 and ranked[0] is join and ranked[2] is exact
    # hodge_number ranked the join; natural_map_rank reused its stored rank
    assert [rows for rows, _ in calls["_certified_rank"] if rows == join.int_rows()] == [
        join.int_rows()
    ]


def test_natural_map_rank_equals_joint_operator_reference():
    rng = random.Random(103)
    for trial in range(6):
        spec = random_two_step(rng, 1 + trial % 4, name="draw%d" % trial)
        n = spec.n
        for p in range(n + 1):
            for q in range(n + 1):
                closed = vstack(
                    operator_matrix(spec, "del", p, q), operator_matrix(spec, "delbar", p, q)
                )
                image = hstack(
                    operator_matrix(spec, "del", p - 1, q),
                    operator_matrix(spec, "delbar", p, q - 1),
                )
                exact = operator_matrix(spec, "deldelbar", p - 1, q - 1)
                kernel_dim = rank(image) - rank(closed @ image) - rank(exact)
                h_bc = hodge_number(spec, "bott_chern", p, q)
                assert natural_map_rank(spec, p, q) == h_bc - kernel_dim


def _vector_form(n, cols, vec):
    return Form({bf: c for bf, c in zip(basis_forms(n, cols), vec) if c})


def _reference_representatives(spec, theory, p, q):
    """The public rational ``kernel_basis`` of the group's kernel operator,
    kept where its column is a pivot of the RREF of [image | kernel
    vectors] over Q(i), computed by sympy."""
    kernel_of, image = _theory_operators(spec, theory, p, q)
    vectors = kernel_basis(kernel_of)

    def qq_i(z):
        return QQ_I(z.re, z.im)

    joined = [
        [qq_i(z) for z in row] + [qq_i(v[i]) for v in vectors]
        for i, row in enumerate(image.entries)
    ]
    shape = (image.nrows, image.ncols + len(vectors))
    pivots = DomainMatrix(joined, shape, QQ_I).rref()[1]
    chosen = [j - image.ncols for j in pivots if j >= image.ncols]
    return [_vector_form(spec.n, kernel_of.cols, vectors[k]) for k in chosen]


def test_representatives_and_holomorphic_forms_equal_a_rational_reference():
    rng = random.Random(139)
    for trial in range(9):
        spec = random_two_step(
            rng,
            2 + trial % 3,
            name="draw%d" % trial,
            coefficient=lambda r: rand_gauss_over(r, (1, 2, 3)),
        )
        m = operator_matrix(spec, "delbar", 1, 0)
        assert holomorphic_one_forms(spec) == [
            _vector_form(spec.n, m.cols, v) for v in kernel_basis(m)
        ]
        for theory in THEORIES:
            for p in range(spec.n + 1):
                for q in range(spec.n + 1):
                    got = class_representatives(spec, theory, p, q)
                    assert got == _reference_representatives(spec, theory, p, q)
                    assert len(got) == hodge_number(spec, theory, p, q)
