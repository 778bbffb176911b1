"""Cohomology dimensions: worked values, symmetries, oracle agreement."""

import random
from math import comb

import pytest
from sympy import QQ_I
from sympy.polys.matrices import DomainMatrix

from nilcoh.algebra import AlgebraSpec, NotAComplex, d, del_, delbar, deldelbar, validate
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
    THEORY_TABLE,
    _swap,
    _theory_operators,
    _unimodular,
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
from nilcoh.linalg import IndexedMatrix, hstack, kernel_basis, rank, subquotient_dim, vstack
from nilcoh.metrics import CONDITIONS, check_condition, diagonal_metric, scan_diagonal_metrics
from nilcoh.obstructions import (
    gap_verdict,
    holomorphic_one_forms,
    jost_yau,
    kunneth_check,
    l_functional,
    obstruction_report,
    torality_check,
)
from nilcoh.scalars import GaussianRational

from oracle import OracleAlgebra, scalar_to_sympy
from generators import (
    NON_UNIMODULAR,
    basis_forms,
    rand_gauss_over,
    random_layered,
    random_two_step,
)
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


# every public computation on a complex, by name, as a function of the spec;
# the metric checks use the identity metric
_ENTRY_POINTS = {
    **{"hodge_number:" + t: lambda s, t=t: hodge_number(s, t, 1, 1) for t in THEORIES},
    **{"hodge_table:" + t: lambda s, t=t: hodge_table(s, t) for t in THEORIES},
    "derham_betti": derham_betti,
    "class_representatives": lambda s: class_representatives(s, "aeppli", 0, 1),
    "natural_map_rank": lambda s: natural_map_rank(s, 1, 1),
    "holomorphic_one_forms": holomorphic_one_forms,
    "jost_yau": jost_yau,
    "gap_verdict": gap_verdict,
    "kunneth_check:left": lambda s: kunneth_check(s, torus_spec(1)),
    "kunneth_check:right": lambda s: kunneth_check(torus_spec(1), s),
    **{
        "metric:" + c: lambda s, c=c: check_condition(s, diagonal_metric(s.n), c)
        for c in (*CONDITIONS, "pluriclosed:1", "pluriclosed:2")
    },
    "scan_diagonal_metrics": lambda s: next(scan_diagonal_metrics(s, [1], "skt")),
    "l_functional": lambda s: l_functional(s, diagonal_metric(s.n)),
    "obstruction_report": obstruction_report,
    "obstruction_report:metric": lambda s: obstruction_report(s, diagonal_metric(s.n)),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_jacobi_failing_spec_has_no_cohomology(entry):
    # d d a2 = -a1 ^ d ~a2 = -a1 ^ ~a1 ^ a2 != 0; at n = 2, astheno and
    # pluriclosed:2 take the exponent-0 shortcut and are refused all the same
    spec = AlgebraSpec("bad", 2, [Form(), alpha(1) ^ alphabar(2)])
    assert [i for i, _ in validate(spec).failing_generators] == [2]
    assert not validate(spec).jacobi_ok and torality_check(spec) == "not_applicable"
    message = "spec fails the Jacobi check; no cohomology defined"
    with pytest.raises(NotAComplex, match=message) as caught:
        _ENTRY_POINTS[entry](spec)
    assert isinstance(caught.value, ValueError) and caught.value.spec is spec


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
    # entry by entry, as a table copies one half once it is certified
    for key in catalog_list():
        spec = catalog_get(key).spec
        if not validate(spec).jacobi_ok:
            continue
        for theory in ("bott_chern", "aeppli"):
            for p in range(spec.n + 1):
                for q in range(p):
                    assert hodge_number(spec, theory, p, q) == hodge_number(
                        spec, theory, q, p
                    ), (key, theory, p, q)


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


def _long_betti(spec):
    """b_0 .. b_{2n}, each from its own d matrices."""
    return [
        subquotient_dim(d_matrix(spec, k), d_matrix(spec, k - 1)) for k in range(2 * spec.n + 1)
    ]


def test_betti_palindrome_and_euler_zero():
    for key in ("iwasawa", "kodaira", "exnilp_ones(3)", "torus(2)"):
        spec = catalog_get(key).spec
        betti = _long_betti(spec)
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


def test_unknown_theory_is_refused_in_and_out_of_range():
    """Out of range a known theory gives 0 and no representatives, and an
    unknown one is refused there as it is in range."""
    iw = iwasawa_spec()
    for p, q in ((9, 9), (-1, 0), (1, 1)):
        with pytest.raises(ValueError, match="unknown theory"):
            hodge_number(iw, "bogus", p, q)
        with pytest.raises(ValueError, match="unknown theory"):
            class_representatives(iw, "bogus", p, q)
    for theory in THEORIES:
        for p, q in ((9, 9), (-1, 0), (4, 1), (2, -1)):
            assert hodge_number(iw, theory, p, q) == 0
            assert class_representatives(iw, theory, p, q) == []


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
    kept = {}
    for p in range(-1, n + 2):
        for q in range(-1, n + 2):
            for op in ("del", "delbar", "deldelbar"):
                kept[operator_matrix, op, p, q] = operator_matrix(spec, op, p, q)
            for theory in THEORIES:
                kept[_theory_operators, theory, p, q] = _theory_operators(spec, theory, p, q)
    for k in range(-1, 2 * n + 2):
        kept[d_matrix, k] = d_matrix(spec, k)
    assert built == []
    assert all(build(spec, *args) is out for (build, *args), out in kept.items())
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


def _long_way(spec):
    """Every table of ``spec`` with each entry computed on its own, on a
    copy of the spec that shares no cache with it: {theory: entries}, and
    the Betti numbers under "derham"."""
    fresh = type(spec)(spec.name, spec.n, spec.d_generators)
    n = spec.n
    out = {
        theory: [[hodge_number(fresh, theory, p, q) for q in range(n + 1)] for p in range(n + 1)]
        for theory in THEORIES
    }
    out["derham"] = _long_betti(fresh)
    return out


def _tables(spec):
    out = {theory: hodge_table(spec, theory).entries for theory in THEORIES}
    out["derham"] = derham_betti(spec)
    return out


def _certificates(spec):
    """Whether each table, and under "derham" the Betti numbers, may be
    mirrored on ``spec``: always for conjugation, else when unimodular."""
    unimodular = _unimodular(spec)
    return {
        theory: row[3] is _swap or unimodular for theory, row in THEORY_TABLE.items()
    } | {"derham": unimodular}


def _mirror_specs():
    rng = random.Random(131)
    specs = [catalog_get(key).spec for key in catalog_list()]
    specs += [random_two_step(rng, n, name="draw%d" % n) for n in (2, 3, 4, 5) for _ in range(3)]
    specs += [
        random_two_step(rng, n, name="q%d" % n, coefficient=lambda r: rand_gauss_over(r, (2, 3)))
        for n in (3, 4)
    ]
    specs += [random_layered(rng, rng.randint(2, 4)) for _ in range(16)]
    specs += [parse_structure_file(text) for text in NON_UNIMODULAR.values()]
    return [spec for spec in specs if validate(spec).jacobi_ok]


def test_tables_equal_every_entry_computed_the_long_way():
    """Each table, mirrored halves included, equals the table of entries
    each computed by hodge_number (or subquotient_dim on the d matrices),
    on certified and uncertified specs alike."""
    certified = set()
    for spec in _mirror_specs():
        assert _tables(spec) == _long_way(spec), spec.name
        certified.add(all(_certificates(spec).values()))
    assert certified == {True, False}


def test_every_catalog_entry_is_certified():
    for key in catalog_list():
        spec = catalog_get(key).spec
        assert all(_certificates(spec).values()), key


def test_certificates_read_the_top_operators():
    """Each duality certificate says that the operator into the top degree
    has no nonzeros, and fails exactly on the non-unimodular specs."""
    for spec in _mirror_specs():
        n = spec.n
        found = _certificates(spec)
        assert found["dolbeault"] == (not any(operator_matrix(spec, "delbar", n, n - 1).int_rows()))
        assert found["conj_dolbeault"] == (
            not any(operator_matrix(spec, "del", n - 1, n).int_rows())
        )
        assert found["derham"] == (not any(d_matrix(spec, 2 * n - 1).int_rows()))
        assert found["bott_chern"] is found["aeppli"] is True
        assert found["dolbeault"] == found["conj_dolbeault"] == found["derham"]
        if spec.name in NON_UNIMODULAR:
            assert not found["derham"]


def test_uncertified_mirrors_keep_asymmetric_entries():
    spec = parse_structure_file(NON_UNIMODULAR["nu"])
    assert _certificates(spec) == {
        "dolbeault": False,
        "conj_dolbeault": False,
        "bott_chern": True,
        "aeppli": True,
        "derham": False,
    }
    assert _tables(spec) == {
        "dolbeault": [[1, 1], [0, 0]],
        "conj_dolbeault": [[1, 0], [1, 0]],
        "bott_chern": [[1, 0], [0, 1]],
        "aeppli": [[1, 1], [1, 0]],
        "derham": [1, 1, 0],
    }
    for key in ("solv3", "mixed3"):
        spec = parse_structure_file(NON_UNIMODULAR[key])
        n = spec.n
        assert not any(_certificates(spec)[k] for k in ("dolbeault", "conj_dolbeault", "derham"))
        oracle = OracleAlgebra.from_spec(spec, scalar_to_sympy)
        tables = _tables(spec)
        assert tables["derham"] == [oracle.derham_dim(k) for k in range(2 * n + 1)]
        assert tables["derham"] != tables["derham"][::-1]
        for theory, dim in (
            ("dolbeault", oracle.dolbeault_dim),
            ("conj_dolbeault", oracle.conj_dolbeault_dim),
        ):
            t = tables[theory]
            assert t == [[dim(p, q) for q in range(n + 1)] for p in range(n + 1)]
            assert any(t[p][q] != t[n - p][n - q] for p in range(n + 1) for q in range(n + 1))


def _domain_degrees(monkeypatch):
    """(p, q) of the domain of every differential_matrix built from now on."""
    import nilcoh.cohomology

    built = []
    real = nilcoh.cohomology.differential_matrix

    def spy(spec, domain, codomain, dp=None):
        if domain:
            low = (1 << spec.n) - 1
            built.append(((domain[0] & low).bit_count(), (domain[0] >> spec.n).bit_count()))
        return real(spec, domain, codomain, dp)

    monkeypatch.setattr(nilcoh.cohomology, "differential_matrix", spy)
    return built


def test_a_second_table_builds_no_matrix(monkeypatch):
    spec = parse_structure_file("algebra memo dim 3\nd a3 = (1) * a1 ^ a2 + (1/2-i) * a1 ^ ~a2\n")
    built = _domain_degrees(monkeypatch)
    first = {theory: hodge_table(spec, theory).entries for theory in THEORIES}
    assert built
    built.clear()
    assert {theory: hodge_table(spec, theory).entries for theory in THEORIES} == first
    assert built == []


def test_certified_tables_build_only_their_half(monkeypatch):
    spec = parse_structure_file(
        "algebra guard dim 4\n"
        "d a3 = (1) * a1 ^ a2 + (1/2-i) * a1 ^ ~a2\n"
        "d a4 = (2) * a1 ^ a3 + (i) * a2 ^ ~a1\n"
    )
    assert validate(spec).jacobi_ok and all(_certificates(spec).values())
    n = spec.n
    built = _domain_degrees(monkeypatch)
    bc = hodge_table(spec, "bott_chern").entries
    assert built and all(p <= q for p, q in built)
    built.clear()
    betti = derham_betti(spec)
    assert built and all(p + q < n for p, q in built)
    monkeypatch.undo()
    long_way = _long_way(spec)
    assert (bc, betti) == (long_way["bott_chern"], long_way["derham"])
