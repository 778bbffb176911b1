"""The differential, validation, nilpotency filtration, direct sums."""

import random
from fractions import Fraction

import pytest

from nilcoh.algebra import (
    MAX_DIM,
    AlgebraSpec,
    NotAComplex,
    d,
    del_,
    delbar,
    deldelbar,
    direct_sum,
    nilpotency_filtration,
    validate,
)
from nilcoh.catalog import (
    exnilp_spec,
    fps_spec,
    iwasawa_spec,
    kodaira_spec,
    nakamura_ce_spec,
    torus_spec,
)
from nilcoh.dsl import parse_structure_file
from nilcoh.forms import Form, alpha, alphabar, component_masks, conjugate
from nilcoh.scalars import GaussianRational

from generators import (
    NON_UNIMODULAR,
    basis_forms,
    rand_gauss_over,
    rand_rational,
    random_layered,
    random_two_step,
    rational_specs,
)
from oracle import OracleAlgebra, form_to_mv, mv_equal, scalar_to_sympy
from test_forms import rand_form


def rand_valid_spec(rng, n):
    """A random one-generator extension of an abelian core (always valid)."""
    m = n - 1
    A = [
        [
            GaussianRational(
                Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
            )
            if i < j
            else GaussianRational(0)
            for j in range(m)
        ]
        for i in range(m)
    ]
    B = [
        [
            GaussianRational(
                Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
            )
            for _ in range(m)
        ]
        for _ in range(m)
    ]
    return exnilp_spec(n, A, B)


def test_spec_validation_constraints():
    with pytest.raises(ValueError):
        AlgebraSpec("bad", 2, [Form(), alphabar(1) ^ alphabar(2)])  # (0,2) term
    with pytest.raises(ValueError):
        AlgebraSpec("bad", 2, [Form(), alpha(1) ^ alpha(3)])  # index out of range
    with pytest.raises(ValueError):
        AlgebraSpec("bad", 2, [Form()])  # wrong generator count
    # the dimension is checked before the generator differentials are read
    with pytest.raises(ValueError, match="exceeds the limit %d" % MAX_DIM):
        AlgebraSpec("big", MAX_DIM + 1, None)
    with pytest.raises(ValueError, match="positive"):
        AlgebraSpec("empty", 0, None)


def test_differential_on_generators():
    iw = iwasawa_spec()
    assert iw.d_alpha(3) == -(alpha(1) ^ alpha(2))
    assert iw.d_alphabar(3) == -(alphabar(1) ^ alphabar(2))
    ko = kodaira_spec()
    assert ko.d_alphabar(2) == -(alpha(1) ^ alphabar(1))


def test_d_is_an_antiderivation():
    rng = random.Random(67)
    specs = [iwasawa_spec(), kodaira_spec(), nakamura_ce_spec()]
    for _ in range(40):
        spec = rng.choice(specs)
        p = rng.randint(0, 2)
        q = rng.randint(0, 2)
        f = rand_form(rng, spec.n).component(p, q)
        g = rand_form(rng, spec.n)
        sign = GaussianRational(-1 if (p + q) % 2 else 1)
        lhs = d(spec, f ^ g)
        rhs = (d(spec, f) ^ g) + sign * (f ^ d(spec, g))
        assert lhs == rhs


def test_d_squared_zero_on_random_forms_of_valid_specs():
    rng = random.Random(71)
    for spec in (iwasawa_spec(), kodaira_spec(), nakamura_ce_spec(), torus_spec(3)):
        for _ in range(20):
            f = rand_form(rng, spec.n)
            assert d(spec, d(spec, f)).is_zero()


def test_d_commutes_with_conjugation():
    """d ~a_j is built as conj(d a_j), so d commutes with conjugation on
    every spec, nilpotent, layered or not unimodular; the Bott-Chern and
    Aeppli tables are mirrored on that alone."""
    rng = random.Random(73)
    specs = [iwasawa_spec(), nakamura_ce_spec()]
    specs += [
        random_two_step(rng, n, name="q%d" % n, coefficient=lambda r: rand_gauss_over(r, (2, 3)))
        for n in (2, 3, 4)
    ]
    specs += [random_layered(rng, rng.randint(2, 4)) for _ in range(4)]
    specs += [parse_structure_file(text) for text in NON_UNIMODULAR.values()]
    for spec in specs:
        for _ in range(25):
            f = rand_form(rng, spec.n)
            assert d(spec, conjugate(f)) == conjugate(d(spec, f)), spec.name


def test_bidegree_pieces_anticommute():
    rng = random.Random(79)
    for spec in (iwasawa_spec(), kodaira_spec()):
        for _ in range(25):
            f = rand_form(rng, spec.n)
            assert del_(spec, del_(spec, f)).is_zero()
            assert delbar(spec, delbar(spec, f)).is_zero()
            assert (del_(spec, delbar(spec, f)) + delbar(spec, del_(spec, f))).is_zero()
            assert deldelbar(spec, f) == del_(spec, delbar(spec, f))


def test_d_matches_oracle():
    rng = random.Random(83)
    specs = [
        iwasawa_spec(),
        kodaira_spec(),
        nakamura_ce_spec(),
        fps_spec(*(GaussianRational(k) for k in (1, -1, 2, 0, 1))),
    ]
    for spec in specs + rational_specs(rng):
        oracle = OracleAlgebra.from_spec(spec, scalar_to_sympy)
        for _ in range(10):
            f = rand_form(rng, spec.n)
            ours = form_to_mv(d(spec, f))
            theirs = oracle.d_mv(form_to_mv(f))
            assert mv_equal(ours, theirs)


def test_del_and_delbar_match_oracle():
    """del, delbar and deldelbar of forms with rational coefficients, random
    ones and ones on every monomial of bidegree (1,1) and (2,1), on specs
    with integer and with rational structure constants."""
    rng = random.Random(97)
    specs = [random_two_step(rng, rng.randint(1, 4), name="draw%d" % k) for k in range(12)]
    for spec in specs + rational_specs(rng):
        oracle = OracleAlgebra.from_spec(spec, scalar_to_sympy)
        forms = [rand_form(rng, spec.n) for _ in range(4)]
        forms += [
            Form({bf: rand_rational(rng) for bf in basis_forms(spec.n, component_masks(spec.n, p, q))})
            for p, q in ((1, 1), (2, 1))
        ]
        for f in forms:
            mv = form_to_mv(f)
            assert mv_equal(form_to_mv(del_(spec, f)), oracle.del_mv(mv))
            assert mv_equal(form_to_mv(delbar(spec, f)), oracle.delbar_mv(mv))
            assert mv_equal(
                form_to_mv(deldelbar(spec, f)), oracle.del_mv(oracle.delbar_mv(mv))
            )


def test_validate_worked_examples():
    rep = validate(iwasawa_spec())
    assert rep.jacobi_ok and rep.nilpotent_J and rep.filtration == [4, 6]

    rep = validate(torus_spec(3))
    assert rep.jacobi_ok and rep.nilpotent_J and rep.filtration == [6]

    rep = validate(kodaira_spec())
    assert rep.jacobi_ok and rep.nilpotent_J and rep.filtration == [3, 4]

    rep = validate(nakamura_ce_spec())
    assert rep.jacobi_ok and not rep.nilpotent_J and rep.filtration == [2, 2]


def test_a_second_validation_runs_no_filtration(monkeypatch):
    import nilcoh.algebra

    runs = []
    real = nilcoh.algebra.nilpotency_filtration
    monkeypatch.setattr(
        nilcoh.algebra, "nilpotency_filtration", lambda spec: runs.append(spec) or real(spec)
    )
    spec = iwasawa_spec()
    first = validate(spec)
    assert runs == [spec]
    assert validate(spec) is first
    assert runs == [spec]


def test_validate_rejects_non_integrable():
    spec = AlgebraSpec("bad2", 2, [Form(), alpha(1) ^ alphabar(2)])
    rep = validate(spec)
    assert not rep.jacobi_ok
    ((idx, value),) = rep.failing_generators
    assert idx == 2
    assert value == (alpha(1) ^ alpha(2)) ^ alphabar(1)
    assert rep.filtration == [] and not rep.nilpotent_J


def solv_spec():
    return AlgebraSpec("solv", 2, [Form(), (alpha(2) ^ alphabar(1)) + (alpha(1) ^ alphabar(1))])


def chain_spec(n):
    """d a_k = a1 ^ a_{k-1} for k >= 3: the flag climbs by two per step."""
    return AlgebraSpec("chain", n, [Form(), Form()] + [alpha(1) ^ alpha(k - 1) for k in range(3, n + 1)])


def test_non_nilpotent_two_dim():
    rep = validate(solv_spec())
    assert rep.jacobi_ok
    assert not rep.nilpotent_J
    assert rep.filtration == [2, 2]


def test_filtration_matches_oracle():
    rng = random.Random(15)
    specs = [nakamura_ce_spec(), solv_spec()]
    specs += [random_two_step(rng, rng.randint(2, 5), density=0.5) for _ in range(10)]
    # at n = 6 several generators bracket at once, into several blocks of one product row
    wide = random.Random(16)
    specs += [random_two_step(wide, 6, density=0.5) for _ in range(3)]
    layered = []
    while len(layered) < 40:
        spec = random_layered(rng, rng.randint(2, 4))
        if validate(spec).jacobi_ok:
            layered.append(spec)
    seen = set()
    for spec in specs + layered:
        rep = validate(spec)
        expected = OracleAlgebra.from_spec(spec, scalar_to_sympy).filtration()
        assert (rep.nilpotent_J, rep.filtration) == expected, spec.d_generators
        seen.add((rep.nilpotent_J, len(rep.filtration)))
    # past two steps: non-nilpotent layered draws here, nilpotent chains below
    assert (False, 3) in seen
    for n in range(3, 7):
        rep = validate(chain_spec(n))
        assert rep.nilpotent_J and rep.filtration == list(range(4, 2 * n + 1, 2))
        expected = OracleAlgebra.from_spec(chain_spec(n), scalar_to_sympy).filtration()
        assert (True, rep.filtration) == expected


def test_filtration_runs_only_the_forward_pass(monkeypatch):
    """Any echelon basis spans g^{l+1} and only dimensions are read, so
    the filtration never asks for the reduced form."""
    import nilcoh.algebra

    modes = []
    real = nilcoh.algebra._echelon

    def spy(rows, ncols, reduced):
        modes.append(reduced)
        return real(rows, ncols, reduced)

    monkeypatch.setattr(nilcoh.algebra, "_echelon", spy)
    for spec in (iwasawa_spec(), solv_spec(), chain_spec(5), nakamura_ce_spec()):
        nilcoh.algebra.nilpotency_filtration(spec)
    assert modes and not any(modes)


def test_filtration_makes_one_product_per_step(monkeypatch):
    """One bracket matrix holds ad of every generator, so each step of
    the series is one product."""
    from nilcoh.linalg import IndexedMatrix

    products = []
    real = IndexedMatrix.__matmul__
    monkeypatch.setattr(IndexedMatrix, "__matmul__", lambda a, b: products.append(b) or real(a, b))
    for spec in (iwasawa_spec(), solv_spec(), nakamura_ce_spec(), chain_spec(6)):
        products.clear()
        _, dims = nilpotency_filtration(spec)
        assert len(products) == len(dims), spec


def test_filtration_of_a_non_complex_raises():
    spec = AlgebraSpec("bad2", 2, [Form(), alpha(1) ^ alphabar(2)])
    with pytest.raises(NotAComplex):
        nilpotency_filtration(spec)


def test_filtration_at_the_dimension_limit():
    spec = AlgebraSpec("x", MAX_DIM, [Form()] * (MAX_DIM - 1) + [alpha(1) ^ alpha(2)])
    rep = validate(spec)
    assert rep.jacobi_ok and rep.nilpotent_J
    assert rep.filtration == [2 * MAX_DIM - 2, 2 * MAX_DIM]
    chain = validate(chain_spec(MAX_DIM))
    assert chain.nilpotent_J and chain.filtration == list(range(4, 2 * MAX_DIM + 1, 2))


def test_filtration_is_basis_change_invariant():
    # replace a3 by a3 + 2*a1 in the Iwasawa structure: d(new a3) unchanged
    spec = AlgebraSpec("iw2", 3, [Form(), Form(), -(alpha(1) ^ alpha(2))])
    assert validate(spec).filtration == validate(iwasawa_spec()).filtration
    # scale generators: d a3 = -2 a1^a2 has the same flag dimensions
    spec2 = AlgebraSpec(
        "iw3", 3, [Form(), Form(), GaussianRational(-2) * (alpha(1) ^ alpha(2))]
    )
    assert validate(spec2).filtration == [4, 6]


def test_random_one_step_specs_are_valid():
    rng = random.Random(89)
    for _ in range(25):
        n = rng.randint(3, 5)
        spec = rand_valid_spec(rng, n)
        rep = validate(spec)
        assert rep.jacobi_ok
        assert rep.nilpotent_J
        assert rep.filtration[-1] == 2 * n


def test_direct_sum_structure():
    both = direct_sum(kodaira_spec(), iwasawa_spec())
    assert both.n == 5
    assert both.d_alpha(2) == alpha(1) ^ alphabar(1)
    assert both.d_alpha(5) == -(alpha(3) ^ alpha(4))
    assert validate(both).jacobi_ok
    assert validate(both).nilpotent_J


def test_d_raises_on_out_of_range_indices():
    iw = iwasawa_spec()
    for op in (d, del_, delbar, deldelbar):
        for form in (alpha(4), alphabar(4), alpha(1) + (alpha(2) ^ alphabar(5))):
            with pytest.raises(ValueError, match="beyond dimension 3"):
                op(iw, form)
