"""Wedge algebra, canonical ordering, and conjugation."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from nilcoh.forms import (
    BasisForm,
    Form,
    _mask,
    alpha,
    alphabar,
    component_masks,
    conjugate,
    degree_masks,
    wedge,
)
from nilcoh.scalars import GaussianRational

from generators import basis_forms
from oracle import form_to_mv, mv_add, mv_conj, mv_equal, mv_wedge


def rand_form(rng, n, max_terms=3):
    """Random form with monomials of mixed bidegrees in n generators."""
    out = Form()
    for _ in range(rng.randint(1, max_terms)):
        p = rng.randint(0, n)
        q = rng.randint(0, n)
        holo = tuple(sorted(rng.sample(range(1, n + 1), p)))
        anti = tuple(sorted(rng.sample(range(1, n + 1), q)))
        c = GaussianRational(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        )
        out = out + c * Form({BasisForm(holo, anti): GaussianRational(1)})
    return out


def test_basis_form_validation():
    bf = BasisForm((1, 3), (2,))
    assert bf.p == 2 and bf.q == 1 and bf.degree == 3
    assert bf.bidegree() == (2, 1)
    with pytest.raises(ValueError):
        BasisForm((3, 1), ())
    with pytest.raises(ValueError):
        BasisForm((1, 1), ())
    with pytest.raises(ValueError):
        BasisForm((0,), ())


def test_string_rendering():
    assert str(alpha(1) ^ alphabar(2)) == "(1)*a1^~a2"
    assert str(alpha(1) ^ alpha(2)) == "(1)*a1^a2"
    assert str(Form()) == "0"
    f = (alpha(1) ^ alpha(2)) + GaussianRational(0, -1) * (alpha(1) ^ alphabar(1))
    assert str(f) == "(-1i)*a1^~a1 + (1)*a1^a2"


def test_wedge_reorders_with_sign():
    # anti-before-holo factors pick up the transposition sign
    assert (alphabar(1) ^ alpha(2)) == GaussianRational(-1) * (alpha(2) ^ alphabar(1))
    assert (alpha(2) ^ alpha(1)) == GaussianRational(-1) * (alpha(1) ^ alpha(2))
    assert (alpha(1) ^ alpha(1)).is_zero()
    assert (alphabar(3) ^ alphabar(3)).is_zero()


def test_wedge_against_oracle():
    rng = random.Random(23)
    for _ in range(120):
        n = rng.randint(2, 4)
        f, g = rand_form(rng, n), rand_form(rng, n)
        ours = form_to_mv(wedge(f, g))
        theirs = mv_wedge(form_to_mv(f), form_to_mv(g))
        assert mv_equal(ours, theirs)


def test_wedge_graded_commutativity():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(2, 4)
        p = rng.randint(0, 2)
        q = rng.randint(0, 2)
        f = rand_form(rng, n).component(p, q)
        g = rand_form(rng, n)
        sign = GaussianRational(-1 if (p + q) % 2 else 1)
        swapped = Form()
        for (pp, qq), part in g.homogeneous_components().items():
            s = GaussianRational(-1) if ((pp + qq) * (p + q)) % 2 else GaussianRational(1)
            swapped = swapped + s * wedge(part, f)
        assert wedge(f, g) == swapped


def test_wedge_associativity():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 4)
        f, g, h = (rand_form(rng, n) for _ in range(3))
        assert wedge(wedge(f, g), h) == wedge(f, wedge(g, h))


def test_conjugation_is_antilinear_involution():
    rng = random.Random(37)
    for _ in range(80):
        n = rng.randint(2, 4)
        f, g = rand_form(rng, n), rand_form(rng, n)
        c = GaussianRational(Fraction(2, 3), -1)
        assert conjugate(conjugate(f)) == f
        assert conjugate(f + g) == conjugate(f) + conjugate(g)
        assert conjugate(c * f) == c.conjugate() * conjugate(f)
        assert mv_equal(form_to_mv(conjugate(f)), mv_conj(form_to_mv(f)))


def test_conjugation_swaps_bidegree():
    f = (alpha(1) ^ alpha(2)) ^ alphabar(3)
    g = conjugate(f)
    ((bideg, _),) = g.homogeneous_components().items()
    assert bideg == (1, 2)
    # conjugating a wedge equals the wedge of conjugates
    a, b = alpha(1) ^ alphabar(2), alpha(3)
    assert conjugate(wedge(a, b)) == wedge(conjugate(a), conjugate(b))


def test_component_projections():
    f = (alpha(1) ^ alpha(2)) + (alpha(1) ^ alphabar(1)) + alpha(1)
    assert f.component(2, 0) == alpha(1) ^ alpha(2)
    assert f.component(1, 1) == alpha(1) ^ alphabar(1)
    assert f.component(0, 1).is_zero()
    assert f.degree_component(2) == (alpha(1) ^ alpha(2)) + (alpha(1) ^ alphabar(1))
    assert f.degree_component(1) == alpha(1)


def test_coefficient_lookup():
    f = GaussianRational(0, 2) * (alpha(1) ^ alphabar(2))
    assert f.coefficient(BasisForm((1,), (2,))) == GaussianRational(0, 2)
    assert f.coefficient(BasisForm((2,), (1,))) == GaussianRational(0)


def test_float_coefficients_are_refused():
    with pytest.raises(TypeError, match="float"):
        Form({BasisForm((1,)): 0.1})
    with pytest.raises(TypeError):
        alpha(1) * 0.5
    assert Form({BasisForm((1,)): "1/10"}) == Form({BasisForm((1,)): Fraction(1, 10)})
    assert alpha(1) * 2 == Form({BasisForm((1,)): 2})


def test_shift_relabels_generators():
    f = (alpha(1) ^ alphabar(2)) + alpha(2)
    g = f.shift(3)
    assert g == (alpha(4) ^ alphabar(5)) + alpha(5)


def test_every_operation_drops_cancelled_terms():
    rng = random.Random(41)
    zero = GaussianRational(0)
    for _ in range(40):
        n = rng.randint(1, 4)
        f, g = rand_form(rng, n), rand_form(rng, n)
        for cancelled in (f + (-f), f - f, f * 0, 0 * f, f * zero):
            assert len(cancelled) == 0 and cancelled == Form()
        rest = (f + g) + (-f)
        assert len(rest) == len(g) and rest == g
        both = f + conjugate(f)
        expected = mv_add(form_to_mv(f), mv_conj(form_to_mv(f)))
        assert len(both) == len(expected) and mv_equal(form_to_mv(both), expected)
    bf = BasisForm((1,), (2,))
    assert len(Form({bf: 0})) == 0
    assert Form([(bf, 1), (bf, GaussianRational(0, 1)), (bf, -1)]) == Form({bf: GaussianRational(0, 1)})
    assert len(Form([(bf, 1), (bf, -1)])) == 0
    line = alpha(1) + alpha(2)
    assert len(line ^ line) == 0
    # conj(a1 ^ ~a1) = -(a1 ^ ~a1), so a real multiple cancels against it
    x = GaussianRational(3) * (alpha(1) ^ alphabar(1))
    assert len(x + conjugate(x)) == 0


def _canonical_basis(n, p, q):
    """The (p,q) monomials by definition: lex on (S, T), empty outside
    0 <= p, q <= n."""
    if not (0 <= p <= n and 0 <= q <= n):
        return []
    indices = range(1, n + 1)
    return [BasisForm(s, t) for s in combinations(indices, p) for t in combinations(indices, q)]


def test_mask_bases_equal_the_canonical_basis_forms_in_order():
    """The column order of every operator matrix: each (p,q) basis is the
    canonical BasisForm enumeration, and each degree-k basis their
    concatenation by ascending p, as masks in the same order."""
    for n in range(1, 7):
        for p in range(-1, n + 2):
            for q in range(-1, n + 2):
                expected = _canonical_basis(n, p, q)
                masks = component_masks(n, p, q)
                assert masks == tuple(_mask(n, bf) for bf in expected)
                assert basis_forms(n, masks) == expected
        for k in range(-1, 2 * n + 2):
            expected = [bf for p in range(k + 1) for bf in _canonical_basis(n, p, k - p)]
            assert degree_masks(n, k) == tuple(_mask(n, bf) for bf in expected)
