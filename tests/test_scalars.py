"""Exact Gaussian-rational arithmetic and the scalar syntax."""

import random
from fractions import Fraction

import pytest
import sympy

from nilcoh.scalars import GaussianRational, _over, _quotient, parse_scalar

from oracle import scalar_to_sympy


def rand_scalar(rng):
    return GaussianRational(
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
    )


def test_construction_and_equality():
    a = GaussianRational(Fraction(1, 2), Fraction(-3))
    assert a.re == Fraction(1, 2) and a.im == -3
    assert a == GaussianRational(Fraction(2, 4), Fraction(-3, 1))
    assert hash(a) == hash(GaussianRational(Fraction(1, 2), -3))
    assert GaussianRational(0) == GaussianRational(0, 0)
    assert not GaussianRational(0)
    assert GaussianRational(0, 1)


def test_parts_are_plain_fractions():
    class Half(Fraction):
        pass

    half = Fraction(1, 2)
    a = GaussianRational(half, Half(1, 2))
    assert a.re is half  # kept, not copied
    assert type(a.im) is Fraction and a.im == half
    assert type(GaussianRational(3).re) is Fraction
    assert str(a) == "1/2+1/2i" and hash(a) == hash(GaussianRational("1/2", "1/2"))


def test_field_operations_against_sympy():
    rng = random.Random(11)
    for _ in range(200):
        a, b = rand_scalar(rng), rand_scalar(rng)
        sa, sb = scalar_to_sympy(a), scalar_to_sympy(b)
        assert scalar_to_sympy(a + b) == sympy.expand(sa + sb)
        assert scalar_to_sympy(a - b) == sympy.expand(sa - sb)
        assert scalar_to_sympy(a * b) == sympy.expand(sa * sb)
        assert scalar_to_sympy(-a) == sympy.expand(-sa)
        assert scalar_to_sympy(a.conjugate()) == sympy.expand(sympy.conjugate(sa))
        assert a.norm() == Fraction(
            int(sympy.expand(sa * sympy.conjugate(sa)).p),
            int(sympy.expand(sa * sympy.conjugate(sa)).q),
        )
        if b:
            assert sympy.simplify(scalar_to_sympy(a / b) - sa / sb) == 0
            assert (a / b) * b == a


def test_floats_are_refused():
    for re, im in ((0.1, 0), (1, 0.5), (Fraction(1, 2), 2.0), (float("nan"), 0)):
        with pytest.raises(TypeError, match="float"):
            GaussianRational(re, im)
    with pytest.raises(TypeError):
        GaussianRational(1) + 0.5
    assert GaussianRational(1, "1/2") == GaussianRational(Fraction(1), Fraction(1, 2))
    assert GaussianRational("-3/6") == GaussianRational(Fraction(-1, 2))


def test_over_and_quotient_agree_with_division():
    """(re + im i) / den by ``_over``, and a Gaussian-integer vector, zero
    entries included, divided by a nonzero Gaussian integer by ``_quotient``,
    equal the same divisions done in Q(i)."""
    rng = random.Random(17)
    for _ in range(200):
        re, im, den = rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 12)
        assert _over(re, im, den) == GaussianRational(re, im) / den
        vec = {j: (rng.randint(-3, 3), rng.randint(-3, 3)) for j in range(rng.randint(0, 6))}
        vec[rng.randint(0, 9)] = (0, 0)
        d = (0, 0)
        while d == (0, 0):
            d = (rng.randint(-4, 4), rng.randint(-4, 4))
        terms, norm = _quotient(vec, d)
        assert norm == d[0] ** 2 + d[1] ** 2
        assert {j: _over(xr, xi, norm) for j, xr, xi in terms} == {
            j: GaussianRational(*x) / GaussianRational(*d) for j, x in vec.items()
        }


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


def test_integer_coercion():
    a = GaussianRational(0, 1)
    assert a * 2 == GaussianRational(0, 2)
    assert 2 * a == GaussianRational(0, 2)
    assert a + 1 == GaussianRational(1, 1)
    assert a - Fraction(1, 2) == GaussianRational(Fraction(-1, 2), 1)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3", GaussianRational(3)),
        ("-1/2", GaussianRational(Fraction(-1, 2))),
        ("2i", GaussianRational(0, 2)),
        ("-i", GaussianRational(0, -1)),
        ("i", GaussianRational(0, 1)),
        ("1/2-3i", GaussianRational(Fraction(1, 2), -3)),
        ("1+i", GaussianRational(1, 1)),
        ("-2/3+5/7i", GaussianRational(Fraction(-2, 3), Fraction(5, 7))),
        ("0", GaussianRational(0)),
        ("1/2 - 3i", GaussianRational(Fraction(1, 2), -3)),
    ],
)
def test_parse_scalar(text, expected):
    assert parse_scalar(text) == expected


@pytest.mark.parametrize("text", ["", "1//2", "i2", "1+", "2j", "1 2", "+-1"])
def test_parse_scalar_rejects(text):
    with pytest.raises(ValueError):
        parse_scalar(text)


def test_format_round_trip():
    rng = random.Random(13)
    for _ in range(300):
        a = rand_scalar(rng)
        assert parse_scalar(str(a)) == a
    for special in (
        GaussianRational(0),
        GaussianRational(0, 1),
        GaussianRational(0, -1),
        GaussianRational(1),
        GaussianRational(-1),
        GaussianRational(0, Fraction(-2, 3)),
    ):
        assert parse_scalar(str(special)) == special
