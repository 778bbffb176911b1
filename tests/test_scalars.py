"""Exact Gaussian-rational arithmetic and the scalar syntax."""

import random
from fractions import Fraction

import pytest
import sympy

from nilcoh.scalars import GaussianRational, parse_scalar

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
