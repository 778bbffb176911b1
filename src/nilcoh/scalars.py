"""Exact arithmetic in the field Q(i) of Gaussian rationals.

A Gaussian rational is ``re + im*i`` with ``re, im`` arbitrary-precision
rationals (stdlib :class:`fractions.Fraction`); a float part, no exact
value, is refused with TypeError.  The package computes over Z[i] and
shows Q(i) where a value is read, and this module owns the exchange:
:func:`_over`, :func:`_dense`, :func:`_integer_rows` and :func:`_quotient`.

Scalars print in the structure-file syntax, e.g. ``3``, ``-1/2``, ``2i``,
``1/2-3i``; :func:`parse_scalar` reads the same syntax back.
"""

from __future__ import annotations

import math
import re as _re
from fractions import Fraction

_RAT = r"[+-]?\d+(?:/\d+)?"
_SCALAR_RE = _re.compile(
    r"^\s*(?:"
    r"(?P<re_only>{rat})"  # 3, -1/2
    r"|(?P<im_only>{rat})\s*i"  # 3i, -1/2i
    r"|(?P<sign_i>[+-]?)\s*i"  # i, -i
    r"|(?P<re_part>{rat})\s*(?P<op>[+-])\s*(?:(?P<im_part>\d+(?:/\d+)?)\s*)?i"  # 1+2i, 1/2-3/4i, 1+i
    r")\s*$".format(rat=_RAT),
    _re.ASCII,
)


class GaussianRational:
    """An element of Q(i), stored as a pair of reduced Fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # a Fraction is immutable and already reduced: keep it, not a copy
        object.__setattr__(self, "re", re if type(re) is Fraction else _exact(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else _exact(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- field operations ------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """|z|^2 = z * conj(z), an exact nonnegative rational."""
        return self.re * self.re + self.im * self.im

    # -- predicates and hashing ------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- formatting ------------------------------------------------------

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return "%si" % self.im
        if self.im > 0:
            return "%s+%si" % (self.re, self.im)
        return "%s-%si" % (self.re, -self.im)

    def __repr__(self):
        return "GaussianRational(%r, %r)" % (str(self.re), str(self.im))


def _exact(x) -> Fraction:
    """``x`` as a Fraction; a float is refused, not read as the binary fraction it is."""
    if isinstance(x, float):
        raise TypeError("a Gaussian rational takes exact parts, not the float %r" % x)
    return Fraction(x)


def _over(re, im, den) -> GaussianRational:
    """The Gaussian rational (re + im i) / den, den a positive integer."""
    return GaussianRational(Fraction(re, den), Fraction(im, den))


def _dense(cells, den, ncols) -> tuple:
    """The ``ncols`` Gaussian rationals holding (re + im i) / den in the
    column of each (column, re, im) of ``cells``, and 0 elsewhere."""
    out = [GaussianRational(0)] * ncols
    for j, re, im in cells:
        out[j] = _over(re, im, den)
    return tuple(out)


def _denominator(values):
    """The lcm of the denominators of some Gaussian rationals."""
    denom = 1
    for z in values:
        denom = math.lcm(denom, z.re.denominator, z.im.denominator)
    return denom


def _scaled_rows(rows, den):
    """Rows given by (key, Gaussian rational) pairs, some of them zero,
    as tuples of (key, re, im) triples of their nonzero entries times
    ``den``, a common multiple of their denominators."""
    return [
        tuple(
            (
                j,
                z.re.numerator * (den // z.re.denominator),
                z.im.numerator * (den // z.im.denominator),
            )
            for j, z in row
            if z
        )
        for row in rows
    ]


def _integer_rows(rows):
    """``(int_rows, L)``: rows of (key, Gaussian rational) pairs as the
    Gaussian-integer rows of :func:`_scaled_rows` over L, the lcm of their denominators."""
    rows = [tuple(row) for row in rows]
    den = _denominator(z for row in rows for _, z in row)
    return _scaled_rows(rows, den), den


def _quotient(vec, d):
    """``vec``, a dict key -> (re, im) of Gaussian integers, divided by d =
    (dr, di) != 0: the (key, re, im) triples of vec * conj(d), and |d|^2."""
    dr, di = d
    terms = [(j, re * dr + im * di, im * dr - re * di) for j, (re, im) in vec.items()]
    return terms, dr * dr + di * di


def parse_scalar(text: str) -> GaussianRational:
    """Parse a scalar literal: ``<rat>``, ``<rat>i``, ``<rat>+<rat>i``,
    ``<rat>-<rat>i`` (plus bare ``i`` / ``-i``), where ``<rat>`` is an
    optionally signed integer or ``p/q`` with q nonzero."""
    m = _SCALAR_RE.match(text)
    if m is None:
        raise ValueError("malformed scalar %.60r" % text)
    try:
        return _scalar_from_match(m)
    except ZeroDivisionError:
        raise ValueError("zero denominator in scalar %.60r" % text) from None


def parse_rational(text: str) -> Fraction:
    """Parse ``<rat>`` of :func:`parse_scalar` alone: an optionally signed
    integer or ``p/q`` in ASCII digits, q nonzero."""
    m = _SCALAR_RE.match(text)
    if m is None or m.group("re_only") != text:  # no other form, no blanks
        raise ValueError("malformed rational %.60r" % text)
    try:
        return _fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in rational %.60r" % text) from None


def _fraction(text: str) -> Fraction:
    """The Fraction of a matched ``<rat>``: its digit groups are ASCII, so
    ``int`` reads them directly (ZeroDivisionError for a zero denominator)."""
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def _scalar_from_match(m) -> GaussianRational:
    if m.group("re_only") is not None:
        return GaussianRational(_fraction(m.group("re_only")))
    if m.group("im_only") is not None:
        return GaussianRational(0, _fraction(m.group("im_only")))
    if m.group("sign_i") is not None and m.group("re_part") is None:
        return GaussianRational(0, -1 if m.group("sign_i") == "-" else 1)
    re_part = _fraction(m.group("re_part"))
    im_part = _fraction(m.group("im_part")) if m.group("im_part") else Fraction(1)
    if m.group("op") == "-":
        im_part = -im_part
    return GaussianRational(re_part, im_part)
