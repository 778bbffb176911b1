"""Exact arithmetic in the field Q(i) of Gaussian rationals.

A Gaussian rational is ``re + im*i`` with ``re, im`` arbitrary-precision
rationals (stdlib :class:`fractions.Fraction`).  All computations in this
package use this field; no floating point appears anywhere.

Scalars print in the structure-file syntax, e.g. ``3``, ``-1/2``, ``2i``,
``1/2-3i``; :func:`parse_scalar` reads the same syntax back.
"""

from __future__ import annotations

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
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

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


def parse_scalar(text: str) -> GaussianRational:
    """Parse a scalar literal: ``<rat>``, ``<rat>i``, ``<rat>+<rat>i``,
    ``<rat>-<rat>i`` (plus bare ``i`` / ``-i``), where ``<rat>`` is an
    optionally signed integer or ``p/q`` with q nonzero."""
    m = _SCALAR_RE.match(text)
    if m is None:
        raise ValueError("malformed scalar %r" % text)
    try:
        return _scalar_from_match(m)
    except ZeroDivisionError:
        raise ValueError("zero denominator in scalar %r" % text) from None


def _scalar_from_match(m) -> GaussianRational:
    if m.group("re_only") is not None:
        return GaussianRational(Fraction(m.group("re_only")))
    if m.group("im_only") is not None:
        return GaussianRational(0, Fraction(m.group("im_only")))
    if m.group("sign_i") is not None and m.group("re_part") is None:
        return GaussianRational(0, -1 if m.group("sign_i") == "-" else 1)
    re_part = Fraction(m.group("re_part"))
    im_part = Fraction(m.group("im_part")) if m.group("im_part") else Fraction(1)
    if m.group("op") == "-":
        im_part = -im_part
    return GaussianRational(re_part, im_part)
