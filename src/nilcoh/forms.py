"""Complexified exterior algebra on generators a1..an and their conjugates.

A :class:`BasisForm` is a wedge monomial ``a_S ^ ~a_T`` written in canonical
order: the holomorphic factors first in ascending index order, then the
anti-holomorphic factors in ascending order.  ``S`` and ``T`` are strictly
increasing index tuples, so a monomial of bidegree (p, q) has |S| = p and
|T| = q.  A :class:`Form` is a finite Q(i)-linear combination of monomials.
Its constructor is the one place that sums the coefficients of repeated
monomials and drops zero ones: sum, negation, scalar multiple, wedge and
conjugation each list their (monomial, coefficient) pairs and pass them to it.

A monomial is also a bitmask, a_j bit j - 1 and ~a_j bit n + j - 1, so the
canonical factor order is the order of the bits.  The bases of the
operator matrices are tuples of masks (:func:`component_masks`,
:func:`degree_masks`).  :func:`_mask` encodes a BasisForm as its mask, and
its inverse :func:`_mask_form` is the one place a mask combination becomes
a Form of BasisForms.

Sign conventions (fixed once, used everywhere):

* wedge concatenates factor words and sorts back to canonical order with
  the transposition sign, vanishing on repeated factors;
* conjugation is the antilinear involution with conj(a_j) = ~a_j, so
  ``conj(a_S ^ ~a_T) = (-1)^(|S||T|) a_T ^ ~a_S``.

Worked examples::

    a1 ^ a1            == 0
    ~a1 ^ a1           == -(a1 ^ ~a1)
    (a1^~a2) ^ (a2^~a1) == a1 ^ a2 ^ ~a1 ^ ~a2
    conj(a1 ^ ~a1)     == -(a1 ^ ~a1)
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

from .scalars import GaussianRational, _over


def _merge_sign(left: tuple, right: tuple) -> int:
    """Sign of the shuffle sorting the concatenation of two disjoint
    ascending tuples: (-1)^(number of transposed pairs)."""
    inv = 0
    for x in left:
        for y in right:
            if y < x:
                inv += 1
    return -1 if inv & 1 else 1


def _merge(left: tuple, right: tuple) -> tuple:
    return tuple(sorted(left + right))


class BasisForm:
    """Canonical wedge monomial a_S ^ ~a_T (the empty monomial is 1)."""

    __slots__ = ("holo", "anti")

    def __init__(self, holo=(), anti=()):
        holo = tuple(holo)
        anti = tuple(anti)
        if any(holo[i] >= holo[i + 1] for i in range(len(holo) - 1)):
            raise ValueError("holomorphic indices must be strictly increasing")
        if any(anti[i] >= anti[i + 1] for i in range(len(anti) - 1)):
            raise ValueError("anti-holomorphic indices must be strictly increasing")
        if (holo and holo[0] < 1) or (anti and anti[0] < 1):
            raise ValueError("generator indices are 1-based")
        object.__setattr__(self, "holo", holo)
        object.__setattr__(self, "anti", anti)

    def __setattr__(self, name, value):
        raise AttributeError("BasisForm is immutable")

    @property
    def p(self) -> int:
        return len(self.holo)

    @property
    def q(self) -> int:
        return len(self.anti)

    @property
    def degree(self) -> int:
        return len(self.holo) + len(self.anti)

    def bidegree(self) -> tuple[int, int]:
        return (len(self.holo), len(self.anti))

    def max_index(self) -> int:
        return max(self.holo + self.anti, default=0)

    def sort_key(self):
        return (self.degree, len(self.holo), self.holo, self.anti)

    def shift(self, offset: int) -> "BasisForm":
        return BasisForm(
            tuple(j + offset for j in self.holo), tuple(j + offset for j in self.anti)
        )

    def __eq__(self, other):
        return (
            isinstance(other, BasisForm)
            and self.holo == other.holo
            and self.anti == other.anti
        )

    def __hash__(self):
        return hash((self.holo, self.anti))

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __str__(self):
        parts = ["a%d" % j for j in self.holo] + ["~a%d" % j for j in self.anti]
        return "^".join(parts) if parts else "1"

    def __repr__(self):
        return "BasisForm(%r, %r)" % (self.holo, self.anti)


UNIT = BasisForm((), ())


def _mask(n: int, bf: BasisForm) -> int:
    """The monomial as a bitmask: a_j is bit j - 1 and ~a_j bit n + j - 1,
    so the canonical factor order is the order of the bits."""
    return sum(1 << (j - 1) for j in bf.holo) + sum(1 << (n + j - 1) for j in bf.anti)


def _mask_indices(mask):
    """The 1-based indices of the set bits of ``mask``."""
    return tuple(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


@cache
def component_masks(n: int, p: int, q: int) -> tuple:
    """Canonical ordered basis of the (p,q) component as bitmasks (a_j is
    bit j - 1, ~a_j bit n + j - 1), lex on (S,T); empty outside
    0 <= p, q <= n."""
    if p < 0 or q < 0 or p > n or q > n:
        return ()
    holo = [sum(1 << j for j in s) for s in combinations(range(n), p)]
    anti = [sum(1 << (n + j) for j in t) for t in combinations(range(n), q)]
    return tuple(h | a for h in holo for a in anti)


@cache
def degree_masks(n: int, k: int) -> tuple:
    """Canonical ordered basis of the total degree-k space as bitmasks, by
    ascending p."""
    return sum((component_masks(n, p, k - p) for p in range(k + 1)), ())


def wedge_basis(x: BasisForm, y: BasisForm):
    """Wedge of two monomials: (sign, BasisForm), or (0, None) if a factor
    repeats.  The sign moves y's holomorphic block left across x's
    anti-holomorphic block, then merge-sorts both blocks."""
    if set(x.holo) & set(y.holo) or set(x.anti) & set(y.anti):
        return 0, None
    sign = -1 if (len(y.holo) * len(x.anti)) & 1 else 1
    sign *= _merge_sign(x.holo, y.holo) * _merge_sign(x.anti, y.anti)
    return sign, BasisForm(_merge(x.holo, y.holo), _merge(x.anti, y.anti))


class Form:
    """A Q(i)-linear combination of canonical monomials.

    Supports ``+``, ``-``, scalar ``*``, wedge via ``^``, and
    :meth:`conjugate`.  The constructor takes a dict or an iterable of
    (monomial, coefficient) pairs, sums repeated monomials and drops zero
    coefficients, so equality of forms is equality of term dictionaries.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for bf, c in terms.items() if isinstance(terms, dict) else terms:
                if not isinstance(c, GaussianRational):
                    c = GaussianRational(c)
                if not c:
                    continue
                prev = data.get(bf)
                if prev is None:
                    data[bf] = c
                else:
                    s = prev + c
                    if s:
                        data[bf] = s
                    else:
                        del data[bf]
        object.__setattr__(self, "_terms", data)

    def __setattr__(self, name, value):
        raise AttributeError("Form is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def scalar(cls, c):
        return cls({UNIT: c})

    @classmethod
    def monomial(cls, holo=(), anti=(), coeff=1):
        return cls({BasisForm(holo, anti): coeff})

    # -- inspection --------------------------------------------------------

    def terms(self):
        """Terms as (BasisForm, coefficient) pairs in canonical order."""
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    def coefficient(self, bf: BasisForm) -> GaussianRational:
        return self._terms.get(bf, GaussianRational(0))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def max_index(self) -> int:
        return max((bf.max_index() for bf in self._terms), default=0)

    def bidegree(self):
        """The (p, q) bidegree if homogeneous, else None.  Zero has no
        bidegree (returns None)."""
        degrees = {bf.bidegree() for bf in self._terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def homogeneous_components(self) -> dict:
        """Split into bidegree-homogeneous parts: {(p, q): Form}."""
        buckets = {}
        for bf, c in self._terms.items():
            buckets.setdefault(bf.bidegree(), {})[bf] = c
        return {pq: Form(t) for pq, t in sorted(buckets.items())}

    def component(self, p: int, q: int) -> "Form":
        return Form(
            {bf: c for bf, c in self._terms.items() if bf.bidegree() == (p, q)}
        )

    def degree_component(self, k: int) -> "Form":
        return Form({bf: c for bf, c in self._terms.items() if bf.degree == k})

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return Form([*self._terms.items(), *other._terms.items()])

    def __sub__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Form([(bf, -c) for bf, c in self._terms.items()])

    def __mul__(self, scalar):
        scalar = GaussianRational._coerce(scalar)
        if scalar is None:
            return NotImplemented
        return Form([(bf, c * scalar) for bf, c in self._terms.items()])

    __rmul__ = __mul__

    def __xor__(self, other):
        """Wedge product (associative, graded-commutative)."""
        if not isinstance(other, Form):
            return NotImplemented
        pairs = []
        for bx, cx in self._terms.items():
            for by, cy in other._terms.items():
                sign, bf = wedge_basis(bx, by)
                if sign:
                    c = cx * cy
                    pairs.append((bf, c if sign > 0 else -c))
        return Form(pairs)

    def conjugate(self) -> "Form":
        """Antilinear conjugation: conj(c a_S^~a_T) =
        conj(c) (-1)^(|S||T|) a_T^~a_S."""
        pairs = []
        for bf, c in self._terms.items():
            cc = c.conjugate()
            odd = (len(bf.holo) * len(bf.anti)) & 1
            pairs.append((BasisForm(bf.anti, bf.holo), -cc if odd else cc))
        return Form(pairs)

    def shift(self, offset: int) -> "Form":
        return Form({bf.shift(offset): c for bf, c in self._terms.items()})

    # -- comparison and display ---------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    def __str__(self):
        if not self._terms:
            return "0"
        return " + ".join("(%s)*%s" % (c, bf) for bf, c in self.terms())

    def __repr__(self):
        return "Form<%s>" % self


def alpha(*indices) -> Form:
    """The monomial a_{i1} ^ ... ^ a_{ik} as a Form (coefficient 1)."""
    return Form.monomial(tuple(indices), ())


def alphabar(*indices) -> Form:
    """The monomial ~a_{i1} ^ ... ^ ~a_{ik} as a Form (coefficient 1)."""
    return Form.monomial((), tuple(indices))


def wedge(x: Form, y: Form) -> Form:
    return x ^ y


def conjugate(x: Form) -> Form:
    return x.conjugate()


def _mask_form(n: int, terms, den) -> Form:
    """The Form of a dict mask -> (re, im) of Gaussian integers over
    ``den``, where a_j is bit j - 1 of a mask and ~a_j bit n + j - 1."""
    return Form(
        (BasisForm(_mask_indices(w & ((1 << n) - 1)), _mask_indices(w >> n)), _over(re, im, den))
        for w, (re, im) in terms.items()
    )
