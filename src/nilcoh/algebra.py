"""Structure specifications and the Chevalley-Eilenberg differential.

An :class:`AlgebraSpec` fixes a dimension ``n`` and the differentials of the
holomorphic generators: ``d a_i`` is a 2-form with only (2,0) and (1,1)
components (the integrability constraint, enforced on construction).  The
anti-holomorphic generators differentiate by conjugation,
``d ~a_i = conj(d a_i)``, which makes ``d`` commute with conjugation by
construction.  ``d`` extends to all forms as the unique anti-derivation,
and splits as ``d = del + delbar`` into the components raising the first
and second bidegree.

A monomial is also a bitmask (a_j is bit j - 1, ~a_j bit n + j - 1), and
each spec keeps one table of the generator differentials and their
conjugates as (mask, Gaussian integer) terms over the lcm L of their
denominators.  ``d`` of a monomial places each term g of d a_j straight
past the rest of the monomial, with the sign of g ^ rest times (-1)^k for
the factor's position k, both read off with ``int.bit_count``.  That one
routine, :func:`_d_terms`, applies d, del and delbar to Gaussian-integer
combinations: it builds the operator matrices of :func:`differential_matrix`,
and the Forms that d, del and delbar return are built from its final result.
The bases of those matrices are tuples of masks, which label their rows
and columns, so building one makes no :class:`~nilcoh.forms.BasisForm`.

The Jacobi identity of the dual Lie algebra is exactly ``d . d = 0``, and
on an anti-derivation that only needs checking on generators.  A spec that
fails it is no complex: :func:`require_complex` then raises :class:`NotAComplex`.

The nilpotency flag reads the series ``S_l = { phi : d phi in
Lambda^2(S_{l-1}) }`` of one-forms, S_0 = 0.  As d phi(X, Y) =
-phi([X, Y]), S_l = (g^{l+1})^perp for the lower central series g^1 = g,
g^{l+1} = [g, g^l] of the dual Lie algebra, so S_l reaches all 2n
one-forms exactly when g is nilpotent; the bracket is read off d on one-forms.
Integrability is not read off the series: :class:`AlgebraSpec` checks it.
"""

from __future__ import annotations

import functools
import math
import re as _re
from collections import namedtuple

from .forms import Form, _mask, _mask_form, _mask_indices, degree_masks
from .linalg import IndexedMatrix, _echelon
from .scalars import _integer_rows

_ALLOWED_BIDEGREES = {(2, 0), (1, 1)}

# The largest complex dimension a spec may have.  Even ``validate`` grows
# steeply with n, and callers allocate per generator (forms, coefficient
# grids) before a spec exists, so outside input is checked against this
# before anything of size n is built.
MAX_DIM = 64

NAME_RE = _re.compile(r"[A-Za-z_][A-Za-z0-9_]*")  # a spec name, as a file header writes it


def check_dimension(n: int) -> int:
    """``n`` itself, or ValueError unless 1 <= n <= :data:`MAX_DIM`."""
    if n < 1:
        raise ValueError("dimension n must be a positive integer")
    if n > MAX_DIM:
        raise ValueError("dimension n = %d exceeds the limit %d" % (n, MAX_DIM))
    return n


def parse_dimension(text: str) -> int:
    """The dimension written in ASCII digits in ``text``, checked by
    :func:`check_dimension`; too many digits are refused before ``int``."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError("dimension n must be written in the digits 0-9")
    digits = text.lstrip("0")
    if len(digits) > len(str(MAX_DIM)):
        raise ValueError("dimension n of %d digits exceeds the limit %d" % (len(digits), MAX_DIM))
    return check_dimension(int(digits or "0"))


class AlgebraSpec:
    """Dimension n plus the generator differentials d a_1 .. d a_n."""

    __slots__ = ("name", "n", "d_generators", "_caches")

    def __init__(self, name: str, n: int, d_generators):
        if not NAME_RE.fullmatch(name):
            raise ValueError("spec name %.60r is not an identifier %s" % (name, NAME_RE.pattern))
        check_dimension(n)
        d_generators = tuple(
            f if isinstance(f, Form) else Form(f) for f in d_generators
        )
        if len(d_generators) != n:
            raise ValueError("need exactly n generator differentials")
        for i, f in enumerate(d_generators, start=1):
            for bf, _ in f.terms():
                if bf.bidegree() not in _ALLOWED_BIDEGREES:
                    raise ValueError(
                        "d a%d has a term %s of bidegree %s; only (2,0) and "
                        "(1,1) terms are allowed" % (i, bf, bf.bidegree())
                    )
            if f.max_index() > n:
                raise ValueError(
                    "d a%d references generator a%d beyond dimension %d"
                    % (i, f.max_index(), n)
                )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d_generators", d_generators)
        object.__setattr__(self, "_caches", {})

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraSpec is immutable")

    def is_abelian(self) -> bool:
        return all(f.is_zero() for f in self.d_generators)

    def d_alpha(self, i: int) -> Form:
        return self.d_generators[i - 1]

    def d_alphabar(self, i: int) -> Form:
        return self.d_generators[i - 1].conjugate()

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraSpec)
            and self.name == other.name
            and self.n == other.n
            and self.d_generators == other.d_generators
        )

    __hash__ = None

    def __repr__(self):
        return "AlgebraSpec(%r, n=%d)" % (self.name, self.n)


def _per_spec(build):
    """Decorator: ``build(obj, *args)`` runs once per object and arguments,
    and later calls return its first result.  ``obj`` is any immutable
    object with a ``_caches`` slot (a spec, a metric); results are kept there
    under ``(build, *args)``, so two builders never share a key; this is the
    only reader of ``_caches``."""

    @functools.wraps(build)
    def memo(obj, *args):
        cache = obj._caches
        key = (build, *args)
        if key not in cache:
            cache[key] = build(obj, *args)
        return cache[key]

    return memo


class ValidationReport(namedtuple("ValidationReport", "failing_generators nilpotent_J filtration")):
    """Outcome of the Jacobi check plus the nilpotency flag data;
    ``failing_generators`` holds (index, d d a_i) pairs."""

    __slots__ = ()

    @property
    def jacobi_ok(self) -> bool:
        """Whether d.d = 0: no generator fails the Jacobi check."""
        return not self.failing_generators

    @property
    def validity(self) -> str:
        """The validity label of results on this spec: ``nilpotent_J`` when
        the nilpotency flag holds, ``ce_only`` otherwise."""
        return "nilpotent_J" if self.nilpotent_J else "ce_only"


# ---------------------------------------------------------------------------
# the differential and its bidegree components


@_per_spec
def _term_tables(spec: AlgebraSpec):
    """``(L, tables)``: L is the lcm of the denominators of the generator
    differentials.  ``tables[None]`` lists, for the bit b of each generator
    (holomorphic or not) whose differential is nonzero, the terms of that
    differential as ``(g, s, re, im)``: the term is (re + im i) / L times
    the monomial with mask g, and s is the mask whose overlap with the rest
    of a monomial gives the parity of the term's placement sign (see
    :func:`_d_terms`).  ``tables[1]`` and ``tables[0]`` keep the terms
    that raise p (for del) and q (for delbar).  Built once per spec."""
    n = spec.n
    holo = (1 << n) - 1
    factors = [(1 << (j - 1), spec.d_alpha(j)) for j in range(1, n + 1)]
    factors += [(1 << (n + j - 1), spec.d_alphabar(j)) for j in range(1, n + 1)]
    factors = [(b, dj) for b, dj in factors if dj]
    int_rows, den = _integer_rows(
        [(_mask(n, g), c) for g, c in dj.terms()] for _, dj in factors
    )
    tables = {None: [], 1: [], 0: []}
    for (b, _), row in zip(factors, int_rows):
        placed = {None: [], 1: [], 0: []}
        for g, re, im in row:
            s = b - 1
            for x in _mask_indices(g):
                s ^= (1 << (x - 1)) - 1
            term = (g, s, re, im)
            placed[None].append(term)
            placed[(g & holo).bit_count() - (b & holo).bit_count()].append(term)
        for dp, table in tables.items():
            if placed[dp]:
                table.append((b, tuple(placed[dp])))
    return den, {dp: tuple(t) for dp, t in tables.items()}


def _d_terms(table, terms) -> dict:
    """d (or with the del or delbar table, del or delbar) of ``terms``, a
    dict mask -> (re, im) of Gaussian integers, as the same kind of dict
    over the table's L.

    Each term g of d of the factor at bit b of a monomial m lands on
    rest | g, where rest is m without b, when g misses rest.  Its sign is
    (-1)^k, k the number of factors before b, times the sign of the shuffle
    sorting the word g rest; the factors of rest below b count towards k,
    and those below each factor of g towards the shuffle, so the parity of
    the number of bits of ``rest & s`` is that of the sign."""
    out = {}
    for m, (cr, ci) in terms.items():
        for b, placed in table:
            if not m & b:
                continue
            rest = m ^ b
            for g, s, re, im in placed:
                if rest & g:
                    continue
                w = rest | g
                xr = cr * re - ci * im
                xi = cr * im + ci * re
                if (rest & s).bit_count() & 1:
                    xr, xi = -xr, -xi
                x = out.get(w)
                if x is None:
                    out[w] = (xr, xi)
                elif x[0] + xr or x[1] + xi:
                    out[w] = (x[0] + xr, x[1] + xi)
                else:
                    del out[w]
    return out


def _apply(spec: AlgebraSpec, terms, den, *dps) -> Form:
    """The Form of ``terms`` (a dict mask -> (re, im)) over den after the
    term tables ``dps`` in turn (None is d, 1 del and 0 delbar), which keep
    Gaussian integers, over den * L^k after k tables, up to the end."""
    scale, tables = _term_tables(spec)
    for dp in dps:
        terms = _d_terms(tables[dp], terms)
        den *= scale
    return _mask_form(spec.n, terms, den)


def _differentiate(spec: AlgebraSpec, x: Form, *dps) -> Form:
    """x after the term tables ``dps`` (see :func:`_apply`); del (delbar)
    keeps the terms of d of each monomial that raise its p (its q)."""
    if x.max_index() > spec.n:
        raise ValueError(
            "form references generator a%d beyond dimension %d"
            % (x.max_index(), spec.n)
        )
    n = spec.n
    (row,), den = _integer_rows([[(_mask(n, bf), c) for bf, c in x.terms()]])
    return _apply(spec, {m: (re, im) for m, re, im in row}, den, *dps)


def d(spec: AlgebraSpec, x: Form) -> Form:
    """Total differential (anti-derivation extending the generator data)."""
    return _differentiate(spec, x, None)


def del_(spec: AlgebraSpec, x: Form) -> Form:
    """The (p+1, q) component of d on each homogeneous piece."""
    return _differentiate(spec, x, 1)


def delbar(spec: AlgebraSpec, x: Form) -> Form:
    """The (p, q+1) component of d on each homogeneous piece."""
    return _differentiate(spec, x, 0)


def deldelbar(spec: AlgebraSpec, x: Form) -> Form:
    """del of delbar of x."""
    return _differentiate(spec, x, 0, 1)


def differential_matrix(spec: AlgebraSpec, domain, codomain, dp=None) -> IndexedMatrix:
    """Matrix of d, or with dp = 1 (dp = 0) of del (delbar), from the span
    of the ``domain`` monomial masks to the span of the ``codomain`` ones,
    which label its columns and rows: the terms of each domain monomial's
    image that lie in the codomain, as Gaussian integers over the term
    table's L.  A codomain of one bidegree (p+1, q) with dp = 1 gives del,
    (p, q+1) with dp = 0 gives delbar, and one of one total degree with
    dp = None gives d.  Passes the gate :func:`require_complex` first."""
    require_complex(spec)
    den, tables = _term_tables(spec)
    table = tables[dp]
    index = {w: i for i, w in enumerate(codomain)}
    rows = [[] for _ in codomain]
    for col, m in enumerate(domain):
        for w, (re, im) in _d_terms(table, {m: (1, 0)}).items():
            i = index.get(w)
            if i is not None:
                rows[i].append((col, re, im))
    return IndexedMatrix.from_int_rows(codomain, domain, map(tuple, rows), den)


# ---------------------------------------------------------------------------
# validation and the nilpotency flag


def nilpotency_filtration(spec: AlgebraSpec):
    """(nilpotent_J, dims): dim S_l = 2n - dim g^{l+1} for l = 1, 2, ...,
    appended until the flag reaches 2n (nilpotent, 2n is the last entry)
    or repeats (not nilpotent, the repeated dimension is recorded).

    Row e_x ^ e_y (x < y) of d on one-forms holds [E_x, E_y] up to sign
    and L, which change no span.  Row y of ``ad`` holds [E_x, E_y] in column
    block x, so one product ``series @ ad`` brackets each basis row of g^l
    with every E_x; the echelon rows of one forward pass over its (x, row)
    blocks, each divided by the gcd of its entries, are a basis of g^{l+1}.
    NotAComplex unless d.d = 0, by the gate of :func:`differential_matrix`."""
    size = 2 * spec.n
    basis = tuple(range(size))
    d1 = differential_matrix(spec, degree_masks(spec.n, 1), degree_masks(spec.n, 2))
    ad = [[] for _ in basis]
    for w, row in zip(d1.rows, d1.int_rows()):
        x, y = (w & -w).bit_length() - 1, w.bit_length() - 1
        ad[y] += [(size * x + b, re, im) for b, re, im in row]
        ad[x] += [(size * y + b, -re, -im) for b, re, im in row]
    ad = IndexedMatrix.from_int_rows(basis, range(size * size), [tuple(sorted(r)) for r in ad])
    series = IndexedMatrix.from_int_rows(basis, basis, [((j, 1, 0),) for j in basis])
    dims = []
    while True:
        blocks = {}
        for i, row in enumerate((series @ ad).int_rows()):
            for j, re, im in row:
                blocks.setdefault((j // size, i), []).append((j % size, re, im))
        pivots, echelon, _, _ = _echelon(blocks.values(), size, False)
        dims.append(size - len(pivots))
        if not pivots or len(pivots) == series.nrows:
            return not pivots, dims
        kept = []
        for row in echelon[: len(pivots)]:
            g = math.gcd(*(v for x in row.values() for v in x))
            kept.append(tuple((j, re // g, im // g) for j, (re, im) in row.items()))
        series = IndexedMatrix.from_int_rows(range(len(kept)), basis, kept)


@_per_spec
def jacobi_failures(spec: AlgebraSpec) -> list:
    """The Jacobi check: ``(i, d d a_i)`` for each generator a_i whose
    d d a_i is nonzero (empty when d.d = 0).  Run once per spec."""
    return [(i, dd) for i in range(1, spec.n + 1) if (dd := d(spec, spec.d_alpha(i)))]


class NotAComplex(ValueError):
    """d.d != 0 on ``spec``: no cohomology group or metric condition is defined."""

    def __init__(self, spec: AlgebraSpec):
        super().__init__("spec fails the Jacobi check; no cohomology defined")
        self.spec = spec


def require_complex(spec: AlgebraSpec) -> None:
    """The one Jacobi gate: raise :class:`NotAComplex` unless d.d = 0."""
    if jacobi_failures(spec):
        raise NotAComplex(spec)


@_per_spec
def validate(spec: AlgebraSpec) -> ValidationReport:
    """Jacobi check (d.d = 0 on generators) plus the nilpotency flag."""
    failing = jacobi_failures(spec)
    if failing:
        return ValidationReport(failing, False, [])
    nilpotent, dims = nilpotency_filtration(spec)
    return ValidationReport([], nilpotent, dims)


def direct_sum(a: AlgebraSpec, b: AlgebraSpec) -> AlgebraSpec:
    """Product structure: b's generators and differentials shift past a's."""
    d_gens = list(a.d_generators) + [f.shift(a.n) for f in b.d_generators]
    return AlgebraSpec("%s_x_%s" % (a.name, b.name), a.n + b.n, d_gens)
