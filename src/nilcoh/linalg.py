"""Exact linear algebra over Q(i) for basis-indexed operator matrices.

One fraction-free echelon routine does all the elimination.  It clears
each row's denominators, which changes neither rank nor kernel, and runs
Bareiss elimination over the Gaussian integers: every intermediate entry
stays a minor of the cleared matrix, so numerators and denominators do not
grow through repeated gcd reduction.  A forward pass gives ``rank``,
``greedy_complement`` and the determinants behind
``MetricForm.leading_minors``.  The fraction-free Gauss-Jordan extension
gives the reduced row echelon form, which is unique: ``kernel_basis``
reads normalized kernel vectors (first nonzero coordinate 1) off it and
``span_basis`` returns its nonzero rows.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalars import GaussianRational

_GR_ZERO = GaussianRational(0)


class ContainmentError(Exception):
    """An "image" vector fell outside the kernel it must land in.

    This signals an inconsistent complex (an upstream validation bug), not
    bad user input.  ``witness`` is the offending domain vector and
    ``value`` its nonzero image under the kernel operator.
    """

    def __init__(self, message, witness, value):
        super().__init__(message)
        self.witness = witness
        self.value = value


class IndexedMatrix:
    """A dense matrix whose rows and columns are labelled by basis data.

    ``entries[i][j]`` is the coefficient of row label ``rows[i]`` in the
    image of column label ``cols[j]``.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        rows = tuple(rows)
        cols = tuple(cols)
        entries = tuple(tuple(row) for row in entries)
        if len(entries) != len(rows):
            raise ValueError("entry rows do not match row labels")
        if any(len(r) != len(cols) for r in entries):
            raise ValueError("entry columns do not match column labels")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("IndexedMatrix is immutable")

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.cols)

    @classmethod
    def from_columns(cls, rows, cols, columns):
        """Build from column vectors (each of length len(rows))."""
        rows = tuple(rows)
        entries = [
            [columns[j][i] for j in range(len(columns))] for i in range(len(rows))
        ]
        return cls(rows, cols, entries)

    def column(self, j):
        return tuple(self.entries[i][j] for i in range(self.nrows))

    def __matmul__(self, other):
        if not isinstance(other, IndexedMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("matrix product: inner bases do not match")
        out = []
        for i in range(self.nrows):
            row = []
            srow = self.entries[i]
            for j in range(other.ncols):
                acc = _GR_ZERO
                for k in range(self.ncols):
                    a = srow[k]
                    if a:
                        b = other.entries[k][j]
                        if b:
                            acc = acc + a * b
                row.append(acc)
            out.append(row)
        return IndexedMatrix(self.rows, other.cols, out)

    def __eq__(self, other):
        return (
            isinstance(other, IndexedMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    __hash__ = None

    def __repr__(self):
        return "IndexedMatrix(%d rows x %d cols)" % (self.nrows, self.ncols)


def vstack(top: IndexedMatrix, bottom: IndexedMatrix) -> IndexedMatrix:
    """Stack two operators with the same domain (shared column labels)."""
    if top.cols != bottom.cols:
        raise ValueError("vstack: column bases differ")
    return IndexedMatrix(
        top.rows + bottom.rows, top.cols, top.entries + bottom.entries
    )


def hstack(left: IndexedMatrix, right: IndexedMatrix) -> IndexedMatrix:
    """Concatenate columns of two operators into the same codomain."""
    if left.rows != right.rows:
        raise ValueError("hstack: row bases differ")
    entries = [
        left.entries[i] + right.entries[i] for i in range(left.nrows)
    ]
    return IndexedMatrix(left.rows, left.cols + right.cols, entries)


# ---------------------------------------------------------------------------
# fraction-free echelon form


def _denominator(row):
    """The lcm of the denominators of a row's entries."""
    denom = 1
    for z in row:
        denom = math.lcm(denom, z.re.denominator, z.im.denominator)
    return denom


def _cleared_int_rows(rows):
    """Rows as (re, im) integer pairs after scaling each row by the lcm of
    its denominators (rank- and kernel-preserving)."""
    out = []
    for row in rows:
        denom = _denominator(row)
        out.append(
            [
                (
                    z.re.numerator * (denom // z.re.denominator),
                    z.im.numerator * (denom // z.im.denominator),
                )
                for z in row
            ]
        )
    return out


def _gi_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gi_div_exact(a, b):
    """Exact division in Z[i]; the Bareiss update guarantees divisibility,
    and we verify it rather than silently truncating."""
    d = b[0] * b[0] + b[1] * b[1]
    qr, rr = divmod(a[0] * b[0] + a[1] * b[1], d)
    qi, ri = divmod(a[1] * b[0] - a[0] * b[1], d)
    if rr or ri:
        raise ArithmeticError("fraction-free elimination lost exactness")
    return (qr, qi)


def _gi_ratio(a, b) -> GaussianRational:
    """The Gaussian rational a / b of two Gaussian integers (b nonzero)."""
    if a == (0, 0):
        return _GR_ZERO
    d = b[0] * b[0] + b[1] * b[1]
    return GaussianRational(
        Fraction(a[0] * b[0] + a[1] * b[1], d),
        Fraction(a[1] * b[0] - a[0] * b[1], d),
    )


def _echelon(rows, ncols, reduced):
    """Fraction-free elimination of Q(i) rows over Z[i], first-nonzero
    pivoting.

    Returns ``(pivots, rows, last, sign)``: the pivot columns, the
    eliminated Gaussian-integer rows (row k holds pivot k), the last pivot
    and the sign of the row permutation.  Each row is first cleared of its
    denominators.  Every entry then stays a minor of the cleared matrix
    (Sylvester's identity), so each division by the previous pivot is
    exact.  The forward pass gives an echelon form whose last pivot is,
    for a square nonsingular matrix, ``sign`` times its determinant.  With
    ``reduced`` the rows above each pivot are eliminated as well
    (fraction-free Gauss-Jordan): every pivot entry ends equal to
    ``last``, and row k divided by ``last`` is row k of the reduced row
    echelon form.
    """
    rows = _cleared_int_rows(rows)
    nr = len(rows)
    pivots = []
    prev = (1, 0)
    sign = 1
    r = 0
    for c in range(ncols):
        if r == nr:
            break
        pivot = None
        for i in range(r, nr):
            if rows[i][c] != (0, 0):
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            sign = -sign
        prow = rows[r]
        p = prow[c]
        for i in range(0 if reduced else r + 1, nr):
            if i == r:
                continue
            row = rows[i]
            if i < r:
                # the pivot row is zero left of c: those entries only rescale
                for j in range(pivots[i], c):
                    if row[j] != (0, 0):
                        row[j] = _gi_div_exact(_gi_mul(p, row[j]), prev)
            fac = row[c]
            if fac == (0, 0):
                # still rescale so the Bareiss divisibility invariant holds
                for j in range(c + 1, ncols):
                    row[j] = _gi_div_exact(_gi_mul(p, row[j]), prev)
            else:
                for j in range(c + 1, ncols):
                    num = (
                        p[0] * row[j][0] - p[1] * row[j][1]
                        - fac[0] * prow[j][0] + fac[1] * prow[j][1],
                        p[0] * row[j][1] + p[1] * row[j][0]
                        - fac[0] * prow[j][1] - fac[1] * prow[j][0],
                    )
                    row[j] = _gi_div_exact(num, prev)
                row[c] = (0, 0)
        pivots.append(c)
        prev = p
        r += 1
    return pivots, rows, prev, sign


def rank(m: IndexedMatrix) -> int:
    """Exact rank: the number of pivots of a forward pass."""
    return len(_echelon(m.entries, m.ncols, False)[0])


def kernel_basis(m: IndexedMatrix):
    """Basis of the kernel: one normalized vector per free column.

    Vectors are tuples over the column labels, first nonzero coordinate 1,
    ordered by free column index (deterministic).
    """
    nc = m.ncols
    pivots, rows, last, _ = _echelon(m.entries, nc, True)
    pivot_set = set(pivots)
    basis = []
    for f in range(nc):
        if f in pivot_set:
            continue
        vec = [(0, 0)] * nc
        vec[f] = last
        for k, p in enumerate(pivots):
            x = rows[k][f]
            vec[p] = (-x[0], -x[1])
        lead = next(x for x in vec if x != (0, 0))
        basis.append(tuple(_gi_ratio(x, lead) for x in vec))
    return basis


def span_basis(vectors):
    """Reduced (RREF-row) basis of the span of the given vectors."""
    vecs = [v for v in vectors if any(v)]
    if not vecs:
        return []
    pivots, rows, last, _ = _echelon(vecs, len(vecs[0]), True)
    return [tuple(_gi_ratio(x, last) for x in rows[k]) for k in range(len(pivots))]


def greedy_complement(base_columns, candidates):
    """Indices of candidate vectors that enlarge span(base_columns),
    scanned in order — the classes of the chosen candidates form a basis
    of span(base + candidates) / span(base)."""
    base_columns = list(base_columns)
    nb = len(base_columns)
    columns = base_columns + list(candidates)
    pivots = _echelon(list(zip(*columns)), len(columns), False)[0]
    return [c - nb for c in pivots if c >= nb]


def subquotient_dim(kernel_of: IndexedMatrix, images) -> int:
    """dim ker(kernel_of) minus the dimension of the joint span of the
    image operators' columns, with the containment im(...) in ker(...)
    checked (raising :class:`ContainmentError` on violation)."""
    images = [img for img in images if img.ncols]
    for img in images:
        if img.rows != kernel_of.cols:
            raise ValueError("subquotient: image codomain does not match")
        prod = kernel_of @ img
        for j in range(prod.ncols):
            col = prod.column(j)
            if any(col):
                raise ContainmentError(
                    "image vector escapes the kernel (inconsistent complex)",
                    witness=img.column(j),
                    value=col,
                )
    kdim = kernel_of.ncols - rank(kernel_of)
    if not images:
        return kdim
    joined = images[0]
    for img in images[1:]:
        joined = hstack(joined, img)
    out = kdim - rank(joined)
    if out < 0:
        raise ArithmeticError("containment held but dimension went negative")
    return out
