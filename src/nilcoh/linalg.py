"""Exact linear algebra over Q(i) for basis-indexed operator matrices.

The operator matrices of a nilmanifold's complex are well under 1%
nonzero, so an :class:`IndexedMatrix` stores only the nonzeros of each
row, as Gaussian integers (re, im) over one denominator shared by the
whole matrix, and all the work is done on those integers.  The product
multiplies nonzero by nonzero in Z[i] and multiplies the denominators;
the stacks bring their operands to a common denominator.  Gaussian
rationals are built only when a caller reads values: ``nonzeros()``,
``column`` and the dense ``entries`` are views.

One fraction-free echelon routine does all the exact elimination.  It
keeps every row as a dict from column to Gaussian integer holding its
nonzeros (a matrix's integer rows as they are; vectors of Gaussian
rationals first scaled by the lcm of their denominators, which changes
neither rank nor kernel), and runs Bareiss elimination over the Gaussian
integers: every intermediate entry stays a minor of the integer matrix,
so numerators and denominators do not grow through repeated gcd
reduction, and a step costs the nonzeros of the rows it touches.  A
forward pass gives ``greedy_complement`` and the determinants behind
``MetricForm.leading_minors``.  The fraction-free Gauss-Jordan extension
gives the reduced row echelon form, which is unique: ``kernel_basis``
reads normalized kernel vectors (first nonzero coordinate 1) off it,
``span_basis`` returns its nonzero rows and ``nilpotency_filtration``
clears their denominators for each term of the lower central series.

``rank`` needs no vectors, so it first tries to certify the rank from two
cheap bounds.  The lower bound is the rank of the integer rows mod one
fixed prime p = 1 (mod 4), with i mapped to a square root of -1: every
minor mod p is the image of a minor over Z[i], so a minor that vanishes
over Z[i] vanishes mod p.  The upper bound is the structural rank, the
size of a maximum matching between rows and columns over the nonzero
pattern: a nonzero r x r minor has a nonzero term, which is such a
matching.  When the bounds meet, that is the rank; otherwise (a prime
dividing a minor, or a cancellation the pattern cannot see) the exact
forward pass decides.  Every answer is exact.  A matrix never changes,
so ``rank`` and ``kernel_basis`` store the rank in the matrix and it is
computed once.

The rank mod p has two layouts, chosen by density.  Dict rows of the
nonzeros cost a step only the nonzeros it touches, which suits the
operator matrices (at most about a tenth nonzero).  A matrix with at
least a quarter of its cells nonzero is instead packed: each row becomes
one Python int with a fixed-width slot per column (Kronecker
substitution), and eliminating a column from a row is one big-integer
multiply-add and one shift, with the reduction mod p of each slot
delayed until the row becomes a pivot (as in FFLAS-FFPACK).  That costs
every cell, zero or not, so it pays only where most cells are nonzero
anyway; both layouts give the same rank.

``subquotient_dim`` is the one routine that checks containment and does
the dimension arithmetic of a cohomology group: the kernel of one matrix
modulo the span of another's columns, typically operators stacked with
``vstack`` and operators joined with ``hstack``.  Both stacks leave out
operands with no rows (or no columns) and return a lone remaining operand
itself, so a joint operator with an empty half keeps the other half's
stored rank.
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
    """A matrix whose rows and columns are labelled by basis data, stored
    as its nonzeros over Z[i] and one denominator.

    ``int_rows()[i]`` holds the (column index, re, im) triples of the
    nonzero entries of row ``rows[i]``, and ``denominator`` is a positive
    integer: the entry is (re + im i) / denominator.  The entry in row
    ``rows[i]`` and column ``cols[j]`` is the coefficient of ``rows[i]``
    in the image of ``cols[j]``.  ``nonzeros()`` (the same pairs with
    Gaussian rational values), ``column`` and ``entries`` (the dense rows)
    are views, built on each read.
    """

    __slots__ = ("rows", "cols", "denominator", "_int_rows", "_rank")

    def __init__(self, rows, cols, entries):
        """Build from dense rows (sequences) of Gaussian rationals, one
        value per column label."""
        rows = tuple(rows)
        cols = tuple(cols)
        entries = list(entries)
        if len(entries) != len(rows):
            raise ValueError("entry rows do not match row labels")
        if any(len(r) != len(cols) for r in entries):
            raise ValueError("entry columns do not match column labels")
        den = _denominator(z for row in entries for z in row)
        self._store(rows, cols, _scaled_rows(map(enumerate, entries), den), den)

    def _store(self, rows, cols, int_rows, denominator):
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "cols", tuple(cols))
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "_int_rows", tuple(int_rows))
        object.__setattr__(self, "_rank", None)

    def __setattr__(self, name, value):
        raise AttributeError("IndexedMatrix is immutable")

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.cols)

    @classmethod
    def from_nonzeros(cls, rows, cols, nonzeros):
        """Build from each row's (column index, Gaussian rational) pairs;
        pairs with a zero value are dropped."""
        return cls.from_int_rows(rows, cols, *_integer_rows(nonzeros))

    @classmethod
    def from_int_rows(cls, rows, cols, int_rows, denominator=1):
        """Build from each row's (column index, re, im) triples of nonzero
        Gaussian integers, as tuples, over a positive ``denominator``."""
        out = cls.__new__(cls)
        out._store(rows, cols, int_rows, denominator)
        return out

    def int_rows(self):
        """Per row, the (column index, re, im) triples of its nonzero
        entries times ``denominator``, in column order unless the matrix
        was built from pairs or is a product."""
        return self._int_rows

    def nonzeros(self):
        """Per row, the (column index, value) pairs of its nonzero
        entries, in the order of ``int_rows()``."""
        den = self.denominator
        return tuple(
            tuple((j, _gauss(re, im, den)) for j, re, im in row) for row in self._int_rows
        )

    @property
    def entries(self):
        """The dense rows, as a tuple of tuples."""
        out = []
        for row in self.nonzeros():
            dense = [_GR_ZERO] * len(self.cols)
            for j, z in row:
                dense[j] = z
            out.append(tuple(dense))
        return tuple(out)

    def column(self, j):
        den = self.denominator
        return tuple(
            next((_gauss(re, im, den) for k, re, im in row if k == j), _GR_ZERO)
            for row in self._int_rows
        )

    def __matmul__(self, other):
        if not isinstance(other, IndexedMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("matrix product: inner bases do not match")
        right = other._int_rows
        out = []
        for row in self._int_rows:
            acc = {}
            for k, ar, ai in row:
                for j, br, bi in right[k]:
                    x = acc.get(j)
                    if x is None:
                        acc[j] = (ar * br - ai * bi, ar * bi + ai * br)
                    else:
                        acc[j] = (x[0] + ar * br - ai * bi, x[1] + ar * bi + ai * br)
            out.append(tuple((j, xr, xi) for j, (xr, xi) in acc.items() if xr or xi))
        return IndexedMatrix.from_int_rows(
            self.rows, other.cols, out, self.denominator * other.denominator
        )

    def __eq__(self, other):
        if not isinstance(other, IndexedMatrix):
            return False
        if self.rows != other.rows or self.cols != other.cols:
            return False
        a, b = other.denominator, self.denominator  # compare self * a with other * b
        return all(
            {j: (re * a, im * a) for j, re, im in x} == {j: (re * b, im * b) for j, re, im in y}
            for x, y in zip(self._int_rows, other._int_rows)
        )

    __hash__ = None

    def __repr__(self):
        return "IndexedMatrix(%d rows x %d cols)" % (self.nrows, self.ncols)


def _gauss(re, im, den) -> GaussianRational:
    """The Gaussian rational (re + im i) / den."""
    if den == 1:
        return GaussianRational(re, im)
    return GaussianRational(Fraction(re, den), Fraction(im, den))


def _nonzero_pairs(vector):
    """The (index, value) pairs of a vector's nonzero entries."""
    return tuple((j, z) for j, z in enumerate(vector) if z)


def _denominator(values):
    """The lcm of the denominators of some Gaussian rationals."""
    denom = 1
    for z in values:
        denom = math.lcm(denom, z.re.denominator, z.im.denominator)
    return denom


def _scaled_rows(rows, den):
    """Rows given by (column, Gaussian rational) pairs, some of them zero,
    as tuples of (column, re, im) triples of their nonzero entries times
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
    """``(int_rows, L)``: rows given by (column, Gaussian rational) pairs
    as Gaussian-integer rows (see :func:`_scaled_rows`) over L, the lcm of
    all their denominators."""
    rows = [tuple(row) for row in rows]
    den = _denominator(z for row in rows for _, z in row)
    return _scaled_rows(rows, den), den


def _common_rows(ops):
    """``(per_operand_int_rows, L)``: each operand's integer rows brought
    to L, the lcm of the operands' denominators; rows already over L are
    shared, not copied."""
    den = math.lcm(*(m.denominator for m in ops))
    out = []
    for m in ops:
        f = den // m.denominator
        if f == 1:
            out.append(m._int_rows)
        else:
            out.append(
                tuple(tuple((j, re * f, im * f) for j, re, im in row) for row in m._int_rows)
            )
    return out, den


def vstack(*ops: IndexedMatrix) -> IndexedMatrix:
    """Stack operators with the same domain (shared column labels); those
    with no rows are left out, and a lone remaining one is returned itself."""
    cols = ops[0].cols
    if any(m.cols != cols for m in ops):
        raise ValueError("vstack: column bases differ")
    kept = [m for m in ops if m.nrows]
    if len(kept) == 1:
        return kept[0]
    parts, den = _common_rows(kept)
    return IndexedMatrix.from_int_rows(sum((m.rows for m in kept), ()), cols, sum(parts, ()), den)


def hstack(*ops: IndexedMatrix) -> IndexedMatrix:
    """Concatenate the columns of operators into the same codomain; those
    with no columns are left out, and a lone remaining one is returned itself."""
    rows = ops[0].rows
    if any(m.rows != rows for m in ops):
        raise ValueError("hstack: row bases differ")
    kept = [m for m in ops if m.ncols]
    if len(kept) == 1:
        return kept[0]
    parts, den = _common_rows(kept)
    cols, int_rows = (), [()] * len(rows)
    for m, part in zip(kept, parts):
        shift = len(cols)
        int_rows = [
            a + tuple((j + shift, re, im) for j, re, im in b) for a, b in zip(int_rows, part)
        ]
        cols += m.cols
    return IndexedMatrix.from_int_rows(rows, cols, int_rows, den)


# ---------------------------------------------------------------------------
# fraction-free echelon form


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
    d = b[0] * b[0] + b[1] * b[1]
    return GaussianRational(
        Fraction(a[0] * b[0] + a[1] * b[1], d),
        Fraction(a[1] * b[0] - a[0] * b[1], d),
    )


def _dense_quotient(row, d, ncols):
    """The Q(i) vector row / d, for a dict row of Gaussian integers."""
    out = [_GR_ZERO] * ncols
    for j, x in row.items():
        out[j] = _gi_ratio(x, d)
    return tuple(out)


def _echelon(rows, ncols, reduced):
    """Fraction-free elimination of sparse Gaussian-integer rows,
    first-nonzero pivoting.

    ``rows`` gives each row by its nonzero (column, re, im) triples.  Returns
    ``(pivots, rows, last, sign)``: the pivot columns, the eliminated
    Gaussian-integer rows as dicts column -> (re, im) of their nonzeros
    (row k holds pivot k), the last pivot and the sign of the row
    permutation.  The step with pivot p in column c, after previous pivot
    ``prev``, replaces each row it reaches by (p * row - row[c] * pivot
    row) / prev.  Every entry then stays a minor of the input (Sylvester's
    identity), so the division is exact; a row with no entry in column c
    is only rescaled by p / prev, on its nonzeros, and not at all when
    p == prev.  The forward pass gives an echelon form whose last pivot
    is, for a square nonsingular matrix, ``sign`` times its determinant.
    With ``reduced`` the rows above each pivot are eliminated as well
    (fraction-free Gauss-Jordan): every pivot entry ends equal to
    ``last``, and row k divided by ``last`` is row k of the reduced row
    echelon form.
    """
    rows = [{j: (re, im) for j, re, im in row} for row in rows]
    nr = len(rows)
    pivots = []
    prev = (1, 0)
    sign = 1
    r = 0
    for c in range(ncols):
        if r == nr:
            break
        for i in range(r, nr):
            if c in rows[i]:
                break
        else:
            continue
        if i != r:
            rows[r], rows[i] = rows[i], rows[r]
            sign = -sign
        prow = rows[r]
        p = prow[c]
        pr, pi = p
        qr, qi = prev
        qn = qr * qr + qi * qi
        tail = [(j, x) for j, x in prow.items() if j != c]
        for i in range(0 if reduced else r + 1, nr):
            if i == r:
                continue
            row = rows[i]
            fac = row.pop(c, None)
            if p != prev:
                # entries the pivot row leaves untouched are only rescaled
                for j in row.keys() if fac is None else row.keys() - prow.keys():
                    row[j] = _gi_div_exact(_gi_mul(p, row[j]), prev)
            if fac is None:
                continue
            fr, fi = fac
            for j, (br, bi) in tail:
                a = row.get(j)
                if a is None:
                    xr = fi * bi - fr * br
                    xi = -fr * bi - fi * br
                else:
                    ar, ai = a
                    xr = pr * ar - pi * ai - fr * br + fi * bi
                    xi = pr * ai + pi * ar - fr * bi - fi * br
                if xr or xi:
                    yr, rr = divmod(xr * qr + xi * qi, qn)
                    yi, ri = divmod(xi * qr - xr * qi, qn)
                    if rr or ri:
                        raise ArithmeticError("fraction-free elimination lost exactness")
                    row[j] = (yr, yi)
                elif a is not None:
                    del row[j]
        pivots.append(c)
        prev = p
        r += 1
    return pivots, rows, prev, sign


# ---------------------------------------------------------------------------
# certified rank

# A prime p = 1 (mod 4) below 2**30 and a square root s of -1 mod p: a + bi
# maps to (a + b s) mod p, a ring map Z[i] -> F_p.
_P = 1073741789
_S = 140687844


def _rank_mod_p(rows, ncols) -> int:
    """Rank mod ``_P`` of Gaussian-integer rows given by their nonzero
    (column, re, im) triples: a lower bound on the rank over Q(i).

    A matrix with at least a quarter of its cells nonzero is eliminated
    on packed integer rows (:func:`_packed_rank_mod_p`), any other on
    dict rows (:func:`_dict_rank_mod_p`); both compute the same number.
    """
    nnz = sum(map(len, rows))
    if nnz and 4 * nnz >= len(rows) * ncols:
        return _packed_rank_mod_p(rows, ncols)
    return _dict_rank_mod_p(rows)


def _dict_rank_mod_p(rows) -> int:
    """Rank mod ``_P`` on dict rows, which cost their nonzeros.

    Rows are reduced one at a time, sparsest first (which limits fill-in),
    against the pivot rows so far.  A pivot row is keyed by its smallest
    column and normalized there to 1, which is not stored, so a step
    touches one row and one pivot row.
    """
    pivots = {}
    for integral in sorted(rows, key=len):
        row = {}
        for j, a, b in integral:
            x = (a + b * _S) % _P
            if x:
                row[j] = x
        get = row.get
        while row:
            c = min(row)
            f = row.pop(c)
            prow = pivots.get(c)
            if prow is None:
                inv = pow(f, -1, _P)
                pivots[c] = [(j, x * inv % _P) for j, x in row.items()]
                break
            for j, x in prow:
                y = (get(j, 0) - f * x) % _P
                if y:
                    row[j] = y
                else:  # f * x != 0 mod p, so j was in the row
                    del row[j]
    return len(pivots)


def _packed_rank_mod_p(rows, ncols) -> int:
    """Rank mod ``_P`` on packed rows, which cost every cell but take one
    big-integer operation per row and column.

    Each row is one int holding one ``width``-byte slot per column, the
    lowest slot for the first column left, each slot a nonnegative integer
    congruent mod p to the entry.  Per column, a row whose slot is nonzero
    mod p becomes the pivot row: its slots are reduced mod p and scaled so
    that its first is p - 1, i.e. -1.  Every other row r, with first slot
    f mod p, becomes (r + f * pivot) >> (8 * width), which clears the
    column mod p and drops it.  Reduction is delayed: slots only grow, so
    no borrow crosses them, and a slot gains at most (p - 1)**2 per pivot,
    with at most m = min(nrows, ncols) pivots, so it stays below
    p + m (p - 1)**2 < 2**(2 bitlen(p) + bitlen(m)), inside its width.
    """
    slot_bits = 2 * _P.bit_length() + min(len(rows), ncols).bit_length() + 1
    width = -(-slot_bits // 8)
    bits = 8 * width
    mask = (1 << bits) - 1
    packed = []
    for integral in rows:
        buf = bytearray(width * ncols)
        for j, a, b in integral:
            buf[j * width : (j + 1) * width] = ((a + b * _S) % _P).to_bytes(width, "little")
        r = int.from_bytes(buf, "little")
        if r:
            packed.append(r)
    rank = 0
    for c in range(ncols):
        if not packed:
            break
        leads = [(r & mask) % _P for r in packed]
        k = next((k for k, f in enumerate(leads) if f), None)
        if k is not None:
            rank += 1
            pivot = _scaled_pivot(packed.pop(k), leads.pop(k), width, ncols - c)
        # with no pivot every f is 0 and the column is only dropped
        packed = [(r + f * pivot if f else r) >> bits for r, f in zip(packed, leads)]
        packed = [r for r in packed if r]
    return rank


def _scaled_pivot(r, lead, width, nslots):
    """Packed row ``r`` of ``nslots`` slots reduced mod p and scaled so
    that its first slot, ``lead`` mod p, becomes p - 1."""
    g = -pow(lead, -1, _P) % _P
    raw = r.to_bytes(width * nslots, "little")
    return int.from_bytes(
        b"".join(
            (int.from_bytes(raw[k : k + width], "little") * g % _P).to_bytes(width, "little")
            for k in range(0, len(raw), width)
        ),
        "little",
    )


def _structural_rank(rows) -> int:
    """Size of a maximum matching between rows and columns over the
    nonzero pattern: an upper bound on the rank.

    A greedy pass matches each row to its first free column; each row it
    leaves unmatched then looks for an augmenting path by depth-first
    search, kept on an explicit stack (matrices reach hundreds of rows).
    The columns a failed search reached lead to no free column, so later
    searches skip them until an augmentation changes the matching.
    """
    adj = [[entry[0] for entry in row] for row in rows]
    owner = {}  # column -> matched row
    unmatched = []
    for i, cols in enumerate(adj):
        for j in cols:
            if j not in owner:
                owner[j] = i
                break
        else:
            unmatched.append(i)
    size = len(owner)
    seen = set()
    for root in unmatched:
        path, via, todo = [root], [], [iter(adj[root])]
        while todo:
            j = next((j for j in todo[-1] if j not in seen), None)
            if j is None:
                path.pop()
                todo.pop()
                if via:
                    via.pop()
                continue
            seen.add(j)
            i = owner.get(j)
            if i is None:
                # path[k] takes via[k], the column path[k + 1] gives up
                for r, c in zip(path, via + [j]):
                    owner[c] = r
                size += 1
                seen = set()
                break
            path.append(i)
            via.append(j)
            todo.append(iter(adj[i]))
    return size


def _certified_rank(rows, ncols) -> int:
    """Exact rank of Gaussian-integer rows given by their nonzero
    (column, re, im) triples: the mod-p lower bound when it meets an upper
    bound, the exact forward pass otherwise.  The upper bounds are tried
    cheapest first: the number of nonzero rows, of nonzero columns, and the
    structural rank."""
    low = _rank_mod_p(rows, ncols)
    if low == sum(1 for row in rows if row) or low == len({e[0] for row in rows for e in row}):
        return low
    high = _structural_rank(rows)
    if low > high:
        raise ArithmeticError("mod-p rank %d exceeds structural rank %d" % (low, high))
    if low == high:
        return low
    exact = len(_echelon(rows, ncols, False)[0])
    if not low <= exact <= high:
        raise ArithmeticError("exact rank %d outside bounds [%d, %d]" % (exact, low, high))
    return exact


def rank(m: IndexedMatrix) -> int:
    """Exact rank, certified by two bounds or computed by the exact forward
    pass, once per matrix."""
    if m._rank is None:
        object.__setattr__(m, "_rank", _certified_rank(m.int_rows(), m.ncols))
    return m._rank


def kernel_basis(m: IndexedMatrix):
    """Basis of the kernel: one normalized vector per free column.

    Vectors are tuples over the column labels, first nonzero coordinate 1,
    ordered by free column index (deterministic).
    """
    nc = m.ncols
    pivots, rows, last, _ = _echelon(m.int_rows(), nc, True)
    object.__setattr__(m, "_rank", len(pivots))
    pivot_set = set(pivots)
    # free column f: `last` at f and -row_k[f] at pivot k
    vectors = {f: {f: last} for f in range(nc) if f not in pivot_set}
    for k, p in enumerate(pivots):
        for f, x in rows[k].items():
            if f not in pivot_set:
                vectors[f][p] = (-x[0], -x[1])
    return [_dense_quotient(vec, vec[min(vec)], nc) for vec in vectors.values()]


def span_basis(vectors):
    """Reduced (RREF-row) basis of the span of the given vectors."""
    vectors = list(vectors)
    nonzero = [row for row in map(_nonzero_pairs, vectors) if row]
    if not nonzero:
        return []
    nc = len(vectors[0])
    pivots, rows, last, _ = _echelon(_integer_rows(nonzero)[0], nc, True)
    return [_dense_quotient(row, last, nc) for row in rows[: len(pivots)]]


def greedy_complement(base: IndexedMatrix, candidates):
    """Indices of candidate vectors (over base's row labels) that enlarge
    the span of base's columns, scanned in order — the classes of the
    chosen candidates form a basis of span(base + candidates) / span(base).
    The candidates, scaled to Gaussian integers, are appended to base's
    integer rows: scaling a block of columns moves no pivot column."""
    candidates = list(candidates)
    if any(len(v) != base.nrows for v in candidates):
        raise ValueError("greedy_complement: candidate length does not match")
    nb = base.ncols
    extra = _integer_rows(
        [(nb + k, v[i]) for k, v in enumerate(candidates)] for i in range(base.nrows)
    )[0]
    rows = [a + b for a, b in zip(base.int_rows(), extra)]
    pivots = _echelon(rows, nb + len(candidates), False)[0]
    return [c - nb for c in pivots if c >= nb]


def check_containment(kernel_of: IndexedMatrix, image: IndexedMatrix):
    """Raise :class:`ContainmentError` unless ``kernel_of`` kills every
    column of ``image``; the witness is the first column it does not."""
    if image.rows != kernel_of.cols:
        raise ValueError("subquotient: image codomain does not match")
    prod = kernel_of @ image
    escaped = [entry[0] for row in prod.int_rows() for entry in row]
    if escaped:
        j = min(escaped)
        raise ContainmentError(
            "image vector escapes the kernel (inconsistent complex)",
            witness=image.column(j),
            value=prod.column(j),
        )


def subquotient_dim(kernel_of: IndexedMatrix, image: IndexedMatrix) -> int:
    """dim ker(kernel_of) minus the rank of ``image``, with the containment
    of image's columns in ker(kernel_of) checked (raising
    :class:`ContainmentError` on violation)."""
    check_containment(kernel_of, image)
    out = kernel_of.ncols - rank(kernel_of) - rank(image)
    if out < 0:
        raise ArithmeticError("containment held but dimension went negative")
    return out
