"""Exact rank/kernel/span machinery over the Gaussian rationals."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

import nilcoh.linalg
from nilcoh.algebra import AlgebraSpec, differential_matrix, validate
from nilcoh.catalog import exnilp_spec, ones_matrix
from nilcoh.cohomology import operator_matrix
from nilcoh.forms import Form, alpha, alphabar, degree_masks
from nilcoh.linalg import (
    ContainmentError,
    IndexedMatrix,
    greedy_complement,
    hstack,
    kernel_basis,
    rank,
    span_basis,
    subquotient_dim,
    vstack,
)
from nilcoh.metrics import MetricForm
from nilcoh.scalars import GaussianRational, _dense, _quotient

from oracle import scalar_to_sympy

FUZZ = settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def mat(rows, row_labels=None, col_labels=None):
    m = len(rows)
    n = len(rows[0]) if rows else 0
    row_labels = row_labels or ["r%d" % i for i in range(m)]
    col_labels = col_labels or ["c%d" % j for j in range(n)]
    return IndexedMatrix(tuple(row_labels), tuple(col_labels), rows)


def ent(m, r, c):
    return m.entries[m.rows.index(r)][m.cols.index(c)]


def nonzero_pairs(m: IndexedMatrix):
    """Per row, the (column, Gaussian rational) pairs of the stored
    nonzeros, in their stored order."""
    den = m.denominator
    return [
        [(j, gr(Fraction(re, den), Fraction(im, den))) for j, re, im in row]
        for row in m.int_rows()
    ]


def to_sympy(m: IndexedMatrix):
    out = sympy.zeros(m.nrows, m.ncols)
    for i in range(m.nrows):
        for j in range(m.ncols):
            out[i, j] = scalar_to_sympy(m.entries[i][j])
    return out


def rand_matrix(rng, rows, cols, density=0.6):
    data = [
        [
            gr(
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            )
            if rng.random() < density
            else gr(0)
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]
    return mat(data)


def test_rank_small_complex():
    i = gr(0, 1)
    m = mat([[gr(1), i], [i, gr(-1)]])
    assert rank(m) == 1
    assert to_sympy(m).rank() == 1


def test_kernel_normalized():
    i = gr(0, 1)
    m = mat([[gr(1), i]])
    vecs = kernel_basis(m)
    assert len(vecs) == 1
    assert vecs[0] == (gr(1), i)
    img = [
        sum((m.entries[0][j] * v for j, v in enumerate(vecs[0])), gr(0))
    ]
    assert all(x.is_zero() for x in img)


def test_rank_matches_sympy_on_random_matrices():
    rng = random.Random(53)
    for _ in range(60):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        expected = to_sympy(m).rank()
        assert rank(m) == expected


def test_kernel_matches_sympy_nullity_and_annihilates():
    rng = random.Random(59)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        vecs = kernel_basis(m)
        assert len(vecs) == m.ncols - to_sympy(m).rank()
        for v in vecs:
            for i in range(m.nrows):
                acc = gr(0)
                for j, x in enumerate(v):
                    acc = acc + m.entries[i][j] * x
                assert acc.is_zero()
        if vecs:
            k = mat([list(col) for col in zip(*vecs)])
            assert rank(k) == len(vecs)


def test_span_basis_idempotent_and_rank_sized():
    rng = random.Random(61)
    for _ in range(30):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        cols = list(zip(*m.entries))
        basis = span_basis(cols)
        assert len(basis) == rank(m)
        again = span_basis(list(basis))
        assert again == basis


def test_stacking():
    a = mat([[gr(1), gr(2)]], row_labels=["x"], col_labels=["c0", "c1"])
    b = mat([[gr(3), gr(4)]], row_labels=["y"], col_labels=["c0", "c1"])
    v = vstack(a, b)
    assert v.rows == ("x", "y") and ent(v, "y", "c1") == gr(4)
    c = mat([[gr(5)], [gr(6)]], row_labels=["x", "y"], col_labels=["d0"])
    h = hstack(v, c)
    assert h.cols == ("c0", "c1", "d0") and ent(h, "x", "d0") == gr(5)


def test_vstack_shares_its_operands_rows():
    a = mat([[gr(1), gr(0)], [gr(0), gr(0)]], row_labels=["x", "y"], col_labels=["c0", "c1"])
    b = mat([[gr(0), gr(4)]], row_labels=["z"], col_labels=["c0", "c1"])
    v = vstack(a, b)
    assert all(r is s for r, s in zip(v.int_rows(), a.int_rows() + b.int_rows()))
    assert v == mat([[gr(1), gr(0)], [gr(0), gr(0)], [gr(0), gr(4)]], ["x", "y", "z"], a.cols)
    # over a common denominator only the operand that needs scaling is copied
    c = mat([[gr(Fraction(1, 3)), gr(0)]], row_labels=["w"], col_labels=a.cols)
    w = vstack(c, a)
    assert w.denominator == 3 and w.int_rows()[0] is c.int_rows()[0]
    assert w.int_rows()[1:] == (((0, 3, 0),), ())


def test_stacking_many_operands():
    a = mat([[gr(1), gr(2)]], row_labels=["x"], col_labels=["c0", "c1"])
    b = mat([[gr(3), gr(4)]], row_labels=["y"], col_labels=["c0", "c1"])
    c = mat([[gr(0), gr(5)]], row_labels=["z"], col_labels=["c0", "c1"])
    v = vstack(a, b, c)
    assert v.rows == ("x", "y", "z") and ent(v, "z", "c1") == gr(5)
    h = hstack(v, v, v)
    assert h.ncols == 6 and ent(h, "y", "c0") == gr(3)
    assert h.denominator == 1
    assert h.int_rows()[1] == tuple((j, 3 + j % 2, 0) for j in range(6))


def test_stacks_return_a_lone_nonempty_operand_itself():
    a = mat([[gr(1), gr(2)]], row_labels=["x"], col_labels=["c0", "c1"])
    no_rows = IndexedMatrix((), a.cols, [])
    no_cols = IndexedMatrix(a.rows, (), [[]])
    assert vstack(no_rows, a, no_rows) is a and vstack(a) is a
    assert hstack(no_cols, a) is a and hstack(a, no_cols, no_cols) is a
    assert vstack(no_rows, no_rows) == no_rows
    assert hstack(no_cols, no_cols) == no_cols


def spy_eliminations(monkeypatch):
    """Record every elimination, mod p or exact, as ("mod p", rows) or
    ("exact", rows)."""
    calls = []
    for name, kind in (("_rank_mod_p", "mod p"), ("_echelon", "exact")):
        fn = getattr(nilcoh.linalg, name)
        monkeypatch.setattr(
            nilcoh.linalg,
            name,
            lambda rows, *args, fn=fn, kind=kind: calls.append((kind, rows)) or fn(rows, *args),
        )
    return calls


def test_rank_runs_one_elimination_per_matrix(monkeypatch):
    calls = spy_eliminations(monkeypatch)
    m = rand_matrix(random.Random(5), 4, 5)
    assert rank(m) == rank(m) == to_sympy(m).rank()
    assert len(calls) == 1


def test_kernel_basis_stores_the_rank(monkeypatch):
    m = rand_matrix(random.Random(7), 5, 7, density=0.4)
    vecs = kernel_basis(m)
    calls = spy_eliminations(monkeypatch)
    assert rank(m) == m.ncols - len(vecs) == to_sympy(m).rank()
    assert calls == []


def test_matmul_checks_inner_labels():
    a = mat([[gr(1)]], row_labels=["r"], col_labels=["m"])
    b = mat([[gr(1)]], row_labels=["m"], col_labels=["c"])
    assert ent(a @ b, "r", "c") == gr(1)
    bad = mat([[gr(1)]], row_labels=["other"], col_labels=["c"])
    with pytest.raises(ValueError):
        a @ bad


def test_subquotient_dim_on_known_chain():
    # kernel of the zero map modulo the image of a rank-1 map
    z = mat([[gr(0), gr(0)]], row_labels=["t"], col_labels=["e1", "e2"])
    img = mat([[gr(1)], [gr(0)]], row_labels=["e1", "e2"], col_labels=["s"])
    assert subquotient_dim(z, img) == 1
    none = IndexedMatrix(("e1", "e2"), (), [[], []])
    assert subquotient_dim(z, none) == 2


def test_subquotient_rejects_non_contained_image():
    # the map kills nothing in the e1 direction, yet the candidate
    # "image" produces e1: not a subquotient, must be refused loudly
    z = mat([[gr(1), gr(0)]], row_labels=["t"], col_labels=["e1", "e2"])
    img = mat([[gr(1)], [gr(0)]], row_labels=["e1", "e2"], col_labels=["s"])
    with pytest.raises(ContainmentError):
        subquotient_dim(z, img)


def _dense_product(a, b):
    return [
        [
            sum((a.entries[i][k] * b.entries[k][j] for k in range(a.ncols)), gr(0))
            for j in range(b.ncols)
        ]
        for i in range(a.nrows)
    ]


def _scanned_nonzeros(m):
    return [[(j, z) for j, z in enumerate(row) if z] for row in m.entries]


def test_matmul_equals_dense_reference():
    rng = random.Random(83)
    shapes = [(9, 7, 8, 0.04), (9, 7, 8, 0.9), (6, 5, 4, 0.5), (20, 30, 10, 0.03)]
    shapes += [(0, 4, 3, 0.5), (4, 0, 3, 0.5), (4, 3, 0, 0.5), (0, 0, 0, 0.5)]
    for nr, inner, nc, density in shapes:
        a = mat(rand_matrix(rng, nr, inner, density).entries, col_labels=range(inner))
        if nr == 0:
            a = IndexedMatrix((), range(inner), ())
        b = IndexedMatrix(range(inner), range(nc), rand_matrix(rng, inner, nc, density).entries)
        prod = a @ b
        assert (prod.rows, prod.cols) == (a.rows, b.cols)
        assert [list(row) for row in prod.entries] == _dense_product(a, b)
        # the nonzeros a product, a stack or a join carries are those of its entries
        for m in (prod, vstack(prod, prod), hstack(a, a)):
            assert [sorted(row) for row in nonzero_pairs(m)] == _scanned_nonzeros(m)
    # a product whose terms cancel holds no explicit zero among its nonzeros
    a = mat([[gr(1), gr(1)]], col_labels=["x", "y"])
    b = mat([[gr(2)], [gr(-2)]], row_labels=["x", "y"])
    assert (a @ b).entries == ((gr(0),),) and (a @ b).int_rows() == ((),)


def _over(rng, nr, nc, den, density=0.5):
    """A matrix of Gaussian integers over ``den`` with one entry 1/den, so
    that ``den`` is its denominator."""
    rows = [
        [gr(Fraction(rng.randint(-4, 4), den), Fraction(rng.randint(-4, 4), den))
         if rng.random() < density else gr(0) for _ in range(nc)]
        for _ in range(nr)
    ]
    rows[0][0] = gr(Fraction(1, den))
    return IndexedMatrix(range(nr), range(nc), rows)


def test_product_and_stacks_over_different_denominators_equal_dense_reference():
    rng = random.Random(127)
    for da, db in ((1, 3), (2, 5), (6, 4), (5, 5)):
        a, b = _over(rng, 5, 6, da), _over(rng, 6, 4, db)
        assert (a.denominator, b.denominator) == (da, db)
        prod = a @ b
        assert prod.denominator == da * db
        assert [list(row) for row in prod.entries] == _dense_product(a, b)
        assert prod == IndexedMatrix(prod.rows, prod.cols, _dense_product(a, b))
        c = _over(rng, 3, 6, db)
        v = vstack(a, c)
        assert v.entries == a.entries + c.entries
        d = _over(rng, 5, 2, db)
        h = hstack(a, d)
        assert h.entries == tuple(x + y for x, y in zip(a.entries, d.entries))
        for m in (prod, v, h):
            assert [sorted(row) for row in nonzero_pairs(m)] == _scanned_nonzeros(m)
            assert m.denominator % math.lcm(da, db) == 0
            assert rank(m) == to_sympy(m).rank()


def _dense_rows(rng, nr, nc, density):
    return [
        [
            gr(Fraction(rng.randint(-5, 5), rng.randint(1, 3)), rng.randint(-2, 2))
            if rng.random() < density
            else gr(0)
            for _ in range(nc)
        ]
        for _ in range(nr)
    ]


def test_indexed_matrix_stores_nonzeros_of_dense_rows():
    rng = random.Random(89)
    shapes = [(5, 7, 0.3), (6, 4, 0.9), (3, 3, 0.0), (0, 4, 0.5), (4, 0, 0.5), (0, 0, 0.5)]
    for nr, nc, density in shapes:
        rows = _dense_rows(rng, nr, nc, density)
        m = IndexedMatrix(range(nr), range(nc), rows)
        assert (m.nrows, m.ncols) == (nr, nc)
        assert m.entries == tuple(tuple(row) for row in rows)
        assert nonzero_pairs(m) == [[(j, z) for j, z in enumerate(row) if z] for row in rows]
        # equality reads the nonzeros, whatever order the triples come in
        shuffled = IndexedMatrix.from_int_rows(
            m.rows, m.cols, [tuple(rng.sample(row, len(row))) for row in m.int_rows()],
            m.denominator,
        )
        assert shuffled == m and shuffled.entries == m.entries
        for i, row in enumerate(nonzero_pairs(shuffled)):
            for j, z in row:
                assert shuffled.entries[i][j] == z
        if any(m.int_rows()):
            i = next(i for i, row in enumerate(rows) if any(row))
            j = next(j for j, z in enumerate(rows[i]) if z)
            rows[i][j] = rows[i][j] + gr(1, 1)
            assert IndexedMatrix(range(nr), range(nc), rows) != m
    # explicit zeros are dropped
    m = IndexedMatrix(["r"], ["x", "y"], [[gr(2), gr(0)]])
    assert m.int_rows() == (((0, 2, 0),),)
    assert m == IndexedMatrix.from_int_rows(["r"], ["x", "y"], [((0, 4, 0),)], 2)
    assert m == mat([[gr(2), gr(0)]], row_labels=["r"], col_labels=["x", "y"])
    assert m != mat([[gr(2), gr(0)]], row_labels=["r"], col_labels=["x", "z"])
    with pytest.raises(ValueError):
        IndexedMatrix(range(2), range(2), [[gr(1), gr(0)]])
    with pytest.raises(ValueError):
        IndexedMatrix(range(1), range(2), [[gr(1)]])
    with pytest.raises(AttributeError):
        m.entries = ()


def test_containment_error_pins_first_escaping_column():
    i = gr(0, 1)
    k = mat(
        [[gr(1), gr(0), gr(0)], [gr(0), gr(0), i]],
        row_labels=["t0", "t1"],
        col_labels=["e0", "e1", "e2"],
    )
    # column s0 is killed, s1 and s2 escape: the witness is s1
    img = mat(
        [
            [gr(0), gr(0), gr(3)],
            [gr(5), gr(Fraction(1, 2)), gr(0)],
            [gr(0), gr(2, -1), gr(1)],
        ],
        row_labels=["e0", "e1", "e2"],
        col_labels=["s0", "s1", "s2"],
    )
    fine = mat([[gr(0)], [gr(7)], [gr(0)]], row_labels=["e0", "e1", "e2"], col_labels=["u"])
    with pytest.raises(ContainmentError) as info:
        subquotient_dim(k, hstack(fine, img))
    assert info.value.witness == (gr(0), gr(Fraction(1, 2)), gr(2, -1))
    assert info.value.value == (gr(0), gr(1, 2))


def test_fraction_free_and_rref_agree_on_awkward_pivots():
    # leading zeros force pivot search; mixed denominators force clearing
    m = mat(
        [
            [gr(0), gr(0, 1), gr(Fraction(1, 3))],
            [gr(0), gr(2), gr(0, Fraction(-1, 7))],
            [gr(0), gr(0), gr(0)],
        ]
    )
    assert rank(m) == to_sympy(m).rank() == 2
    vecs = kernel_basis(m)
    assert len(vecs) == 1
    assert vecs[0][0] == gr(1)  # e1 direction is free, normalized leading 1


def test_subquotient_dim_raises_when_dimension_goes_negative(monkeypatch):
    # an overcounting rank drives the subquotient dimension below zero
    true_rank = nilcoh.linalg.rank
    monkeypatch.setattr(nilcoh.linalg, "rank", lambda m: true_rank(m) + 1)
    z = mat([[gr(0), gr(0)]], row_labels=["t"], col_labels=["e1", "e2"])
    img = mat([[gr(1)], [gr(0)]], row_labels=["e1", "e2"], col_labels=["s"])
    with pytest.raises(ArithmeticError):
        subquotient_dim(z, img)


# ---------------------------------------------------------------------------
# exact outputs of every elimination view against sympy


def _expand_is_zero(x):
    return sympy.expand(x) == 0


def sympy_rref(m: IndexedMatrix):
    return to_sympy(m).rref(iszerofunc=_expand_is_zero, simplify=sympy.expand)


def from_sympy(x):
    re, im = sympy.expand(x).as_real_imag()
    return gr(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def oracle_matrices():
    """Random matrices with mixed denominators, a zero column and a
    dependent row, then one dense Gaussian-integer matrix and the
    staircases."""
    rng = random.Random(67)
    for _ in range(25):
        m = rand_matrix(
            rng, rng.randint(1, 5), rng.randint(1, 6), rng.choice([0.3, 0.6, 0.9])
        )
        rows = [list(r) for r in m.entries]
        zero = rng.randrange(m.ncols)
        for row in rows:
            row[zero] = gr(0)
        if len(rows) >= 2:
            fac = gr(Fraction(rng.randint(-3, 3), 2), rng.randint(-2, 2))
            rows[-1] = [a + fac * b for a, b in zip(rows[0], rows[1])]
        yield mat(rows)
    yield mat(
        [[gr(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(8)] for _ in range(6)]
    )
    yield from staircase_matrices()


def staircase_matrices():
    """Staircases with pivots that are not units, so the scale of a row
    that a step skips falls behind the last pivot.

    In the first, the step on column 0 reaches rows 3 and 4, the steps on
    columns 1 and 2 skip them, row 3 then becomes the pivot row and the
    step on column 3 reaches row 4; rows 1 and 2, skipped by the step on
    column 0, become pivot rows; and in the reduced pass the step on
    column 3 skips rows 0-2, which the step on column 4 reaches.  The
    second takes the same rows in reverse order (row swaps).  Then seeded
    random ones, shuffled: each row a non-unit on the diagonal and two
    entries at least two columns away from it, some with one more row
    that depends on two others."""
    first = [
        [gr(2), gr(0), gr(0), gr(0), gr(1)],
        [gr(0), gr(3), gr(0), gr(0), gr(1, 1)],
        [gr(0), gr(0), gr(1, 2), gr(0), gr(2)],
        [gr(1), gr(0), gr(0), gr(5), gr(1)],
        [gr(1), gr(0), gr(0), gr(1), gr(3)],
    ]
    yield mat(first)
    yield mat(first[::-1])
    rng = random.Random(83)
    for n in (5, 6, 7, 8, 9, 10):
        rows = []
        for i in range(n):
            row = [gr(0)] * n
            row[i] = gr(rng.choice([2, 3, -2]), rng.choice([0, 1, -1]))
            far = [j for j in range(n) if abs(j - i) >= 2]
            for j in rng.sample(far, min(len(far), 2)):
                row[j] = gr(rng.choice([1, -2, 3]), rng.choice([0, 2]))
            rows.append(row)
        if n % 2:
            a, b = rng.sample(rows, 2)
            rows.append([x + gr(1, 1) * y for x, y in zip(a, b)])
        rng.shuffle(rows)
        yield mat(rows)


def sparse_matrices():
    """Seeded sparse matrices, 1-5% nonzero with mixed denominators: tall,
    wide and square, each with an empty row, an empty column and a row
    that is a combination of two others (fill-in, rank deficiency)."""
    rng = random.Random(73)
    for shape in [(40, 12), (36, 18), (12, 40), (16, 36), (30, 30), (24, 28)] * 2:
        nr, nc = shape
        density = rng.uniform(0.01, 0.05)
        rows = [[gr(0)] * nc for _ in range(nr)]
        cells = rng.sample(range(nr * nc), max(4, round(density * nr * nc)))
        for cell in cells:
            rows[cell // nc][cell % nc] = gr(
                Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 1, 2, 3, 5])),
                Fraction(rng.choice([0, 0, -1, 1, 4]), rng.choice([1, 2, 7])),
            )
        empty_row, empty_col = rng.randrange(nr), rng.randrange(nc)
        rows[empty_row] = [gr(0)] * nc
        for row in rows:
            row[empty_col] = gr(0)
        full = [i for i in range(nr) if i != empty_row and any(rows[i])]
        if len(full) >= 3:
            a, b, c = rng.sample(full, 3)
            fac = gr(Fraction(rng.randint(1, 3), 2), rng.randint(-1, 1))
            rows[c] = [x + fac * y for x, y in zip(rows[a], rows[b])]
        yield mat(rows)


def _sympy_kernel(m):
    out = []
    for v in to_sympy(m).nullspace(iszerofunc=_expand_is_zero, simplify=sympy.expand):
        vec = [from_sympy(x) for x in v]
        lead = next(x for x in vec if x)
        out.append(tuple(x / lead for x in vec))
    return out


def test_sparse_rank_kernel_span_and_complement_equal_sympy():
    rng = random.Random(79)
    for m in sparse_matrices():
        reduced, pivots = sympy_rref(m)
        assert rank(m) == len(pivots)
        assert kernel_basis(m) == _sympy_kernel(m)
        assert span_basis(list(m.entries)) == [
            tuple(from_sympy(reduced[k, j]) for j in range(m.ncols))
            for k in range(len(pivots))
        ]
        for nb in {0, rng.randint(0, m.ncols), m.ncols}:
            expected = [p - nb for p in pivots if p >= nb]
            assert greedy_complement(*split_columns(m, nb)) == expected


def split_columns(m, nb):
    """``(base, candidates)``: the first nb columns of m as a matrix over
    m's row labels, and the remaining columns as Gaussian-integer vectors,
    dicts row index -> (re, im) of m's integer rows."""
    base = IndexedMatrix(m.rows, m.cols[:nb], [row[:nb] for row in m.entries])
    candidates = [{} for _ in range(nb, m.ncols)]
    for i, row in enumerate(m.int_rows()):
        for j, re, im in row:
            if j >= nb:
                candidates[j - nb][i] = (re, im)
    return base, candidates


@pytest.mark.parametrize("reduced", [False, True], ids=["forward", "reduced"])
def test_staircase_elimination_equals_sympy(reduced):
    """Pivots, rank, sign * last and, reduced, the RREF rows where rows
    skip steps and are brought up to date later."""
    for m in staircase_matrices():
        expected, pivots = sympy_rref(m)
        got, rows, last, sign = nilcoh.linalg._echelon(m.int_rows(), m.ncols, reduced)
        r = len(got)
        assert got == list(pivots) and rank(m) == r
        assert not any(rows[r:])
        if reduced:
            assert [_dense(*_quotient(row, last), m.ncols) for row in rows[:r]] == [
                tuple(from_sympy(expected[k, j]) for j in range(m.ncols)) for k in range(r)
            ]
        if m.nrows == m.ncols == r:
            det = to_sympy(m).det() * m.denominator**r
            assert gr(sign * last[0], sign * last[1]) == from_sympy(det)


@pytest.mark.parametrize("reduced", [False, True], ids=["forward", "reduced"])
def test_a_step_leaves_alone_the_rows_without_its_column(monkeypatch, reduced):
    """Block-diagonal input, four dense 3 x 3 blocks with distinct
    non-unit entries: a step combines only the rows of its own block.
    Eager Bareiss would rescale every row of the later blocks at every
    step; here each step reaches the rows below it in its block (forward)
    or all the others of its block (reduced), each block's first pivot
    row is brought up to the last pivot once, and the reduced pass finally
    brings the rows of all but the last block to ``last``."""
    blocks, b = 4, 3
    rng = random.Random(89)
    rows = []
    for k in range(blocks):
        for _ in range(b):
            rows.append(tuple((k * b + j, rng.randint(2, 9), rng.randint(-9, 9)) for j in range(b)))
    combined = []
    real = nilcoh.linalg._combine

    def spy(p, row, f, prow, q):
        combined.append({j // b for j in row})
        return real(p, row, f, prow, q)

    monkeypatch.setattr(nilcoh.linalg, "_combine", spy)
    pivots = nilcoh.linalg._echelon(rows, blocks * b, reduced)[0]
    assert pivots == list(range(blocks * b))
    assert all(len(touched) == 1 for touched in combined)
    reached = blocks * b * (b - 1) // (1 if reduced else 2)
    final = (blocks - 1) * b if reduced else 0
    assert len(combined) == reached + (blocks - 1) + final


def test_forward_rank_and_kernel_vectors_on_n6_fixed_core_operators():
    """n = 6 with a closed core of three generators and three bracket
    terms on each other generator: on every del, delbar and del delbar
    matrix the exact forward pass gives the certified rank wherever the
    mod-p and structural bounds meet, and every kernel vector is killed
    by its matrix in exact arithmetic."""
    rng = random.Random(97)
    core = 3
    monomials = [alpha(a) ^ alpha(b) for a in range(1, core + 1) for b in range(a + 1, core + 1)]
    monomials += [alpha(a) ^ alphabar(b) for a in range(1, core + 1) for b in range(1, core + 1)]
    diffs = [Form()] * core
    for _ in range(core, 6):
        coeffs = [gr(rng.choice([-2, -1, 1, 2]), rng.choice([-2, -1, 1, 2])) for _ in range(3)]
        diffs.append(sum((c * x for c, x in zip(coeffs, rng.sample(monomials, 3))), Form()))
    spec = AlgebraSpec("fixed_core", 6, diffs)
    assert validate(spec).jacobi_ok
    met = 0
    for op in ("del", "delbar", "deldelbar"):
        for p in range(7):
            for q in range(7):
                m = operator_matrix(spec, op, p, q)
                rows = m.int_rows()
                forward = len(nilcoh.linalg._echelon(rows, m.ncols, False)[0])
                if nilcoh.linalg._rank_mod_p(rows, m.ncols) == nilcoh.linalg._structural_rank(rows):
                    met += 1
                    assert forward == rank(m)
                vectors = nilcoh.linalg._kernel_vectors(m)
                assert len(vectors) == m.ncols - forward
                for vec in vectors:
                    for row in rows:
                        image = [0, 0]
                        for j, re, im in row:
                            x = vec.get(j)
                            if x is not None:
                                image[0] += re * x[0] - im * x[1]
                                image[1] += re * x[1] + im * x[0]
                        assert image == [0, 0]
    assert met > 100


def test_kernel_basis_vectors_equal_sympy_nullspace():
    for m in oracle_matrices():
        assert kernel_basis(m) == _sympy_kernel(m)


def test_span_basis_equals_sympy_rref_rows():
    for m in oracle_matrices():
        reduced, pivots = sympy_rref(m)
        expected = [
            tuple(from_sympy(reduced[k, j]) for j in range(m.ncols))
            for k in range(len(pivots))
        ]
        assert span_basis(list(m.entries)) == expected


def test_greedy_complement_equals_sympy_rref_pivots():
    rng = random.Random(71)
    for m in oracle_matrices():
        _, pivots = sympy_rref(m)
        for nb in {0, rng.randint(0, m.ncols), m.ncols}:
            expected = [p - nb for p in pivots if p >= nb]
            assert greedy_complement(*split_columns(m, nb)) == expected
    base, candidates = split_columns(m, 1)
    for row in (-1, base.nrows):  # a candidate entry outside base's rows
        with pytest.raises(ValueError, match="out of range"):
            greedy_complement(base, candidates + [{0: (1, 0), row: (2, -1)}])


def test_leading_minors_equal_sympy_determinants():
    for m in oracle_matrices():
        k = min(m.nrows, m.ncols)
        square = [row[:k] for row in m.entries[:k]]
        indefinite = [
            [square[i][j] + square[j][i].conjugate() for j in range(k)]
            for i in range(k)
        ]
        # A A^H has rank at most ncols, so its trailing minors vanish
        gram = [
            [
                sum((a * b.conjugate() for a, b in zip(ri, rj)), gr(0))
                for rj in m.entries
            ]
            for ri in m.entries
        ]
        for h in (indefinite, gram):
            metric = MetricForm(h)
            expected = [
                from_sympy(to_sympy(mat([row[:j] for row in h[:j]])).det())
                for j in range(1, len(h) + 1)
            ]
            assert [gr(x) for x in metric.leading_minors()] == expected


# ---------------------------------------------------------------------------
# certified rank: the mod-p lower bound, the structural upper bound and the
# exact fallback

P, S = nilcoh.linalg._P, nilcoh.linalg._S
# entries that vanish mod p (p itself, i - s) or leave it in a denominator
SPECIAL = [gr(P), gr(-S, 1), gr(Fraction(1, P)), gr(1), gr(-1), gr(0, 1), gr(2, -3)]


def sympy_rank(m):
    return len(sympy_rref(m)[1])


def test_prime_and_square_root_of_minus_one():
    assert sympy.isprime(P) and P % 4 == 1
    assert S * S % P == P - 1


def bounds(m):
    rows = m.int_rows()
    return nilcoh.linalg._rank_mod_p(rows, m.ncols), nilcoh.linalg._structural_rank(rows)


RANK_CASES = {
    # r_p meets the structural bound
    "dense random": (rand_matrix(random.Random(11), 6, 8, density=1.0), "certified"),
    "sparse random": (rand_matrix(random.Random(13), 7, 6, density=0.3), "certified"),
    # cancellation: rank 1 < structural rank 2
    "cancellation": (mat([[gr(1), gr(1)], [gr(1), gr(1)]]), "fallback"),
    # entries that vanish mod p
    "p": (mat([[gr(P)]]), "fallback"),
    "diagonal p, 1": (mat([[gr(P), gr(0)], [gr(0), gr(1)]]), "fallback"),
    "i - s": (mat([[gr(-S, 1)]]), "fallback"),
    "1/p beside 1": (mat([[gr(Fraction(1, P)), gr(1)], [gr(Fraction(1, P)), gr(0)]]), "fallback"),
    "p times a dependent row": (
        mat([[gr(1), gr(2)], [gr(P), gr(2 * P)], [gr(0), gr(0, 1)]]),
        "certified",
    ),
    # the greedy pass leaves two rows whose matches need augmenting paths
    "augmenting paths": (
        mat(
            [
                [gr(1), gr(2), gr(3), gr(4), gr(0)],
                [gr(0), gr(0), gr(0), gr(0), gr(5)],
                [gr(6), gr(0), gr(7), gr(8), gr(0)],
                [gr(0), gr(0), gr(9), gr(0), gr(10)],
                [gr(11), gr(0), gr(12), gr(0), gr(13)],
            ]
        ),
        "certified",
    ),
    # rank 2 below three nonzero rows and columns: only a matching certifies it
    "structurally deficient": (
        mat([[gr(1), gr(1), gr(1)], [gr(1), gr(0), gr(0)], [gr(2), gr(0), gr(0)]]),
        "certified",
    ),
    # all-zero rows and columns, empty matrices
    "zero rows and columns": (
        mat([[gr(0), gr(0), gr(0)], [gr(0), gr(3), gr(0)], [gr(0), gr(0), gr(0)]]),
        "certified",
    ),
    "all zero": (mat([[gr(0)] * 3] * 2), "certified"),
    # more matrices at least a quarter nonzero, which take the packed mod-p kernel
    "dense p": (mat([[gr(P), gr(P)], [gr(P), gr(P)]]), "fallback"),
    "dense i - s": (mat([[gr(-S, 1), gr(1)], [gr(0), gr(-S, 1)]]), "fallback"),
    "dense dependent rows near p - 1": (
        mat(
            [
                [gr(P - 1), gr(P - 2, 1), gr(3)],
                [gr(2 * P - 2), gr(2 * P - 4, 2), gr(6)],
                [gr(1), gr(P - 1), gr(0, P - 1)],
            ]
        ),
        "fallback",
    ),
    "quarter dense": (mat([[gr(0), gr(0)], [gr(0), gr(P - 1)]]), "certified"),
    "no rows": (IndexedMatrix((), ("c0", "c1"), []), "certified"),
    "no columns": (IndexedMatrix(("r0", "r1"), (), [[], []]), "certified"),
    "empty": (IndexedMatrix((), (), []), "certified"),
}


@pytest.mark.parametrize("case", sorted(RANK_CASES))
def test_rank_path_and_value_equal_sympy(monkeypatch, case):
    m, path = RANK_CASES[case]
    m = IndexedMatrix(m.rows, m.cols, m.entries)  # a copy with no stored rank
    expected = sympy_rank(m)
    low, high = bounds(m)
    assert low <= expected <= high
    assert (low == high) == (path == "certified")
    calls = spy_eliminations(monkeypatch)
    assert rank(m) == expected
    exact = [rows for kind, rows in calls if kind == "exact"]
    assert len(exact) == (0 if path == "certified" else 1)
    assert [kind for kind, _ in calls].count("mod p") == 1


@pytest.mark.parametrize(
    "case, matchings",
    [
        ("dense random", 0),  # full row rank
        ("zero rows and columns", 0),  # rank 1, one nonzero row
        ("structurally deficient", 1),
        ("cancellation", 1),
    ],
)
def test_matching_runs_only_below_the_nonzero_counts(monkeypatch, case, matchings):
    m = RANK_CASES[case][0]
    m = IndexedMatrix(m.rows, m.cols, m.entries)
    calls = []
    structural = nilcoh.linalg._structural_rank
    monkeypatch.setattr(
        nilcoh.linalg, "_structural_rank", lambda rows: calls.append(rows) or structural(rows)
    )
    assert rank(m) == sympy_rank(m)
    assert len(calls) == matchings


def mod_p_rows(rng, nr, nc, density):
    """Gaussian-integer rows with entries p, i - s, residues near p - 1 and
    small values at the given density, and sometimes rows that are
    multiples (by residues near p - 1) of rows drawn before them."""
    near = [P - 1, P - 2, 2 * P - 1, P * P - 1]
    rows = []
    for _ in range(nr):
        if rows and rng.random() < 0.3:
            base, f = rng.choice(rows), rng.choice(near)
            rows.append(tuple((j, a * f, b * f) for j, a, b in base))
            continue
        row = []
        for j in range(nc):
            if rng.random() < density:
                a, b = rng.choice(
                    [(P, 0), (-S, 1), (rng.choice(near), 0), (0, rng.choice(near))]
                    + [(rng.randint(-3, 3), rng.randint(-3, 3))] * 2
                )
                if a or b:
                    row.append((j, a, b))
        rows.append(tuple(row))
    return rows


def gf_p_rank(rows, nc):
    field = sympy.GF(P)
    dense = [[field(0)] * nc for _ in rows]
    for dense_row, row in zip(dense, rows):
        for j, a, b in row:
            dense_row[j] = field((a + b * S) % P)
    return DomainMatrix(dense, (len(rows), nc), field).rank()


def test_mod_p_kernels_equal_sympy_rank_over_gf_p():
    rng = random.Random(89)
    packed_calls = 0
    for _ in range(600):
        nr, nc = rng.randint(0, 12), rng.randint(0, 12)
        rows = mod_p_rows(rng, nr, nc, rng.random())
        expected = gf_p_rank(rows, nc)
        assert nilcoh.linalg._dict_rank_mod_p(rows) == expected
        assert nilcoh.linalg._packed_rank_mod_p(rows, nc) == expected
        assert nilcoh.linalg._rank_mod_p(rows, nc) == expected
        nnz = sum(map(len, rows))
        packed_calls += bool(nnz and 4 * nnz >= nr * nc)
    assert 200 < packed_calls < 550


def test_packed_kernel_slots_hold_every_delayed_sum():
    # 110 pivots add up to 110 (p - 1)**2 to a slot: the dependent rows
    # reach zero mod p only if no slot overflowed into its neighbour
    rng = random.Random(97)
    n, r = 120, 110
    left = [[rng.randrange(P // 2, P) for _ in range(r)] for _ in range(n)]
    right = [[rng.randrange(P // 2, P) for _ in range(n)] for _ in range(r)]
    rows = [
        tuple((j, sum(x * y for x, y in zip(row, col)) % P, 0) for j, col in enumerate(zip(*right)))
        for row in left
    ]
    assert nilcoh.linalg._packed_rank_mod_p(rows, n) == nilcoh.linalg._dict_rank_mod_p(rows) == r


def test_rank_takes_the_packed_kernel_only_on_dense_matrices(monkeypatch):
    kernels = []
    for name in ("_packed_rank_mod_p", "_dict_rank_mod_p"):
        fn = getattr(nilcoh.linalg, name)
        monkeypatch.setattr(
            nilcoh.linalg,
            name,
            lambda rows, *args, fn=fn, name=name: kernels.append(name) or fn(rows, *args),
        )
    dense = rand_matrix(random.Random(19), 5, 7, density=1.0)
    assert rank(dense) == sympy_rank(dense)
    assert kernels == ["_packed_rank_mod_p"]
    spec = exnilp_spec(3, 0, ones_matrix(2))
    sparse = differential_matrix(spec, degree_masks(3, 2), degree_masks(3, 3))
    nnz = sum(map(len, sparse.int_rows()))
    assert 0 < 4 * nnz < sparse.nrows * sparse.ncols
    assert rank(sparse) == sympy_rank(sparse)
    assert kernels == ["_packed_rank_mod_p", "_dict_rank_mod_p"]


def reference_matching(adj):
    """Maximum matching size by recursive augmenting paths (Kuhn)."""
    owner = {}

    def augment(i, seen):
        for j in adj[i]:
            if j not in seen:
                seen.add(j)
                if j not in owner or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return sum(augment(i, set()) for i in range(len(adj)))


def test_structural_rank_equals_a_reference_matching():
    rng = random.Random(83)
    for _ in range(400):
        nr, nc = rng.randint(0, 9), rng.randint(0, 9)
        density = rng.uniform(0.1, 0.6)
        adj = [[j for j in range(nc) if rng.random() < density] for _ in range(nr)]
        rows = [tuple((j, gr(1)) for j in cols) for cols in adj]
        assert nilcoh.linalg._structural_rank(rows) == reference_matching(adj)


def test_rank_bound_checks_raise(monkeypatch):
    m = mat([[gr(1), gr(1)], [gr(1), gr(1)]])
    monkeypatch.setattr(nilcoh.linalg, "_structural_rank", lambda rows: 0)
    with pytest.raises(ArithmeticError, match="exceeds structural rank"):
        rank(m)
    monkeypatch.setattr(nilcoh.linalg, "_structural_rank", lambda rows: 3)
    monkeypatch.setattr(nilcoh.linalg, "_echelon", lambda rows, nc, reduced: ([0] * 4, [], 1, 1))
    with pytest.raises(ArithmeticError, match="outside bounds"):
        rank(m)
    assert m._rank is None


SPARSE_ENTRIES = st.one_of(st.just(gr(0)), st.sampled_from(SPECIAL))


@FUZZ
@given(
    st.integers(0, 5).flatmap(
        lambda nc: st.lists(
            st.lists(SPARSE_ENTRIES, min_size=nc, max_size=nc), min_size=0, max_size=5
        ).map(lambda rows: (rows, nc))
    )
)
def test_rank_equals_sympy_on_sparse_special_matrices(drawn):
    rows, nc = drawn
    m = IndexedMatrix(range(len(rows)), range(nc), rows)
    expected = sympy_rank(m)
    low, high = bounds(m)
    assert low <= expected <= high
    assert rank(m) == expected
