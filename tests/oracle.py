"""Independent brute-force oracle for the exterior-calculus tests.

Everything here is deliberately implemented differently from the package:

* basis one-forms are signed integers (+j holomorphic, -j conjugate), and
  words are sorted tuples with a permutation-parity sign computed by
  explicit bubble sort (the package merges ordered factors instead);
* scalars are sympy expressions (the package uses its own exact Gaussian
  rationals);
* the differential is evaluated term-by-term via the Leibniz rule over
  letter positions (the package pops letters against cached generator
  differentials);
* all ranks and kernels come from sympy's Matrix (the package uses
  fraction-free elimination over Gaussian integers).

Agreement between the two stacks on random inputs is therefore meaningful
evidence rather than a tautology.
"""

from __future__ import annotations

import itertools

import sympy
from sympy import I, Matrix, Rational, conjugate


def _letter_key(letter: int):
    # holomorphic letters first (ascending), then conjugate letters
    return (0, letter) if letter > 0 else (1, -letter)


def sort_word(letters):
    """Bubble-sort a letter sequence into canonical order.

    Returns (sign, word) with word None when a letter repeats.
    """
    seq = list(letters)
    sign = 1
    changed = True
    while changed:
        changed = False
        for k in range(len(seq) - 1):
            a, b = seq[k], seq[k + 1]
            if a == b:
                return 0, None
            if _letter_key(a) > _letter_key(b):
                seq[k], seq[k + 1] = b, a
                sign = -sign
                changed = True
    if len(set(seq)) != len(seq):
        return 0, None
    return sign, tuple(seq)


def mv_add(x, y):
    out = dict(x)
    for w, c in y.items():
        c2 = sympy.expand(out.get(w, 0) + c)
        if c2 == 0:
            out.pop(w, None)
        else:
            out[w] = c2
    return out


def mv_scale(c, x):
    if c == 0:
        return {}
    return {w: sympy.expand(c * v) for w, v in x.items()}


def mv_wedge(x, y):
    out = {}
    for wx, cx in x.items():
        for wy, cy in y.items():
            sign, w = sort_word(wx + wy)
            if sign == 0:
                continue
            c = sympy.expand(out.get(w, 0) + sign * cx * cy)
            if c == 0:
                out.pop(w, None)
            else:
                out[w] = c
    return out


def mv_conj(x):
    out = {}
    for w, c in x.items():
        sign, w2 = sort_word(tuple(-l for l in w))
        assert sign != 0
        c2 = sympy.expand(sign * conjugate(c))
        if c2 != 0:
            out[w2] = c2
    return out


class OracleAlgebra:
    """n generators; d_table[j] is the multivector d(alpha_j), j = 1..n."""

    def __init__(self, n, d_table):
        self.n = n
        self.d_table = {j: dict(v) for j, v in d_table.items()}

    @classmethod
    def from_spec(cls, spec, to_sympy):
        """Extract raw structure constants from a package AlgebraSpec.

        ``to_sympy`` converts the package scalar type; only data crosses
        the boundary, no package computations are reused.
        """
        table = {}
        for j in range(1, spec.n + 1):
            mv = {}
            for bf, c in spec.d_alpha(j).terms():
                word_letters = tuple(bf.holo) + tuple(-t for t in bf.anti)
                sign, w = sort_word(word_letters)
                assert sign == 1 and w is not None
                mv[w] = to_sympy(c)
            table[j] = mv
        return cls(spec.n, table)

    def d_letter(self, letter):
        if letter > 0:
            return self.d_table.get(letter, {})
        return mv_conj(self.d_table.get(-letter, {}))

    def d_word(self, word):
        out = {}
        for k, letter in enumerate(word):
            dk = self.d_letter(letter)
            pref, suf = word[:k], word[k + 1 :]
            for w, c in dk.items():
                sign, full = sort_word(pref + w + suf)
                if sign == 0:
                    continue
                coeff = sympy.expand(out.get(full, 0) + (-1) ** k * sign * c)
                if coeff == 0:
                    out.pop(full, None)
                else:
                    out[full] = coeff
        return out

    def d_mv(self, x):
        out = {}
        for w, c in x.items():
            out = mv_add(out, mv_scale(c, self.d_word(w)))
        return out

    def bidegree_part(self, x, p, q):
        return {
            w: c
            for w, c in x.items()
            if sum(1 for l in w if l > 0) == p and sum(1 for l in w if l < 0) == q
        }

    def del_mv(self, x):
        out = {}
        for w, c in x.items():
            p = sum(1 for l in w if l > 0)
            q = len(w) - p
            out = mv_add(out, self.bidegree_part(self.d_mv({w: c}), p + 1, q))
        return out

    def delbar_mv(self, x):
        out = {}
        for w, c in x.items():
            p = sum(1 for l in w if l > 0)
            q = len(w) - p
            out = mv_add(out, self.bidegree_part(self.d_mv({w: c}), p, q + 1))
        return out

    # ----- bases and matrices ------------------------------------------

    def words(self, p, q):
        out = []
        for h in itertools.combinations(range(1, self.n + 1), p):
            for a in itertools.combinations(range(1, self.n + 1), q):
                out.append(h + tuple(-x for x in a))
        return sorted(out, key=lambda w: [_letter_key(l) for l in w])

    def words_total(self, k):
        out = []
        for p in range(k + 1):
            q = k - p
            if p <= self.n and q <= self.n:
                out.extend(self.words(p, q))
        return out

    def matrix_of(self, op, src_words, dst_words):
        index = {w: i for i, w in enumerate(dst_words)}
        mat = sympy.zeros(len(dst_words), len(src_words))
        for col, w in enumerate(src_words):
            img = op({w: sympy.Integer(1)})
            for w2, c in img.items():
                mat[index[w2], col] = c
        return mat

    # ----- the nilpotency flag ------------------------------------------

    def filtration(self):
        """(nilpotent, dims) of the ascending flag S_1 <= S_2 <= ... of
        one-forms, S_l = { phi : d phi in Lambda^2(S_{l-1}) } and S_0 = 0,
        straight from the definition: phi is in S_l exactly when
        (phi, w) is in the nullspace of [D | W] for some w, D the matrix of
        d on one-forms and W the wedges of pairs of a basis of S_{l-1}.
        Stops when the flag reaches all 2n one-forms or repeats."""
        ones = self.words_total(1)
        twos = self.words_total(2)
        index = {w: i for i, w in enumerate(twos)}

        def column(mv):
            col = sympy.zeros(len(twos), 1)
            for w, c in mv.items():
                col[index[w], 0] = c
            return col

        d_cols = [column(self.d_word(w)) for w in ones]
        prev = []
        dims = []
        while True:
            wedges = [column(mv_wedge(a, b)) for a, b in itertools.combinations(prev, 2)]
            kernel = Matrix.hstack(*d_cols, *wedges).nullspace()
            projected = [v[: len(ones), 0] for v in kernel]
            basis = Matrix.hstack(*projected).columnspace() if projected else []
            dims.append(len(basis))
            if len(basis) == len(ones):
                return True, dims
            if len(basis) == len(prev):
                return False, dims
            prev = [{w: c for w, c in zip(ones, v) if c != 0} for v in basis]

    # ----- cohomology dimensions ---------------------------------------

    def dolbeault_dim(self, p, q):
        src = self.words(p, q)
        below = self.words(p, q - 1) if q >= 1 else []
        dst = self.words(p, q + 1) if q + 1 <= self.n else []
        mat = self.matrix_of(self.delbar_mv, src, dst) if dst else sympy.zeros(0, len(src))
        ker = len(src) - mat.rank()
        img = 0
        if below:
            img = self.matrix_of(self.delbar_mv, below, src).rank()
        return ker - img

    def conj_dolbeault_dim(self, p, q):
        src = self.words(p, q)
        left = self.words(p - 1, q) if p >= 1 else []
        dst = self.words(p + 1, q) if p + 1 <= self.n else []
        mat = self.matrix_of(self.del_mv, src, dst) if dst else sympy.zeros(0, len(src))
        ker = len(src) - mat.rank()
        img = 0
        if left:
            img = self.matrix_of(self.del_mv, left, src).rank()
        return ker - img

    def bott_chern_dim(self, p, q):
        src = self.words(p, q)
        if not src:
            return 0
        dst_d = self.words_total(p + q + 1)
        dmat = (
            self.matrix_of(self.d_mv, src, dst_d)
            if dst_d
            else sympy.zeros(0, len(src))
        )
        ker = len(src) - dmat.rank()
        img = 0
        corner = self.words(p - 1, q - 1) if (p >= 1 and q >= 1) else []
        if corner:
            op = lambda x: self.del_mv(self.delbar_mv(x))
            img = self.matrix_of(op, corner, src).rank()
        return ker - img

    def aeppli_dim(self, p, q):
        src = self.words(p, q)
        if not src:
            return 0
        dst = self.words(p + 1, q + 1) if (p + 1 <= self.n and q + 1 <= self.n) else []
        op = lambda x: self.del_mv(self.delbar_mv(x))
        mat = self.matrix_of(op, src, dst) if dst else sympy.zeros(0, len(src))
        ker = len(src) - mat.rank()
        blocks = []
        left = self.words(p - 1, q) if p >= 1 else []
        below = self.words(p, q - 1) if q >= 1 else []
        if left:
            blocks.append(self.matrix_of(self.del_mv, left, src))
        if below:
            blocks.append(self.matrix_of(self.delbar_mv, below, src))
        img = Matrix.hstack(*blocks).rank() if blocks else 0
        return ker - img

    def derham_dim(self, k):
        src = self.words_total(k)
        if not src:
            return 0
        dst = self.words_total(k + 1)
        below = self.words_total(k - 1) if k >= 1 else []
        dmat = self.matrix_of(self.d_mv, src, dst) if dst else sympy.zeros(0, len(src))
        ker = len(src) - dmat.rank()
        img = 0
        if below:
            img = self.matrix_of(self.d_mv, below, src).rank()
        return ker - img


def scalar_to_sympy(s):
    """Convert the package's Gaussian-rational scalar to a sympy number."""
    return Rational(s.re.numerator, s.re.denominator) + I * Rational(
        s.im.numerator, s.im.denominator
    )


def form_to_mv(form, to_sympy=scalar_to_sympy):
    out = {}
    for bf, c in form.terms():
        word = tuple(bf.holo) + tuple(-t for t in bf.anti)
        sign, w = sort_word(word)
        assert sign == 1
        out[w] = to_sympy(c)
    return out


def mv_equal(x, y):
    keys = set(x) | set(y)
    return all(sympy.simplify(x.get(w, 0) - y.get(w, 0)) == 0 for w in keys)
