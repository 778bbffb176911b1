"""Hermitian metric forms and their closedness conditions.

A metric is a Hermitian n x n matrix H of Gaussian rationals; the
associated real (1,1)-form is ``omega = i * sum_jk H[j][k] a_j ^ ~a_k``.
Its wedge powers are read off the minors of H,

    omega^k = k! i^k (-1)^(k(k-1)/2) sum_{|S|=|T|=k} det H[S,T] a_S ^ ~a_T,

since a term a_j1^~a_k1 ^ ... ^ a_jk^~a_kk reorders to a_S ^ ~a_T with
the sign (-1)^(k(k-1)/2) times the signs of the permutations j and k, and
the k! orderings of the factors give the same term.  The minors are
computed exactly over the Gaussian integers (see
:meth:`MetricForm._power_from_minors`); the checks differentiate those
integers (:func:`nilcoh.algebra._apply`) and build a Form only at the end.

Positivity (H positive definite) is decided exactly by Sylvester's
criterion on leading principal minors and is reported, not required: the
closedness checks below are well-defined for any Hermitian H.

Conditions on omega (n the dimension), each but pluriclosed:K a ``CONDITIONS`` row:

* ``kahler``          d omega = 0
* ``gauduchon``       del delbar (omega^(n-1)) = 0
* ``skt``             del delbar omega = 0
* ``astheno``         del delbar (omega^(n-2)) = 0
* ``ft_pair``         del delbar omega = 0 = del delbar (omega^2); also ``ftpair``
* ``pluriclosed:K``   del delbar (omega^(n-K)) = 0 for K in 1..n, trivially true at K = n

``check_condition`` returns the verdict together with the obstruction form
itself as a witness (zero exactly when the condition holds).  All outcomes
are invariant under rescaling H by a positive rational.

Two structure families come with closed-form left-hand sides whose
vanishing is equivalent to a metric condition for the diagonal identity
metric (the direct computation is the oracle for both):

* :func:`exnilp_lhs` for the almost-abelian-style family
  ``d a_n = sum_{i<j<n} A_ij a_i^a_j + sum_{i,j<n} B_ij a_i^~a_j``
  (all other generators closed): astheno holds iff
  ``sum |A_ij|^2 + sum_{i,j} |B_ij|^2 - |tr B|^2 = 0``.
* :func:`fps_lhs` for the six-dimensional SKT family
  ``d a_3 = A ~a1^a2 + B ~a2^a2 + C a1^~a1 + D a1^~a2 + E a1^a2``:
  SKT holds iff ``|A|^2 + |D|^2 + |E|^2 + 2 Re(conj(B) C) = 0``.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import product
from math import factorial

from .algebra import AlgebraSpec, _apply, _per_spec, parse_dimension, require_complex
from .forms import Form, _mask_form
from .linalg import _echelon
from .scalars import GaussianRational, _integer_rows


def _as_scalar(x) -> GaussianRational:
    return x if isinstance(x, GaussianRational) else GaussianRational(x)


class MetricForm:
    """Hermitian coefficient matrix, also as Gaussian-integer rows over L
    (the lcm of its denominators), with cached omega and wedge powers."""

    __slots__ = ("n", "H", "_rows", "_scale", "_caches")

    def __init__(self, H):
        H = tuple(tuple(_as_scalar(x) for x in row) for row in H)
        n = len(H)
        if any(len(row) != n for row in H):
            raise ValueError("H must be a square matrix")
        for j in range(n):
            for k in range(n):
                if H[j][k] != H[k][j].conjugate():
                    raise ValueError(
                        "H is not Hermitian at entry (%d, %d)" % (j + 1, k + 1)
                    )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "H", H)
        rows, scale = _integer_rows(map(enumerate, H))
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_caches", {})

    def __setattr__(self, name, value):
        raise AttributeError("MetricForm is immutable")

    @property
    def omega(self) -> Form:
        """i * sum H[j][k] a_j ^ ~a_k (a real (1,1)-form)."""
        return self.wedge_power(1)

    def wedge_power(self, k: int) -> Form:
        """omega^k from the k x k minors of H (see the module docstring), with
        omega^0 = 1 and omega^k = 0 for k > n."""
        return _mask_form(self.n, *self._power(k))

    @_per_spec
    def _power(self, k: int):
        """omega^k as ``(terms, L^k)``, ``terms`` a dict mask -> (re, im) of
        Gaussian integers over L^k; each requested power is memoized."""
        if k < 0:
            raise ValueError("wedge power wants a nonnegative exponent")
        return self._power_from_minors(k)

    def _power_from_minors(self, k: int):
        """The minors of L*H are built level by level by Laplace expansion
        along the first row of S, keyed by row and column bitmasks; only the
        nonzero minors of one level are kept.  Over L^k they give the exact
        coefficients of omega^k, keyed by the mask ``S | T << n`` of
        a_S ^ ~a_T."""
        n = self.n
        if k == 0:
            return {0: (1, 0)}, 1
        if k > n:
            return {}, 1
        rows = [[(1 << t, gr, gi) for t, gr, gi in row] for row in self._rows]
        # level m maps a row mask to {column mask: minor}.  A row set that
        # grows by k - m more rows, each one above its first row, starts at
        # row k - m or later.
        level = {1 << s: {b: (gr, gi) for b, gr, gi in rows[s]} for s in range(k - 1, n)}
        for m in range(1, k):
            grown = {}
            for smask, minors in level.items():
                first = (smask & -smask).bit_length() - 1
                for s in range(k - m - 1, first):
                    acc = grown.setdefault(smask | 1 << s, {})
                    for tmask, (vr, vi) in minors.items():
                        for b, gr, gi in rows[s]:
                            if tmask & b:
                                continue
                            xr = gr * vr - gi * vi
                            xi = gr * vi + gi * vr
                            if (tmask & (b - 1)).bit_count() & 1:
                                xr, xi = -xr, -xi
                            key = tmask | b
                            old = acc.get(key)
                            if old is not None:
                                xr += old[0]
                                xi += old[1]
                                if not (xr or xi):
                                    del acc[key]
                                    continue
                            acc[key] = (xr, xi)
            level = {smask: acc for smask, acc in grown.items() if acc}
        # i^k (-1)^(k(k-1)/2) = i^(k^2): 1 for even k, i for odd k
        factor = factorial(k)
        terms = {}
        for smask, minors in level.items():
            for tmask, (vr, vi) in minors.items():
                if k & 1:
                    vr, vi = -vi, vr
                terms[smask | tmask << n] = (factor * vr, factor * vi)
        return terms, self._scale**k

    def leading_minors(self):
        """Leading principal minor determinants (exact, real rationals).

        A forward fraction-free pass over each leading k x k block of L*H
        ends on its determinant up to the row-swap sign; dividing by L^k
        gives the minor of H itself."""
        minors = []
        for k in range(1, self.n + 1):
            block = [[e for e in row if e[0] < k] for row in self._rows[:k]]
            pivots, _, last, sign = _echelon(block, k, False)
            if len(pivots) < k:
                minors.append(Fraction(0))
                continue
            if last[1]:
                raise ArithmeticError("Hermitian minor with nonzero imaginary part")
            minors.append(Fraction(sign * last[0], self._scale**k))
        return minors

    def is_positive(self) -> bool:
        return all(m > 0 for m in self.leading_minors())

    def __eq__(self, other):
        return isinstance(other, MetricForm) and self.H == other.H

    __hash__ = None

    def __repr__(self):
        return "MetricForm(n=%d)" % self.n


def build_metric(n: int, H) -> MetricForm:
    """Validate sizes and Hermitian symmetry; see :class:`MetricForm`."""
    m = MetricForm(H)
    if m.n != n:
        raise ValueError("H is %dx%d but the spec has dimension %d" % (m.n, m.n, n))
    return m


def diagonal_metric(n: int, diag=None) -> MetricForm:
    """Diagonal metric (identity by default); entries must be real."""
    if diag is None:
        diag = [1] * n
    if len(diag) != n:
        raise ValueError("need %d diagonal entries" % n)
    entries = []
    for t in diag:
        t = _as_scalar(t)
        if t.im:
            raise ValueError("diagonal metric entries must be real")
        entries.append(t)
    return MetricForm(
        [
            [entries[j] if j == k else GaussianRational(0) for k in range(n)]
            for j in range(n)
        ]
    )


# witness: the obstruction form, zero iff the condition holds
CheckResult = namedtuple("CheckResult", "condition holds witness")

# name -> (exponents k of omega^k as functions of n, term tables applied to
# each power: (None,) for d, (0, 1) for delbar then del)
CONDITIONS = {
    "kahler": ((lambda n: 1,), (None,)),
    "gauduchon": ((lambda n: n - 1,), (0, 1)),
    "skt": ((lambda n: 1,), (0, 1)),
    "astheno": ((lambda n: n - 2,), (0, 1)),
    "ft_pair": ((lambda n: 1, lambda n: 2), (0, 1)),
}


def check_condition(spec: AlgebraSpec, m: MetricForm, cond: str) -> CheckResult:
    """Decide a closedness condition for omega on the spec (NotAComplex
    unless d.d = 0); the witness is the first power that does not vanish,
    and the zero form when every power does (an exponent below 1 does)."""
    if m.n != spec.n:
        raise ValueError("metric has dimension %d but the spec has %d" % (m.n, spec.n))
    name = cond.strip()
    if name == "ftpair":
        name = "ft_pair"
    row = CONDITIONS.get(name)
    if name.startswith("pluriclosed"):
        head, _, text = name.partition(":")
        try:
            k = parse_dimension(text)
        except ValueError:
            k = 0
        if head != "pluriclosed" or not 0 < k <= spec.n:
            raise ValueError("pluriclosed:K needs K in 1..%d, in digits 0-9" % spec.n)
        name, row = "pluriclosed:%d" % k, ((lambda n: n - k,), (0, 1))
    elif row is None:
        raise ValueError(
            "unknown condition %r (choose from %s or pluriclosed:K)"
            % (cond, ", ".join(CONDITIONS))
        )
    powers, dps = row
    require_complex(spec)
    witness = Form()
    for e in (power(spec.n) for power in powers):
        if e > 0:
            witness = _apply(spec, *m._power(e), *dps)
            if witness:
                break
    return CheckResult(name, not witness, witness)


def scan_diagonal_metrics(spec: AlgebraSpec, values, cond: str):
    """Check ``cond`` over the grid of diagonal metrics with entries drawn
    from ``values`` (a positive-rational list); yields (diag, CheckResult)."""
    for diag in product(values, repeat=spec.n):
        yield diag, check_condition(spec, diagonal_metric(spec.n, list(diag)), cond)


# ---------------------------------------------------------------------------
# closed-form family left-hand sides


def _coefficient_grid(n: int, data, what: str):
    """Normalize A/B input to an (n-1) x (n-1) grid of scalars; accepts a
    full matrix, a {(i,j): value} mapping, or 0 for all-zero."""
    m = n - 1
    grid = [[GaussianRational(0)] * m for _ in range(m)]
    if data == 0 or data is None:
        return grid
    if isinstance(data, dict):
        for (i, j), v in data.items():
            if not (1 <= i <= m and 1 <= j <= m):
                raise ValueError("%s index (%d,%d) out of range" % (what, i, j))
            grid[i - 1][j - 1] = _as_scalar(v)
        return grid
    rows = list(data)
    if len(rows) != m or any(len(list(r)) != m for r in rows):
        raise ValueError("%s must be a %dx%d matrix" % (what, m, m))
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            grid[i][j] = _as_scalar(v)
    return grid


def exnilp_lhs(n: int, A, B) -> Fraction:
    """Left-hand side whose vanishing is the astheno condition (identity
    metric) for the family ``d a_n = sum A_ij a_i^a_j + sum B_ij a_i^~a_j``
    over closed generators a_1 .. a_{n-1}:

        sum_{i<j<n} |A_ij|^2 + sum_{i!=j} |B_ij|^2
            - 2 Re( sum_{i<j<n} B_ii conj(B_jj) )

    equivalently ``sum |A|^2 + sum_{i,j} |B_ij|^2 - |tr B|^2``.  ``A`` must
    be strictly upper triangular.
    """
    if n < 3:
        raise ValueError("the family needs n >= 3")
    a = _coefficient_grid(n, A, "A")
    b = _coefficient_grid(n, B, "B")
    m = n - 1
    for i in range(m):
        for j in range(m):
            if j <= i and a[i][j]:
                raise ValueError("A must be strictly upper triangular")
    total = Fraction(0)
    for i in range(m):
        for j in range(i + 1, m):
            total += a[i][j].norm()
    for i in range(m):
        for j in range(m):
            if i != j:
                total += b[i][j].norm()
    for i in range(m):
        for j in range(i + 1, m):
            total -= 2 * (b[i][i] * b[j][j].conjugate()).re
    return total


def fps_lhs(A, B, C, D, E) -> Fraction:
    """|A|^2 + |D|^2 + |E|^2 + 2 Re(conj(B) C): vanishes exactly when the
    six-dimensional family ``d a3 = A ~a1^a2 + B ~a2^a2 + C a1^~a1 +
    D a1^~a2 + E a1^a2`` is SKT for the diagonal identity metric."""
    A, B, C, D, E = (_as_scalar(x) for x in (A, B, C, D, E))
    return A.norm() + D.norm() + E.norm() + 2 * (B.conjugate() * C).re
