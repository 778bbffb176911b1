"""Cohomology of the bigraded complex: Dolbeault, conjugate Dolbeault,
Bott-Chern, Aeppli, and total-degree de Rham dimensions.

Everything is computed at the level of invariant forms (the exterior
algebra of the spec).  Each group is one kernel modulo one image, and
each dimension is one call of :func:`nilcoh.linalg.subquotient_dim` on
that pair.  :data:`THEORY_TABLE` describes each theory by the operators
stacked into its kernel and the operators joined into its image:

* dolbeault        ker(delbar on (p,q))          / delbar (p,q-1)
* conj_dolbeault   ker(del on (p,q))             / del (p-1,q)
* bott_chern       ker(del) & ker(delbar) on (p,q) / del.delbar (p-1,q-1)
* aeppli           ker(del.delbar on (p,q))      / (del (p-1,q) + delbar (p,q-1))
* de Rham          ker(d on degree k)            / d (degree k-1)

The del and delbar matrices out of each (p,q), and the d matrix on each
degree, are built by :func:`nilcoh.algebra.differential_matrix` between the
cached monomial bitmask bases of :func:`nilcoh.forms.component_masks` and
:func:`nilcoh.forms.degree_masks`, which label their rows and columns;
del.delbar is the product of the two cached factors.  Each operator matrix,
and each theory's (kernel, image) pair, is built once per spec and keeps
its rank once computed.  Class representatives read their masks off the
column labels; a BasisForm is built only when they become Forms.

Each theory's row of :data:`THEORY_TABLE` names its mirror.  Conjugation,
a_S ^ ~a_T -> (-1)^(|S||T|) a_T ^ ~a_S, commutes with d by construction
(``d ~a_j = conj(d a_j)``) and swaps del and delbar, so Bott-Chern and
Aeppli tables are always symmetric in (p, q).  Serre duality
h^{p,q} = h^{n-p,n-q} for the Dolbeault theories and b_k = b_{2n-k} hold
once d vanishes on degree 2n - 1 (:func:`_unimodular`), as it does for
every nilpotent g (Angella, LNM 2095).  :func:`hodge_table` computes one
half of a mirrored table and copies the other, and :func:`derham_betti`
builds d only below degree n.  Single groups are always computed in full.

Each hodge table carries a validity flag: ``nilpotent_J`` when the
nilpotency filtration closes at the full degree-one space (for those specs
the invariant computation computes the corresponding compact-quotient
numbers), ``ce_only`` otherwise (the numbers are still well-defined
invariants of the complex, but carry no manifold-level claim).  The
filtration is the lower central series of g, so the flag says that the
Lie algebra is nilpotent, not that J is (Cordero-Fernandez-Gray-Ugarte).
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from .algebra import AlgebraSpec, _per_spec, differential_matrix, validate
from .forms import _mask_form, component_masks, degree_masks
from .linalg import (
    IndexedMatrix,
    _kernel_vectors,
    greedy_complement,
    hstack,
    rank,
    subquotient_dim,
    vstack,
)
from .scalars import _quotient


def _serre(n, p, q):
    return n - p, n - q


def _swap(n, p, q):
    return q, p


# theory -> (JSON key and short CLI name, kernel operators, image operators,
# mirror of (p, q) in dimension n), an operator (op, dp, dq) being
# operator_matrix(spec, op, p + dp, q + dq)
THEORY_TABLE = {
    "dolbeault": ("dolbeault", (("delbar", 0, 0),), (("delbar", 0, -1),), _serre),
    "conj_dolbeault": ("conj_dolbeault", (("del", 0, 0),), (("del", -1, 0),), _serre),
    "bott_chern": ("bc", (("del", 0, 0), ("delbar", 0, 0)), (("deldelbar", -1, -1),), _swap),
    "aeppli": ("aeppli", (("deldelbar", 0, 0),), (("del", -1, 0), ("delbar", 0, -1)), _swap),
}
THEORIES = tuple(THEORY_TABLE)


def _theory(theory: str):
    """The row of :data:`THEORY_TABLE` for ``theory`` (ValueError if none)."""
    if theory not in THEORY_TABLE:
        raise ValueError("unknown theory %r (choose from %s)" % (theory, THEORIES))
    return THEORY_TABLE[theory]


def _unimodular(spec: AlgebraSpec) -> bool:
    """Whether d is zero on degree 2n - 1, as it is for every nilpotent g:
    then d on degree k is adjoint to d on degree 2n - 1 - k under the wedge
    pairing into degree 2n, and the two have one rank.  There d is delbar
    out of (n, n-1) plus del out of (n-1, n), which conjugation swaps, so
    each vanishes exactly when d does, and Serre duality holds for both."""
    return not any(d_matrix(spec, 2 * spec.n - 1).int_rows())


# entries[p][q] is h^{p,q} on the (n+1) x (n+1) grid; validity: nilpotent_J | ce_only
HodgeTable = namedtuple("HodgeTable", "theory n entries validity")


@_per_spec
def operator_matrix(spec: AlgebraSpec, op: str, p: int, q: int) -> IndexedMatrix:
    """Matrix of del / delbar / deldelbar out of the (p,q) component."""
    n = spec.n
    if op == "del":
        return differential_matrix(spec, component_masks(n, p, q), component_masks(n, p + 1, q), 1)
    if op == "delbar":
        return differential_matrix(spec, component_masks(n, p, q), component_masks(n, p, q + 1), 0)
    if op == "deldelbar":
        return operator_matrix(spec, "del", p, q + 1) @ operator_matrix(spec, "delbar", p, q)
    raise ValueError("unknown operator %r" % op)


@_per_spec
def d_matrix(spec: AlgebraSpec, k: int) -> IndexedMatrix:
    """Matrix of the total differential on degree k."""
    return differential_matrix(spec, degree_masks(spec.n, k), degree_masks(spec.n, k + 1))


@_per_spec
def _theory_operators(spec: AlgebraSpec, theory: str, p: int, q: int):
    """``(kernel_of, image)``: h^{p,q} of the theory is the dimension of
    ker(kernel_of) modulo the span of image's columns.

    kernel_of stacks the theory's kernel operators with ``vstack`` (for
    Bott-Chern, del and delbar out of (p,q), whose common kernel is the
    d-closed (p,q)-forms) and image joins its image operators with
    ``hstack``.  The pair is built once per spec, so each group is ranked
    once.  Out of range, every operator has an empty basis and the group is 0.
    """
    _, kernel, image, _ = _theory(theory)

    def join(stack, ops):
        return stack(*(operator_matrix(spec, op, p + dp, q + dq) for op, dp, dq in ops))

    return join(vstack, kernel), join(hstack, image)


def hodge_number(spec: AlgebraSpec, theory: str, p: int, q: int) -> int:
    return subquotient_dim(*_theory_operators(spec, theory, p, q))


def hodge_table(spec: AlgebraSpec, theory: str) -> HodgeTable:
    """Every h^{p,q} of the theory (NotAComplex unless d.d = 0).  When the
    theory's mirror applies, an entry whose mirror comes earlier in row
    order copies it; every other entry is :func:`hodge_number`.  The
    conjugation mirror of Bott-Chern and Aeppli always applies; the Serre
    mirror of the Dolbeault theories only on a :func:`_unimodular` spec."""
    report = validate(spec)
    n = spec.n
    mirror = _theory(theory)[3]
    mirrored = mirror is _swap or _unimodular(spec)
    entries = []
    for p in range(n + 1):
        entries.append([])
        for q in range(n + 1):
            mp, mq = mirror(n, p, q) if mirrored else (p, q)
            if (mp, mq) < (p, q):
                entries[p].append(entries[mp][mq])
            else:
                entries[p].append(hodge_number(spec, theory, p, q))
    return HodgeTable(
        theory=theory,
        n=spec.n,
        entries=entries,
        validity=report.validity,
    )


def derham_betti(spec: AlgebraSpec) -> list:
    """Betti numbers b_0 .. b_{2n} of the total complex (NotAComplex unless d.d = 0).

    On a unimodular spec rank d_k = rank d_{2n-1-k}, so b_{2n-k} = b_k and
    b_n = C(2n, n) - 2 rank d_{n-1}: only d_{-1} .. d_{n-1} are built."""
    n = spec.n
    unimodular = _unimodular(spec)
    betti = [
        subquotient_dim(d_matrix(spec, k), d_matrix(spec, k - 1))
        for k in range(n if unimodular else 2 * n + 1)
    ]
    if unimodular:
        betti += [comb(2 * n, n) - 2 * rank(d_matrix(spec, n - 1))] + betti[::-1]
    return betti


def _vector_forms(spec: AlgebraSpec, cols, vectors):
    """The Forms of Gaussian-integer vectors over the monomial masks
    ``cols``, each divided by its first nonzero entry."""
    out = []
    for vec in vectors:
        terms, norm = _quotient(vec, vec[min(vec)])
        out.append(_mask_form(spec.n, {cols[j]: (re, im) for j, re, im in terms}, norm))
    return out


def class_representatives(spec: AlgebraSpec, theory: str, p: int, q: int):
    """Forms whose classes are a basis of h^{p,q} in the given theory.

    Representatives are kernel-basis vectors (so they satisfy the defining
    closure conditions exactly) chosen greedily past the span of the exact
    part; the choice is deterministic in the canonical basis order.
    """
    kernel_of, image = _theory_operators(spec, theory, p, q)
    vectors = _kernel_vectors(kernel_of)
    chosen = greedy_complement(image, vectors)
    return _vector_forms(spec, kernel_of.cols, [vectors[i] for i in chosen])


def natural_map_rank(spec: AlgebraSpec, p: int, q: int) -> int:
    """Rank of the change-of-quotient map from Bott-Chern to Aeppli classes
    in bidegree (p,q).

    The kernel consists of d-closed forms that are already a sum of a
    del-image and a delbar-image, modulo del.delbar-images; its dimension
    is computed from ranks of concatenated operators."""
    h_bc = hodge_number(spec, "bott_chern", p, q)
    image = _theory_operators(spec, "aeppli", p, q)[1]
    closed, exact = _theory_operators(spec, "bott_chern", p, q)
    intersection_dim = rank(image) - rank(closed @ image)
    kernel_dim = intersection_dim - rank(exact)
    if kernel_dim < 0:
        raise ArithmeticError("natural map kernel has negative dimension")
    return h_bc - kernel_dim
