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

A table uses a symmetry only after an exact check on the spec
(:data:`MIRRORS`).  Conjugation, a_S ^ ~a_T -> (-1)^(|S||T|) a_T ^ ~a_S,
swaps del and delbar once it commutes with d on the generators, so the
Bott-Chern and Aeppli tables are symmetric in (p, q).  Serre duality
h^{p,q} = h^{n-p,n-q} holds for Dolbeault (conjugate Dolbeault) once delbar
(del) vanishes into (n, n), and b_k = b_{2n-k} once d vanishes on degree
2n - 1, that is, g is unimodular, as every nilpotent g is (Angella, LNM
2095).  :func:`hodge_table` then computes one half and copies the other,
and :func:`derham_betti` builds d only below degree n.  Single groups are
always computed in full.

Each hodge table carries a validity flag: ``nilpotent_J`` when the
nilpotency filtration closes at the full degree-one space (for those specs
the invariant computation computes the corresponding compact-quotient
numbers), ``ce_only`` otherwise (the numbers are still well-defined
invariants of the complex, but carry no manifold-level claim).  The
filtration is the lower central series of g, so the flag says that the
Lie algebra is nilpotent, not that J is (Cordero-Fernandez-Gray-Ugarte).
"""

from __future__ import annotations

from math import comb

from .algebra import (
    AlgebraSpec,
    _d_terms,
    _term_tables,
    differential_matrix,
    jacobi_failures,
    validate,
)
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

# theory -> (JSON key and short CLI name, kernel operators, image operators),
# an operator (op, dp, dq) being operator_matrix(spec, op, p + dp, q + dq)
THEORY_TABLE = {
    "dolbeault": ("dolbeault", (("delbar", 0, 0),), (("delbar", 0, -1),)),
    "conj_dolbeault": ("conj_dolbeault", (("del", 0, 0),), (("del", -1, 0),)),
    "bott_chern": ("bc", (("del", 0, 0), ("delbar", 0, 0)), (("deldelbar", -1, -1),)),
    "aeppli": ("aeppli", (("deldelbar", 0, 0),), (("del", -1, 0), ("delbar", 0, -1))),
}
THEORIES = tuple(THEORY_TABLE)


def _annihilates(spec: AlgebraSpec, dp, masks) -> bool:
    """Whether d (dp None), del (dp 1) or delbar (dp 0) is zero on every
    monomial of ``masks``, that is, its matrix out of them has no nonzeros."""
    table = _term_tables(spec)[1][dp]
    return not any(_d_terms(table, {m: (1, 0)}) for m in masks)


def _conjugate_mask(n: int, mask: int):
    """``(mask', sign)``: conj(a_S ^ ~a_T) = sign a_T ^ ~a_S, sign = (-1)^(|S||T|)."""
    s, t = mask & ((1 << n) - 1), mask >> n
    return t | s << n, -1 if s.bit_count() * t.bit_count() & 1 else 1


def _commutes_with_conjugation(spec: AlgebraSpec, n: int) -> bool:
    """Whether the term table of d at each generator's conjugate is the
    conjugate of its term table: then conj . d = d . conj on generators and,
    d being an anti-derivation, on all forms."""
    images = {
        b: {g: (re, im) for g, _, re, im in placed} for b, placed in _term_tables(spec)[1][None]
    }
    for b, image in images.items():
        mirrored = {}
        for g, (re, im) in image.items():
            w, sign = _conjugate_mask(n, g)
            mirrored[w] = (sign * re, -sign * im)
        if images.get(_conjugate_mask(n, b)[0]) != mirrored:
            return False
    return True


def _unimodular(spec: AlgebraSpec) -> bool:
    """Whether d is zero on degree 2n - 1, as it is for every nilpotent g:
    then d on degree k is adjoint to d on degree 2n - 1 - k under the wedge
    pairing into degree 2n, and the two have one rank."""
    return _annihilates(spec, None, degree_masks(spec.n, 2 * spec.n - 1))


def _serre(n, p, q):
    return n - p, n - q


def _swap(n, p, q):
    return q, p


# theory -> (the mirror of (p, q) in dimension n, the exact check on a spec
# that h^{p,q} equals h at the mirror for every (p, q)); under the wedge
# pairing into (n, n), delbar (del) is adjoint to itself across
# complementary bidegrees once it is zero out of (n, n-1) ((n-1, n)).
MIRRORS = {
    "dolbeault": (_serre, lambda spec, n: _annihilates(spec, 0, component_masks(n, n, n - 1))),
    "conj_dolbeault": (_serre, lambda spec, n: _annihilates(spec, 1, component_masks(n, n - 1, n))),
    "bott_chern": (_swap, _commutes_with_conjugation),
    "aeppli": (_swap, _commutes_with_conjugation),
}


class HodgeTable:
    """(n+1) x (n+1) grid of hodge numbers; entries[p][q] is h^{p,q}."""

    __slots__ = ("theory", "n", "entries", "validity")

    def __init__(self, theory: str, n: int, entries: list, validity: str):
        self.theory = theory
        self.n = n
        self.entries = entries
        self.validity = validity  # "nilpotent_J" | "ce_only"


def operator_matrix(spec: AlgebraSpec, op: str, p: int, q: int) -> IndexedMatrix:
    """Matrix of del / delbar / deldelbar out of the (p,q) component."""
    key = (op, p, q)
    cache = spec._caches.setdefault("matrices", {})
    cached = cache.get(key)
    if cached is not None:
        return cached
    n = spec.n
    if op == "del":
        out = differential_matrix(spec, component_masks(n, p, q), component_masks(n, p + 1, q), 1)
    elif op == "delbar":
        out = differential_matrix(spec, component_masks(n, p, q), component_masks(n, p, q + 1), 0)
    elif op == "deldelbar":
        out = operator_matrix(spec, "del", p, q + 1) @ operator_matrix(spec, "delbar", p, q)
    else:
        raise ValueError("unknown operator %r" % op)
    cache[key] = out
    return out


def d_matrix(spec: AlgebraSpec, k: int) -> IndexedMatrix:
    """Matrix of the total differential on degree k."""
    key = ("d", k)
    cache = spec._caches.setdefault("matrices", {})
    cached = cache.get(key)
    if cached is not None:
        return cached
    out = differential_matrix(spec, degree_masks(spec.n, k), degree_masks(spec.n, k + 1))
    cache[key] = out
    return out


def _theory_operators(spec: AlgebraSpec, theory: str, p: int, q: int):
    """``(kernel_of, image)``: h^{p,q} of the theory is the dimension of
    ker(kernel_of) modulo the span of image's columns.

    kernel_of stacks the theory's kernel operators with ``vstack`` (for
    Bott-Chern, del and delbar out of (p,q), whose common kernel is the
    d-closed (p,q)-forms) and image joins its image operators with
    ``hstack``.  The pair is kept in the spec's matrix cache beside the
    operators, so each group is built and ranked once.
    """
    cache = spec._caches.setdefault("matrices", {})
    key = (theory, p, q)
    pair = cache.get(key)
    if pair is None:
        if theory not in THEORY_TABLE:
            raise ValueError("unknown theory %r (choose from %s)" % (theory, THEORIES))
        _, kernel, image = THEORY_TABLE[theory]

        def join(stack, ops):
            return stack(*(operator_matrix(spec, op, p + dp, q + dq) for op, dp, dq in ops))

        pair = cache[key] = (join(vstack, kernel), join(hstack, image))
    return pair


def hodge_number(spec: AlgebraSpec, theory: str, p: int, q: int) -> int:
    if not (0 <= p <= spec.n and 0 <= q <= spec.n):
        return 0
    return subquotient_dim(*_theory_operators(spec, theory, p, q))


def hodge_table(spec: AlgebraSpec, theory: str) -> HodgeTable:
    """Every h^{p,q} of the theory (ValueError unless d.d = 0).  With a
    certified mirror (:data:`MIRRORS`) an entry whose mirror comes earlier
    in row order copies it; every other entry is :func:`hodge_number`."""
    report = validate(spec)
    if not report.jacobi_ok:
        raise ValueError("spec fails the Jacobi check; no cohomology defined")
    n = spec.n
    mirror, certificate = MIRRORS.get(theory, (None, None))
    certified = mirror is not None and certificate(spec, n)
    entries = []
    for p in range(n + 1):
        entries.append([])
        for q in range(n + 1):
            mp, mq = mirror(n, p, q) if certified else (p, q)
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
    """Betti numbers b_0 .. b_{2n} of the total complex (ValueError unless d.d = 0).

    On a unimodular spec rank d_k = rank d_{2n-1-k}, so b_{2n-k} = b_k and
    b_n = C(2n, n) - 2 rank d_{n-1}: only d_{-1} .. d_{n-1} are built."""
    if jacobi_failures(spec):
        raise ValueError("spec fails the Jacobi check; no cohomology defined")
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
    ``cols``, each divided by its first nonzero entry l as x conj(l) / |l|^2."""
    out = []
    for vec in vectors:
        lr, li = vec[min(vec)]
        terms = {cols[j]: (re * lr + im * li, im * lr - re * li) for j, (re, im) in vec.items()}
        out.append(_mask_form(spec.n, terms, lr * lr + li * li))
    return out


def class_representatives(spec: AlgebraSpec, theory: str, p: int, q: int):
    """Forms whose classes are a basis of h^{p,q} in the given theory.

    Representatives are kernel-basis vectors (so they satisfy the defining
    closure conditions exactly) chosen greedily past the span of the exact
    part; the choice is deterministic in the canonical basis order.
    """
    if not (0 <= p <= spec.n and 0 <= q <= spec.n):
        return []
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
    if image.ncols == 0:
        return h_bc
    closed, exact = _theory_operators(spec, "bott_chern", p, q)
    intersection_dim = rank(image) - rank(closed @ image)
    kernel_dim = intersection_dim - rank(exact)
    if kernel_dim < 0:
        raise ArithmeticError("natural map kernel has negative dimension")
    return h_bc - kernel_dim
