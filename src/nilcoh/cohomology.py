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

Each hodge table carries a validity flag: ``nilpotent_J`` when the
nilpotency filtration closes at the full degree-one space (for those specs
the invariant computation computes the corresponding compact-quotient
numbers), ``ce_only`` otherwise (the numbers are still well-defined
invariants of the complex, but carry no manifold-level claim).  The
filtration is the lower central series of g, so the flag says that the
Lie algebra is nilpotent, not that J is (Cordero-Fernandez-Gray-Ugarte).
"""

from __future__ import annotations

from .algebra import AlgebraSpec, differential_matrix, jacobi_failures, validate
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
    report = validate(spec)
    if not report.jacobi_ok:
        raise ValueError("spec fails the Jacobi check; no cohomology defined")
    entries = [
        [hodge_number(spec, theory, p, q) for q in range(spec.n + 1)]
        for p in range(spec.n + 1)
    ]
    return HodgeTable(
        theory=theory,
        n=spec.n,
        entries=entries,
        validity=report.validity,
    )


def derham_betti(spec: AlgebraSpec) -> list:
    """Betti numbers b_0 .. b_{2n} of the total complex (ValueError unless d.d = 0)."""
    if jacobi_failures(spec):
        raise ValueError("spec fails the Jacobi check; no cohomology defined")
    return [
        subquotient_dim(d_matrix(spec, k), d_matrix(spec, k - 1))
        for k in range(2 * spec.n + 1)
    ]


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
