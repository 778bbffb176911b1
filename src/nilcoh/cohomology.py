"""Cohomology of the bigraded complex: Dolbeault, conjugate Dolbeault,
Bott-Chern, Aeppli, and total-degree de Rham dimensions.

Everything is computed at the level of invariant forms (the exterior
algebra of the spec), as exact subquotient dimensions:

* dolbeault        ker(delbar on (p,q))          / delbar (p,q-1)
* conj_dolbeault   ker(del on (p,q))             / del (p-1,q)
* bott_chern       ker(del) & ker(delbar) on (p,q) / del.delbar (p-1,q-1)
* aeppli           ker(del.delbar on (p,q))      / (del (p-1,q) + delbar (p,q-1))
* de Rham          ker(d on degree k)            / d (degree k-1)

The del and delbar matrices out of each (p,q), and the d matrix on each
degree, are built by :func:`nilcoh.algebra.differential_matrix`; del.delbar
is the product of the two cached factors.  Each operator matrix is built
once per spec, and no matrix with rows and columns is ranked twice.

Each hodge table carries a validity flag: ``nilpotent_J`` when the
nilpotency filtration closes at the full degree-one space (for those specs
the invariant computation computes the corresponding compact-quotient
numbers), ``ce_only`` otherwise (the numbers are still well-defined
invariants of the complex, but carry no manifold-level claim).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraSpec, differential_matrix, validate
from .forms import Form, component_basis, degree_basis
from .linalg import (
    IndexedMatrix,
    check_containment,
    greedy_complement,
    hstack,
    kernel_basis,
    rank,
    vstack,
)
from .scalars import GaussianRational

THEORIES = ("dolbeault", "conj_dolbeault", "bott_chern", "aeppli")

_ZERO = GaussianRational(0)


@dataclass
class HodgeTable:
    """(n+1) x (n+1) grid of hodge numbers; entries[p][q] is h^{p,q}."""

    theory: str
    n: int
    entries: list
    validity: str  # "nilpotent_J" | "ce_only"


def operator_matrix(spec: AlgebraSpec, op: str, p: int, q: int) -> IndexedMatrix:
    """Matrix of del / delbar / deldelbar out of the (p,q) component."""
    key = (op, p, q)
    cache = spec._caches.setdefault("matrices", {})
    cached = cache.get(key)
    if cached is not None:
        return cached
    n = spec.n
    if op == "del":
        out = differential_matrix(spec, component_basis(n, p, q), component_basis(n, p + 1, q))
    elif op == "delbar":
        out = differential_matrix(spec, component_basis(n, p, q), component_basis(n, p, q + 1))
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
    out = differential_matrix(spec, degree_basis(spec.n, k), degree_basis(spec.n, k + 1))
    cache[key] = out
    return out


def _operator(spec: AlgebraSpec, key) -> IndexedMatrix:
    """The matrix of the operator named by ``key``.

    Keys are ("d", k), (op, p, q) for op in del / delbar / deldelbar, and
    two joint operators: ("del|delbar", p, q) stacks del and delbar out of
    (p,q), so its kernel is the d-closed (p,q)-forms, and
    ("del+delbar", p, q) puts del out of (p-1,q) beside delbar out of
    (p,q-1), so its image is the sum of theirs in (p,q).  The joint ones
    are assembled from the cached operators on each call: keeping them
    would hold a second copy of every nonzero.
    """
    op = key[0]
    if op == "d":
        return d_matrix(spec, key[1])
    p, q = key[1:]
    if op == "del|delbar":
        return vstack(
            operator_matrix(spec, "del", p, q), operator_matrix(spec, "delbar", p, q)
        )
    if op == "del+delbar":
        return hstack(
            operator_matrix(spec, "del", p - 1, q),
            operator_matrix(spec, "delbar", p, q - 1),
        )
    return operator_matrix(spec, op, p, q)


def _rank(spec: AlgebraSpec, key, matrix: IndexedMatrix) -> int:
    """rank(matrix) of the operator named by ``key``, computed once per spec."""
    ranks = spec._caches.setdefault("ranks", {})
    if key not in ranks:
        ranks[key] = rank(matrix)
    return ranks[key]


def _subquotient(spec: AlgebraSpec, kernel_key, image_key) -> int:
    """dim ker(kernel) - dim im(image) for two operator keys, with the
    containment im(image) in ker(kernel) checked."""
    kernel_of, image = _operator(spec, kernel_key), _operator(spec, image_key)
    image_rank = 0
    if image.ncols:
        check_containment(kernel_of, image)
        image_rank = _rank(spec, image_key, image)
    out = kernel_of.ncols - _rank(spec, kernel_key, kernel_of) - image_rank
    if out < 0:
        raise ArithmeticError("containment held but dimension went negative")
    return out


def _theory_keys(n, theory, p, q):
    """The (kernel, image) operator keys whose subquotient is h^{p,q}.

    A joint operator with an empty half is named by its other half, the
    same matrix, so that its rank is computed once: del out of (n,q) and
    delbar out of (p,n) have no rows, del out of (-1,q) and delbar out of
    (p,-1) have no columns.
    """
    if theory == "dolbeault":
        return ("delbar", p, q), ("delbar", p, q - 1)
    if theory == "conj_dolbeault":
        return ("del", p, q), ("del", p - 1, q)
    if theory == "bott_chern":
        closed = "delbar" if p == n else "del" if q == n else "del|delbar"
        return (closed, p, q), ("deldelbar", p - 1, q - 1)
    if theory == "aeppli":
        if p == 0:
            exact = ("delbar", p, q - 1)
        elif q == 0:
            exact = ("del", p - 1, q)
        else:
            exact = ("del+delbar", p, q)
        return ("deldelbar", p, q), exact
    raise ValueError("unknown theory %r (choose from %s)" % (theory, THEORIES))


def hodge_number(spec: AlgebraSpec, theory: str, p: int, q: int) -> int:
    if not (0 <= p <= spec.n and 0 <= q <= spec.n):
        return 0
    return _subquotient(spec, *_theory_keys(spec.n, theory, p, q))


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
    """Betti numbers b_0 .. b_{2n} of the total complex."""
    return [_subquotient(spec, ("d", k), ("d", k - 1)) for k in range(2 * spec.n + 1)]


def class_representatives(spec: AlgebraSpec, theory: str, p: int, q: int):
    """Forms whose classes are a basis of h^{p,q} in the given theory.

    Representatives are kernel-basis vectors (so they satisfy the defining
    closure conditions exactly) chosen greedily past the span of the exact
    part; the choice is deterministic in the canonical basis order.
    """
    if not (0 <= p <= spec.n and 0 <= q <= spec.n):
        return []
    kernel_key, image_key = _theory_keys(spec.n, theory, p, q)
    kernel_of, image = _operator(spec, kernel_key), _operator(spec, image_key)
    kernel_vectors = kernel_basis(kernel_of)
    columns = {}
    for i, row in enumerate(image.nonzeros()):
        for j, z in row:
            columns.setdefault(j, {})[i] = z
    image_columns = [
        tuple(columns[j].get(i, _ZERO) for i in range(image.nrows))
        for j in sorted(columns)
    ]
    chosen = greedy_complement(image_columns, kernel_vectors)
    domain = kernel_of.cols
    return [
        Form({bf: c for bf, c in zip(domain, kernel_vectors[i]) if c})
        for i in chosen
    ]


def natural_map_rank(spec: AlgebraSpec, p: int, q: int) -> int:
    """Rank of the change-of-quotient map from Bott-Chern to Aeppli classes
    in bidegree (p,q).

    The kernel consists of d-closed forms that are already a sum of a
    del-image and a delbar-image, modulo del.delbar-images; its dimension
    is computed from ranks of concatenated operators."""
    h_bc = hodge_number(spec, "bott_chern", p, q)
    image_key = _theory_keys(spec.n, "aeppli", p, q)[1]
    image = _operator(spec, image_key)
    if image.ncols == 0:
        return h_bc
    closed_key, exact_key = _theory_keys(spec.n, "bott_chern", p, q)
    closed = _operator(spec, closed_key)
    intersection_dim = _rank(spec, image_key, image) - rank(closed @ image)
    kernel_dim = intersection_dim - _rank(spec, exact_key, _operator(spec, exact_key))
    if kernel_dim < 0:
        raise ArithmeticError("natural map kernel has negative dimension")
    return h_bc - kernel_dim
