"""Cohomology of the bigraded complex: Dolbeault, conjugate Dolbeault,
Bott-Chern, Aeppli, and total-degree de Rham dimensions.

Everything is computed at the level of invariant forms (the exterior
algebra of the spec), as exact subquotient dimensions:

* dolbeault        ker(delbar on (p,q))          / delbar (p,q-1)
* conj_dolbeault   ker(del on (p,q))             / del (p-1,q)
* bott_chern       ker(del) & ker(delbar) on (p,q) / del.delbar (p-1,q-1)
* aeppli           ker(del.delbar on (p,q))      / (del (p-1,q) + delbar (p,q-1))
* de Rham          ker(d on degree k)            / d (degree k-1)

Each hodge table carries a validity flag: ``nilpotent_J`` when the
nilpotency filtration closes at the full degree-one space (for those specs
the invariant computation computes the corresponding compact-quotient
numbers), ``ce_only`` otherwise (the numbers are still well-defined
invariants of the complex, but carry no manifold-level claim).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .algebra import AlgebraSpec, d, del_, delbar, deldelbar, validate
from .forms import BasisForm, Form
from .linalg import (
    IndexedMatrix,
    greedy_complement,
    hstack,
    kernel_basis,
    rank,
    subquotient_dim,
    vstack,
)
from .scalars import GaussianRational

THEORIES = ("dolbeault", "conj_dolbeault", "bott_chern", "aeppli")


@dataclass
class HodgeTable:
    """(n+1) x (n+1) grid of hodge numbers; entries[p][q] is h^{p,q}."""

    theory: str
    n: int
    entries: list
    validity: str  # "nilpotent_J" | "ce_only"


def component_basis(n: int, p: int, q: int):
    """Canonical ordered basis of the (p,q) component (lex on (S,T))."""
    if p < 0 or q < 0 or p > n or q > n:
        return ()
    return tuple(
        BasisForm(holo, anti)
        for holo in combinations(range(1, n + 1), p)
        for anti in combinations(range(1, n + 1), q)
    )


def degree_basis(n: int, k: int):
    """Canonical ordered basis of the total degree-k space."""
    out = []
    for p in range(0, k + 1):
        out.extend(component_basis(n, p, k - p))
    return tuple(out)


def _matrix_from_images(domain, codomain, images):
    index = {bf: i for i, bf in enumerate(codomain)}
    entries = [[GaussianRational(0)] * len(domain) for _ in codomain]
    for j, img in enumerate(images):
        for bf, c in img.terms():
            entries[index[bf]][j] = c
    return IndexedMatrix(codomain, domain, entries)


def operator_matrix(spec: AlgebraSpec, op: str, p: int, q: int) -> IndexedMatrix:
    """Matrix of del / delbar / deldelbar out of the (p,q) component."""
    key = (op, p, q)
    cache = spec._caches.setdefault("matrices", {})
    cached = cache.get(key)
    if cached is not None:
        return cached
    domain = component_basis(spec.n, p, q)
    if op == "del":
        codomain = component_basis(spec.n, p + 1, q)
        fn = del_
    elif op == "delbar":
        codomain = component_basis(spec.n, p, q + 1)
        fn = delbar
    elif op == "deldelbar":
        codomain = component_basis(spec.n, p + 1, q + 1)
        fn = deldelbar
    else:
        raise ValueError("unknown operator %r" % op)
    images = [fn(spec, Form({bf: 1})) for bf in domain]
    out = _matrix_from_images(domain, codomain, images)
    cache[key] = out
    return out


def d_matrix(spec: AlgebraSpec, k: int) -> IndexedMatrix:
    """Matrix of the total differential on degree k."""
    key = ("d", k)
    cache = spec._caches.setdefault("matrices", {})
    cached = cache.get(key)
    if cached is not None:
        return cached
    domain = degree_basis(spec.n, k) if 0 <= k <= 2 * spec.n else ()
    codomain = degree_basis(spec.n, k + 1) if 0 <= k + 1 <= 2 * spec.n else ()
    images = [d(spec, Form({bf: 1})) for bf in domain]
    out = _matrix_from_images(domain, codomain, images)
    cache[key] = out
    return out


def _kernel_and_images(spec, theory, p, q):
    """The (kernel operator, image operators) pair defining h^{p,q}."""
    if theory == "dolbeault":
        return operator_matrix(spec, "delbar", p, q), [
            operator_matrix(spec, "delbar", p, q - 1)
        ]
    if theory == "conj_dolbeault":
        return operator_matrix(spec, "del", p, q), [
            operator_matrix(spec, "del", p - 1, q)
        ]
    if theory == "bott_chern":
        stacked = vstack(
            operator_matrix(spec, "del", p, q),
            operator_matrix(spec, "delbar", p, q),
        )
        return stacked, [operator_matrix(spec, "deldelbar", p - 1, q - 1)]
    if theory == "aeppli":
        return operator_matrix(spec, "deldelbar", p, q), [
            operator_matrix(spec, "del", p - 1, q),
            operator_matrix(spec, "delbar", p, q - 1),
        ]
    raise ValueError("unknown theory %r (choose from %s)" % (theory, THEORIES))


def hodge_number(spec: AlgebraSpec, theory: str, p: int, q: int) -> int:
    if not (0 <= p <= spec.n and 0 <= q <= spec.n):
        return 0
    kernel_of, images = _kernel_and_images(spec, theory, p, q)
    return subquotient_dim(kernel_of, images)


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
        validity="nilpotent_J" if report.nilpotent_J else "ce_only",
    )


def derham_betti(spec: AlgebraSpec) -> list:
    """Betti numbers b_0 .. b_{2n} of the total complex."""
    return [
        subquotient_dim(d_matrix(spec, k), [d_matrix(spec, k - 1)])
        for k in range(2 * spec.n + 1)
    ]


def class_representatives(spec: AlgebraSpec, theory: str, p: int, q: int):
    """Forms whose classes are a basis of h^{p,q} in the given theory.

    Representatives are kernel-basis vectors (so they satisfy the defining
    closure conditions exactly) chosen greedily past the span of the exact
    part; the choice is deterministic in the canonical basis order.
    """
    if not (0 <= p <= spec.n and 0 <= q <= spec.n):
        return []
    kernel_of, images = _kernel_and_images(spec, theory, p, q)
    kernel_vectors = kernel_basis(kernel_of)
    image_columns = []
    for img in images:
        for j in range(img.ncols):
            col = img.column(j)
            if any(col):
                image_columns.append(col)
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
    closed = vstack(
        operator_matrix(spec, "del", p, q),
        operator_matrix(spec, "delbar", p, q),
    )
    image = hstack(
        operator_matrix(spec, "del", p - 1, q),
        operator_matrix(spec, "delbar", p, q - 1),
    )
    if image.ncols == 0:
        return h_bc
    intersection_dim = rank(image) - rank(closed @ image)
    kernel_dim = intersection_dim - rank(
        operator_matrix(spec, "deldelbar", p - 1, q - 1)
    )
    if kernel_dim < 0:
        raise ArithmeticError("natural map kernel has negative dimension")
    return h_bc - kernel_dim
