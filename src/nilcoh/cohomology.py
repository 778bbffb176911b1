"""Cohomology of the bigraded complex: Dolbeault, conjugate Dolbeault,
Bott-Chern, Aeppli, and total-degree de Rham dimensions.

Everything is computed at the level of invariant forms (the exterior
algebra of the spec).  Each dimension is one call of
:func:`nilcoh.linalg.subquotient_dim`: the kernel of some operators
stacked together, modulo the span of some operators placed side by side:

* dolbeault        ker(delbar on (p,q))          / delbar (p,q-1)
* conj_dolbeault   ker(del on (p,q))             / del (p-1,q)
* bott_chern       ker(del) & ker(delbar) on (p,q) / del.delbar (p-1,q-1)
* aeppli           ker(del.delbar on (p,q))      / (del (p-1,q) + delbar (p,q-1))
* de Rham          ker(d on degree k)            / d (degree k-1)

The del and delbar matrices out of each (p,q), and the d matrix on each
degree, are built by :func:`nilcoh.algebra.differential_matrix`; del.delbar
is the product of the two cached factors.  Each operator matrix, and each
Bott-Chern kernel stack, is built once per spec and keeps its rank once
computed.

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
    greedy_complement,
    hstack,
    kernel_basis,
    rank,
    subquotient_dim,
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
        out = differential_matrix(spec, component_basis(n, p, q), component_basis(n, p + 1, q), 1)
    elif op == "delbar":
        out = differential_matrix(spec, component_basis(n, p, q), component_basis(n, p, q + 1), 0)
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


def _theory_operators(spec: AlgebraSpec, theory: str, p: int, q: int):
    """``(kernel_of, images)``: h^{p,q} of the theory is the dimension of
    ker(kernel_of) modulo the joint span of the images' columns.

    The Bott-Chern kernel stacks del and delbar out of (p,q), so its kernel
    is the d-closed (p,q)-forms.  The stack shares the row tuples of its
    halves, so it is kept in the spec's matrix cache beside them and a
    repeated query reuses its stored rank.  Where one half has no rows, the
    stack is the cached other half itself.
    """
    def op(name, p, q):
        return operator_matrix(spec, name, p, q)

    if theory == "dolbeault":
        return op("delbar", p, q), [op("delbar", p, q - 1)]
    if theory == "conj_dolbeault":
        return op("del", p, q), [op("del", p - 1, q)]
    if theory == "bott_chern":
        cache = spec._caches.setdefault("matrices", {})
        key = ("del|delbar", p, q)
        if key not in cache:
            cache[key] = vstack(op("del", p, q), op("delbar", p, q))
        return cache[key], [op("deldelbar", p - 1, q - 1)]
    if theory == "aeppli":
        return op("deldelbar", p, q), [op("del", p - 1, q), op("delbar", p, q - 1)]
    raise ValueError("unknown theory %r (choose from %s)" % (theory, THEORIES))


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
    kernel_of, images = _theory_operators(spec, theory, p, q)
    image = hstack(*images)
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
    image = hstack(*_theory_operators(spec, "aeppli", p, q)[1])
    if image.ncols == 0:
        return h_bc
    closed, exact = _theory_operators(spec, "bott_chern", p, q)
    intersection_dim = rank(image) - rank(closed @ image)
    kernel_dim = intersection_dim - rank(hstack(*exact))
    if kernel_dim < 0:
        raise ArithmeticError("natural map kernel has negative dimension")
    return h_bc - kernel_dim
