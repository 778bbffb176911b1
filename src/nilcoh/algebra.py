"""Structure specifications and the Chevalley-Eilenberg differential.

An :class:`AlgebraSpec` fixes a dimension ``n`` and the differentials of the
holomorphic generators: ``d a_i`` is a 2-form with only (2,0) and (1,1)
components (the integrability constraint, enforced on construction).  The
anti-holomorphic generators differentiate by conjugation,
``d ~a_i = conj(d a_i)``, which makes ``d`` commute with conjugation by
construction.  ``d`` extends to all forms as the unique anti-derivation,
and splits as ``d = del + delbar`` into the components raising the first
and second bidegree.

``d`` of a monomial places each term g of d a_j straight past the rest of
the monomial, with the sign of g ^ rest times (-1)^k for the factor's
position k; one routine applies d, del or delbar to a form.

The Jacobi identity of the dual Lie algebra is exactly ``d . d = 0``, and
on an anti-derivation that only needs checking on generators.

Nilpotency of the underlying algebra together with integrability of the
complex structure is detected through the ascending series of degree-one
subspaces ``S_l = { phi : d phi in Lambda^2(S_{l-1}) }``: the flag
stabilizes at the full 2n-dimensional space exactly in the nilpotent case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .forms import BasisForm, Form, degree_basis, wedge_basis
from .linalg import IndexedMatrix, kernel_basis, span_basis

_ALLOWED_BIDEGREES = {(2, 0), (1, 1)}


class AlgebraSpec:
    """Dimension n plus the generator differentials d a_1 .. d a_n."""

    __slots__ = ("name", "n", "d_generators", "_caches")

    def __init__(self, name: str, n: int, d_generators):
        if n < 1:
            raise ValueError("dimension n must be a positive integer")
        d_generators = tuple(
            f if isinstance(f, Form) else Form(f) for f in d_generators
        )
        if len(d_generators) != n:
            raise ValueError("need exactly n generator differentials")
        for i, f in enumerate(d_generators, start=1):
            for bf, _ in f.terms():
                if bf.bidegree() not in _ALLOWED_BIDEGREES:
                    raise ValueError(
                        "d a%d has a term %s of bidegree %s; only (2,0) and "
                        "(1,1) terms are allowed" % (i, bf, bf.bidegree())
                    )
            if f.max_index() > n:
                raise ValueError(
                    "d a%d references generator a%d beyond dimension %d"
                    % (i, f.max_index(), n)
                )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d_generators", d_generators)
        object.__setattr__(self, "_caches", {})

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraSpec is immutable")

    def is_abelian(self) -> bool:
        return all(f.is_zero() for f in self.d_generators)

    def d_alpha(self, i: int) -> Form:
        return self.d_generators[i - 1]

    def d_alphabar(self, i: int) -> Form:
        key = ("dbar", i)
        cached = self._caches.get(key)
        if cached is None:
            cached = self.d_generators[i - 1].conjugate()
            self._caches[key] = cached
        return cached

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraSpec)
            and self.name == other.name
            and self.n == other.n
            and self.d_generators == other.d_generators
        )

    __hash__ = None

    def __repr__(self):
        return "AlgebraSpec(%r, n=%d)" % (self.name, self.n)


@dataclass
class ValidationReport:
    """Outcome of the Jacobi check plus the nilpotency flag data."""

    jacobi_ok: bool
    failing_generators: list = field(default_factory=list)  # (index, d2 Form)
    nilpotent_J: bool = False
    filtration: list = field(default_factory=list)

    @property
    def validity(self) -> str:
        """The validity label of results on this spec: ``nilpotent_J`` when
        the nilpotency flag holds, ``ce_only`` otherwise."""
        return "nilpotent_J" if self.nilpotent_J else "ce_only"


# ---------------------------------------------------------------------------
# the differential and its bidegree components


def _d_monomial(spec: AlgebraSpec, bf: BasisForm) -> Form:
    cache = spec._caches.setdefault("d_monomial", {})
    out = cache.get(bf)
    if out is not None:
        return out
    pairs = []
    for k, (is_anti, j) in enumerate(bf.factors()):
        dj = spec.d_alphabar(j) if is_anti else spec.d_alpha(j)
        if not dj:
            continue
        koszul = -1 if k & 1 else 1
        if is_anti:
            rest = BasisForm(bf.holo, tuple(t for t in bf.anti if t != j))
        else:
            rest = BasisForm(tuple(s for s in bf.holo if s != j), bf.anti)
        # dj has even degree, so it slides to the front without a sign;
        # the Koszul sign (-1)^k records the factor position.
        for g, c in dj.terms():
            sign, w = wedge_basis(g, rest)
            if sign:
                pairs.append((w, c if sign * koszul > 0 else -c))
    out = cache[bf] = Form(pairs)
    return out


def _differentiate(spec: AlgebraSpec, x: Form, dp=None) -> Form:
    """d of x, or with dp = 1 (dp = 0) only the terms of d of each monomial
    that raise its p (its q): del (delbar) on each homogeneous piece."""
    if x.max_index() > spec.n:
        raise ValueError(
            "form references generator a%d beyond dimension %d"
            % (x.max_index(), spec.n)
        )
    pairs = []
    for bf, c in x.terms():
        p = len(bf.holo)
        for g, e in _d_monomial(spec, bf).terms():
            if dp is None or len(g.holo) - p == dp:
                pairs.append((g, c * e))
    return Form(pairs)


def d(spec: AlgebraSpec, x: Form) -> Form:
    """Total differential (anti-derivation extending the generator data)."""
    return _differentiate(spec, x)


def del_(spec: AlgebraSpec, x: Form) -> Form:
    """The (p+1, q) component of d on each homogeneous piece."""
    return _differentiate(spec, x, 1)


def delbar(spec: AlgebraSpec, x: Form) -> Form:
    """The (p, q+1) component of d on each homogeneous piece."""
    return _differentiate(spec, x, 0)


def deldelbar(spec: AlgebraSpec, x: Form) -> Form:
    return del_(spec, delbar(spec, x))


def _coefficient_matrix(codomain, cols, images) -> IndexedMatrix:
    """The matrix whose column j holds the coefficients of the form
    ``images[j]`` on the ``codomain`` basis; terms outside it are dropped."""
    index = {bf: i for i, bf in enumerate(codomain)}
    nonzeros = [[] for _ in codomain]
    for j, image in enumerate(images):
        for bf, c in image.terms():
            i = index.get(bf)
            if i is not None:
                nonzeros[i].append((j, c))
    return IndexedMatrix.from_nonzeros(codomain, cols, nonzeros)


def differential_matrix(spec: AlgebraSpec, domain, codomain) -> IndexedMatrix:
    """Matrix of d from the span of the ``domain`` monomials to the span of
    the ``codomain`` monomials: the terms of d of each domain monomial that
    lie in the codomain.  A codomain of one bidegree (p+1, q) or (p, q+1)
    gives del or delbar, one of one total degree gives d."""
    return _coefficient_matrix(codomain, domain, (_d_monomial(spec, bf) for bf in domain))


# ---------------------------------------------------------------------------
# validation and the nilpotency flag


def nilpotency_filtration(spec: AlgebraSpec):
    """(nilpotent_J, dims): the ascending flag S_1 <= S_2 <= ... of
    degree-one subspaces with d S_l inside Lambda^2(S_{l-1}).

    Dimensions are appended while strictly increasing; the loop stops when
    the flag reaches the full 2n-dimensional space (nilpotent, the final
    dimension 2n is the last entry) or repeats (not nilpotent, the repeated
    dimension is recorded)."""
    n = spec.n
    v_basis = degree_basis(n, 1)
    two_basis = degree_basis(n, 2)
    d_images = [_d_monomial(spec, bf) for bf in v_basis]

    prev_vectors = []
    dims = []
    while True:
        prev_forms = [
            Form({bf: c for bf, c in zip(v_basis, vec) if c})
            for vec in prev_vectors
        ]
        # d columns first, then the wedges spanning Lambda^2(S_{l-1})
        images = d_images + [w for a, b in combinations(prev_forms, 2) if (w := a ^ b)]
        m = _coefficient_matrix(two_basis, range(len(images)), images)
        projected = [vec[: 2 * n] for vec in kernel_basis(m)]
        vectors = span_basis(projected)
        dim = len(vectors)
        dims.append(dim)
        if dim == 2 * n:
            return True, dims
        if dim == len(prev_vectors):
            return False, dims
        prev_vectors = vectors


def jacobi_failures(spec: AlgebraSpec) -> list:
    """The Jacobi check: ``(i, d d a_i)`` for each generator a_i whose
    d d a_i is nonzero (empty when d.d = 0)."""
    return [
        (i, dd) for i in range(1, spec.n + 1) if (dd := d(spec, spec.d_alpha(i)))
    ]


def validate(spec: AlgebraSpec) -> ValidationReport:
    """Jacobi check (d.d = 0 on generators) plus the nilpotency flag."""
    cached = spec._caches.get("validation")
    if cached is not None:
        return cached
    failing = jacobi_failures(spec)
    if failing:
        report = ValidationReport(jacobi_ok=False, failing_generators=failing)
    else:
        nilpotent, dims = nilpotency_filtration(spec)
        report = ValidationReport(
            jacobi_ok=True, nilpotent_J=nilpotent, filtration=dims
        )
    spec._caches["validation"] = report
    return report


def direct_sum(a: AlgebraSpec, b: AlgebraSpec) -> AlgebraSpec:
    """Product structure: b's generators and differentials shift past a's."""
    d_gens = list(a.d_generators) + [f.shift(a.n) for f in b.d_generators]
    return AlgebraSpec("%s_x_%s" % (a.name, b.name), a.n + b.n, d_gens)
