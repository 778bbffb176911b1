"""Random structure generators shared by the property-style tests.

``random_two_step`` draws a structure whose generators split into a closed
core and a layer whose differentials live in the exterior square of that
core.  Such structures always satisfy d^2 = 0 and are always nilpotent, so
every draw is usable without rejection; a draw whose random coefficients
all vanish is abelian, which keeps both sides of gap-style properties
populated.  ``random_layered`` draws deeper structures, nilpotent or not,
that must be filtered by the Jacobi check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from nilcoh.algebra import AlgebraSpec
from nilcoh.catalog import exnilp_spec, fps_spec
from nilcoh.forms import BasisForm, Form, _mask_indices, alpha, alphabar
from nilcoh.scalars import GaussianRational


def basis_forms(n, masks):
    """The BasisForms of monomial masks (a_j is bit j - 1, ~a_j bit
    n + j - 1), in the order of ``masks``."""
    return [BasisForm(_mask_indices(w & ((1 << n) - 1)), _mask_indices(w >> n)) for w in masks]


def rand_gauss(rng, span=2):
    return GaussianRational(
        Fraction(rng.randint(-span, span)), Fraction(rng.randint(-span, span))
    )


def rand_gauss_over(rng, denominators, span=2):
    """A Gaussian rational whose real and imaginary parts have numerators
    in [-span, span] over denominators drawn from ``denominators``."""
    return GaussianRational(
        Fraction(rng.randint(-span, span), rng.choice(denominators)),
        Fraction(rng.randint(-span, span), rng.choice(denominators)),
    )


def random_two_step(rng, n, density=0.4, name="draw", coefficient=rand_gauss):
    core = rng.randint(1, n)
    diffs = [Form() for _ in range(core)]
    for _ in range(core, n):
        f = Form()
        for a, b in itertools.combinations(range(1, core + 1), 2):
            if rng.random() < density:
                f = f + coefficient(rng) * (alpha(a) ^ alpha(b))
        for a in range(1, core + 1):
            for b in range(1, core + 1):
                if rng.random() < density:
                    f = f + coefficient(rng) * (alpha(a) ^ alphabar(b))
        diffs.append(f)
    return AlgebraSpec(name, n, diffs)


def random_layered(rng, n):
    """d a_k draws terms a_i ^ a_j and a_i ^ ~a_j over i, j < k, each with
    probability 0.3, and with probability 0.5 one term a_k ^ ~a_i, a
    back-reference to a_k itself.  Without back-references a structure is
    nilpotent with up to n steps; with them it may not be.  Either kind of
    term can break the Jacobi identity, so callers keep the draws that
    pass the Jacobi check."""
    diffs = []
    for k in range(1, n + 1):
        f = Form()
        for a in range(1, k):
            for b in range(1, k):
                if a < b and rng.random() < 0.3:
                    f = f + rand_gauss(rng) * (alpha(a) ^ alpha(b))
                if rng.random() < 0.3:
                    f = f + rand_gauss(rng) * (alpha(a) ^ alphabar(b))
        if k > 1 and rng.random() < 0.5:
            f = f + rand_gauss(rng) * (alpha(k) ^ alphabar(rng.randint(1, k - 1)))
        diffs.append(f)
    return AlgebraSpec("layer", n, diffs)


def rand_rational(rng):
    """A Gaussian rational over denominators drawn from 1, 2, 3 and 5."""
    return rand_gauss_over(rng, (1, 2, 3, 5))


def rational_specs(rng):
    """Specs at n = 3 and 4 with structure constants over denominators 1,
    2, 3 and 5: one fps draw, one exnilp draw per dimension and two
    two-step draws at n = 4."""
    specs = [fps_spec(*(rand_rational(rng) for _ in range(5)))]
    for n in (3, 4):
        m = n - 1
        A = [[rand_rational(rng) if i < j else 0 for j in range(m)] for i in range(m)]
        B = [[rand_rational(rng) for _ in range(m)] for _ in range(m)]
        specs.append(exnilp_spec(n, A, B))
    specs += [
        random_two_step(rng, 4, density=0.6, name="q%d" % k, coefficient=rand_rational)
        for k in range(2)
    ]
    return specs


def is_abelian(spec: AlgebraSpec) -> bool:
    return all(spec.d_alpha(j).is_zero() for j in range(1, spec.n + 1))
