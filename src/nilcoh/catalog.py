"""Worked-example catalog and the self-checking suite.

Keys are either named entries (``catalog_list()``) or parametrized
families::

    torus(n)                        abelian structure, all differentials zero
    iwasawa                         n=3, d a3 = -a1^a2
    kodaira                         n=2, d a2 = a1^~a1
    nakamura_ce                     n=3, d a2 = -a1^a2, d a3 = a1^a3
    fps_skt(A,B,C,D,E)              n=3 SKT family (scalars in file syntax)
    exnilp(n,A=...,B=...)           d a_n family over closed generators
    exnilp_ones(n)                  exnilp with A=0 and B all ones (astheno)
    product(k1,k2)                  direct sum of two catalog entries

A family takes exactly its arguments, counted in one table, ``_FAMILIES``,
that binds each head to its builder.  The dimension n of ``torus``,
``exnilp`` and ``exnilp_ones`` is written in ASCII digits, runs from 1 to
``algebra.MAX_DIM`` and is checked before anything is built.

Every fixture value carries a provenance label:

* ``literature`` — a dimension quoted from published computations;
* ``trivial``    — forced by definitions (binomial counts, zero maps);
* ``derived``    — produced by this package's exact computation and
  cross-checked against an independent brute-force oracle in the tests.

A fixture is a row ``(name, provenance, expected)``, and its name selects
the computation that ``run_suite`` compares with ``expected``: the table
``_COMPUTE`` is the one place a name is bound to code.  Adding a fixture
to an entry is one row; a new name is one more ``_COMPUTE`` entry.  The
closed forms ``fps_lhs`` and ``exnilp_lhs`` and the Kunneth checks are
recomputed from the family arguments an entry keeps in ``params``.

``run_suite`` recomputes every fixture from scratch and compares exactly.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import comb

from .algebra import MAX_DIM, AlgebraSpec, direct_sum, parse_dimension, validate
from .cohomology import derham_betti, hodge_number, hodge_table, natural_map_rank
from .forms import BasisForm, Form, alpha, alphabar
from .metrics import (
    MetricForm,
    _coefficient_grid,
    check_condition,
    diagonal_metric,
    exnilp_lhs,
    fps_lhs,
)
from .obstructions import (
    gap_verdict,
    holomorphic_one_forms,
    jost_yau,
    kunneth_check,
    l_functional,
    torality_check,
)
from .scalars import GaussianRational, parse_scalar


class CatalogKeyError(KeyError):
    """Unknown catalog key; the message lists what is available."""


# one recorded value: ``name`` selects its computation in ``_COMPUTE``;
# provenance: literature | trivial | derived
Fixture = namedtuple("Fixture", "name provenance expected")


class CatalogEntry(namedtuple("CatalogEntry", "key spec fixtures notes params", defaults=("", ()))):
    """A worked example; ``params`` holds the family arguments read by
    fps_lhs, exnilp_lhs and kunneth_*."""

    __slots__ = ()

    @property
    def metric(self) -> MetricForm:
        """The default test metric, the diagonal identity: one per dimension,
        so its wedge powers are computed once."""
        return _identity_metric(self.spec.n)


_identity_metric = cache(diagonal_metric)


# ---------------------------------------------------------------------------
# spec builders


def torus_spec(n: int) -> AlgebraSpec:
    return AlgebraSpec("torus%d" % n, n, [Form() for _ in range(n)])


def iwasawa_spec() -> AlgebraSpec:
    return AlgebraSpec("iwasawa", 3, [Form(), Form(), -(alpha(1) ^ alpha(2))])


def kodaira_spec() -> AlgebraSpec:
    return AlgebraSpec("kodaira", 2, [Form(), alpha(1) ^ alphabar(1)])


def nakamura_ce_spec() -> AlgebraSpec:
    return AlgebraSpec(
        "nakamura_ce",
        3,
        [Form(), -(alpha(1) ^ alpha(2)), alpha(1) ^ alpha(3)],
    )


def fps_spec(A, B, C, D, E) -> AlgebraSpec:
    """n=3 family: d a3 = A ~a1^a2 + B ~a2^a2 + C a1^~a1 + D a1^~a2 + E a1^a2."""
    d3 = (
        A * (alphabar(1) ^ alpha(2))
        + B * (alphabar(2) ^ alpha(2))
        + C * (alpha(1) ^ alphabar(1))
        + D * (alpha(1) ^ alphabar(2))
        + E * (alpha(1) ^ alpha(2))
    )
    return AlgebraSpec("fps_skt", 3, [Form(), Form(), d3])


def exnilp_spec(n: int, A, B) -> AlgebraSpec:
    """d a_n = sum_{i<j<n} A_ij a_i^a_j + sum_{i,j<n} B_ij a_i^~a_j with all
    other generators closed; A strictly upper triangular."""
    a = _coefficient_grid(n, A, "A")
    b = _coefficient_grid(n, B, "B")
    dn = Form(
        [(BasisForm((i + 1, j + 1)), a[i][j]) for i in range(n - 1) for j in range(i + 1, n - 1)]
        + [(BasisForm((i + 1,), (j + 1,)), b[i][j]) for i in range(n - 1) for j in range(n - 1)]
    )
    return AlgebraSpec("exnilp%d" % n, n, [Form() for _ in range(n - 1)] + [dn])


def ones_matrix(m: int):
    return [[1] * m for _ in range(m)]


# ---------------------------------------------------------------------------
# fixture name -> computation


_COMPUTE = {
    "jacobi_ok": lambda e: validate(e.spec).jacobi_ok,
    "nilpotent_J": lambda e: validate(e.spec).nilpotent_J,
    "validity": lambda e: validate(e.spec).validity,
    "filtration": lambda e: list(validate(e.spec).filtration),
    "h01_bc": lambda e: hodge_number(e.spec, "bott_chern", 0, 1),
    "h01_bc_additive": lambda e: hodge_number(e.spec, "bott_chern", 0, 1),
    "h01_aeppli": lambda e: hodge_number(e.spec, "aeppli", 0, 1),
    "bc_table": lambda e: hodge_table(e.spec, "bott_chern").entries,
    "betti": lambda e: derham_betti(e.spec),
    "natural_rank_01": lambda e: natural_map_rank(e.spec, 0, 1),
    "gap": lambda e: gap_verdict(e.spec).gap,
    "gap_verdict": lambda e: gap_verdict(e.spec).verdict,
    "jost_yau": lambda e: "pass" if jost_yau(e.spec).passed else "fail",
    "jost_yau_witness": lambda e: (
        "" if (w := jost_yau(e.spec).witness) is None else str(w)
    ),
    "kahler_identity": lambda e: check_condition(e.spec, e.metric, "kahler").holds,
    "skt_identity": lambda e: check_condition(e.spec, e.metric, "skt").holds,
    "astheno_identity": lambda e: check_condition(e.spec, e.metric, "astheno").holds,
    "astheno_witness": lambda e: str(check_condition(e.spec, e.metric, "astheno").witness),
    "gauduchon_identity": lambda e: check_condition(e.spec, e.metric, "gauduchon").holds,
    "l_rank_identity": lambda e: l_functional(e.spec, e.metric).rank,
    "l_values_identity": lambda e: [
        str(v) for v in l_functional(e.spec, e.metric).values
    ],
    "torality": lambda e: torality_check(e.spec),
    "holomorphic_one_forms": lambda e: [str(f) for f in holomorphic_one_forms(e.spec)],
    "fps_lhs": lambda e: str(fps_lhs(*e.params)),
    "exnilp_lhs": lambda e: str(exnilp_lhs(*e.params)),
    "kunneth_bc": lambda e: kunneth_check(*e.params).bc_additive,
    "kunneth_aeppli": lambda e: kunneth_check(*e.params).aeppli_superadditive,
}


def _fixtures(rows):
    return [Fixture(*row) for row in rows]


# ---------------------------------------------------------------------------
# families and named entries


def _torus(n: int) -> CatalogEntry:
    rows = [
        ("jacobi_ok", "trivial", True),
        ("nilpotent_J", "trivial", True),
        ("filtration", "trivial", [2 * n]),
        ("h01_bc", "trivial", n),
        ("h01_aeppli", "trivial", n),
        ("gap", "trivial", 0),
        ("jost_yau", "trivial", "pass"),
        ("kahler_identity", "trivial", True),
        ("torality", "trivial", "consistent"),
    ]
    if n <= 4:
        table = [[comb(n, p) * comb(n, q) for q in range(n + 1)] for p in range(n + 1)]
        rows.append(("bc_table", "trivial", table))
    return CatalogEntry(
        key="torus(%d)" % n,
        spec=torus_spec(n),
        fixtures=_fixtures(rows),
        notes="Abelian structure: all hodge tables are products of binomial "
        "coefficients, every diagonal metric is Kahler.",
    )


def _iwasawa() -> CatalogEntry:
    rows = [
        ("jacobi_ok", "trivial", True),
        ("nilpotent_J", "derived", True),
        ("filtration", "derived", [4, 6]),
        ("h01_bc", "literature", 2),
        ("h01_aeppli", "literature", 3),
        ("gap", "literature", 1),
        ("gap_verdict", "derived", "compatible_gap1"),
        ("jost_yau", "literature", "fail"),
        ("jost_yau_witness", "derived", "(1)*a3"),
        ("astheno_identity", "derived", False),
        ("astheno_witness", "derived", "(-1i)*a1^a2^~a1^~a2"),
        ("gauduchon_identity", "derived", True),
        ("l_rank_identity", "derived", 0),
        ("betti", "derived", [1, 4, 8, 10, 8, 4, 1]),
        ("natural_rank_01", "derived", 2),
    ]
    return CatalogEntry(
        key="iwasawa",
        spec=iwasawa_spec(),
        fixtures=_fixtures(rows),
        notes="Complex Heisenberg structure.  The (0,1) gap is 1 yet no "
        "astheno-Kahler metric exists: a3 is holomorphic but not closed, "
        "and del delbar omega is a nonzero volume-type form for the "
        "identity metric.  The L functional vanishes identically here "
        "(del of every Aeppli (0,1) representative is zero), so rank L "
        "does not account for the gap: that exactness needs astheno.",
    )


def _kodaira() -> CatalogEntry:
    rows = [
        ("jacobi_ok", "trivial", True),
        ("nilpotent_J", "derived", True),
        ("filtration", "derived", [3, 4]),
        ("h01_bc", "derived", 1),
        ("h01_aeppli", "derived", 2),
        ("gap", "literature", 1),
        ("gap_verdict", "derived", "compatible_gap1"),
        ("holomorphic_one_forms", "derived", ["(1)*a1"]),
        ("jost_yau", "derived", "pass"),
        ("skt_identity", "derived", True),
        ("astheno_identity", "trivial", True),
        ("gauduchon_identity", "derived", True),
        ("l_rank_identity", "derived", 1),
        ("l_values_identity", "derived", ["0", "1i"]),
        ("torality", "derived", "consistent"),
    ]
    return CatalogEntry(
        key="kodaira",
        spec=kodaira_spec(),
        fixtures=_fixtures(rows),
        notes="Primary Kodaira-surface structure: the identity metric is "
        "SKT (n=2 makes astheno trivially true), the (0,1) gap is exactly "
        "1, and the L functional detects it with rank 1.",
    )


def _nakamura_ce() -> CatalogEntry:
    rows = [
        ("jacobi_ok", "trivial", True),
        ("nilpotent_J", "derived", False),
        ("validity", "derived", "ce_only"),
        ("filtration", "derived", [2, 2]),
        ("h01_bc", "derived", 1),
        ("h01_aeppli", "derived", 3),
        ("gap", "derived", 2),
        ("gap_verdict", "derived", "excluded"),
        ("jost_yau", "derived", "fail"),
        ("jost_yau_witness", "derived", "(1)*a2"),
        ("torality", "derived", "not_applicable"),
    ]
    return CatalogEntry(
        key="nakamura_ce",
        spec=nakamura_ce_spec(),
        fixtures=_fixtures(rows),
        notes="Completely solvable (not nilpotent) structure: the flag "
        "stalls at [2, 2], so every verdict is about the invariant complex "
        "only (ce_only).  At this level the (0,1) pair is (1, 3) and the "
        "gap of 2 excludes invariant astheno-Kahler metrics; dimensions of "
        "the corresponding compact quotient differ (the invariant complex "
        "does not compute them here).",
    )


def _fps(scalars, extra=()) -> CatalogEntry:
    scalars = tuple(GaussianRational(0) + s for s in scalars)
    lhs = fps_lhs(*scalars)
    rows = [
        ("jacobi_ok", "trivial", True),
        ("fps_lhs", "derived", str(lhs)),
        ("skt_identity", "derived", lhs == 0),
    ]
    if lhs == 0:
        rows += [
            ("astheno_identity", "trivial", True),
            ("gauduchon_identity", "derived", True),
        ]
    return CatalogEntry(
        key="fps_skt(%s)" % ",".join(str(s) for s in scalars),
        spec=fps_spec(*scalars),
        fixtures=_fixtures(rows + list(extra)),
        notes="Six-dimensional SKT family: the closed-form left-hand side "
        "vanishes exactly when del delbar omega does (identity metric).",
        params=scalars,
    )


def _exnilp(n, A, B, *, key, extra=(), notes="") -> CatalogEntry:
    lhs = exnilp_lhs(n, A, B)
    rows = [
        ("jacobi_ok", "trivial", True),
        ("nilpotent_J", "derived", True),
        ("exnilp_lhs", "derived", str(lhs)),
        ("astheno_identity", "derived", lhs == 0),
        ("gauduchon_identity", "derived", True),
    ]
    return CatalogEntry(
        key=key,
        spec=exnilp_spec(n, A, B),
        fixtures=_fixtures(rows + list(extra)),
        notes=notes
        or "One non-closed generator over an abelian core; astheno for the "
        "identity metric iff sum|A|^2 + sum|B|^2 = |tr B|^2.",
        params=(n, A, B),
    )


def _exnilp_ones(n: int) -> CatalogEntry:
    return _exnilp(
        n,
        0,
        ones_matrix(n - 1),
        key="exnilp_ones(%d)" % n,
        extra=[
            ("gap", "derived", 1),
            ("l_rank_identity", "derived", 1),
            ("jost_yau", "derived", "pass"),
            ("torality", "derived", "consistent"),
        ],
        notes="All-ones B (rank one), A = 0: the left-hand side vanishes "
        "for every n, the identity metric is astheno-Kahler, and the "
        "(0,1) gap of 1 is detected by the L functional (rank 1), so "
        "h01_aeppli = h01_bc + rank L exactly.",
    )


def _product(k1: str, k2: str, extra=(), notes="") -> CatalogEntry:
    # k products join k + 1 factors of n >= 1 each; refuse before recursing
    factors = k1.count("product(") + k2.count("product(") + 2
    if factors > MAX_DIM:
        raise CatalogKeyError(
            "a product of %d factors exceeds the dimension limit %d" % (factors, MAX_DIM)
        )
    left = catalog_get(k1).spec
    right = catalog_get(k2).spec
    bc = sum(hodge_number(spec, "bott_chern", 0, 1) for spec in (left, right))
    rows = [
        ("jacobi_ok", "trivial", True),
        ("h01_bc_additive", "derived", bc),
        ("kunneth_bc", "derived", True),
        ("kunneth_aeppli", "derived", True),
    ]
    return CatalogEntry(
        key="product(%s,%s)" % (k1, k2),
        spec=direct_sum(left, right),
        fixtures=_fixtures(rows + list(extra)),
        notes=notes or "Direct sum of %s and %s." % (k1, k2),
        params=(left, right),
    )


_NAMED = {
    **{"torus(%d)" % n: lambda n=n: _torus(n) for n in range(1, 5)},
    "iwasawa": _iwasawa,
    "kodaira": _kodaira,
    "nakamura_ce": _nakamura_ce,
    "fps_skt(0,1,-1,1,1)": lambda: _fps(
        (0, 1, -1, 1, 1),
        extra=[
            ("nilpotent_J", "derived", True),
            ("h01_bc", "derived", 2),
            ("h01_aeppli", "derived", 3),
            ("gap", "derived", 1),
            ("l_rank_identity", "derived", 1),
            ("torality", "derived", "consistent"),
        ],
    ),
    "fps_skt(1,0,0,0,0)": lambda: _fps((1, 0, 0, 0, 0)),
    "exnilp_ones(3)": lambda: _exnilp_ones(3),
    "exnilp_ones(4)": lambda: _exnilp_ones(4),
    "exnilp_sign_check(3)": lambda: _exnilp(
        3,
        0,
        [[1, 1], [1, -1]],
        key="exnilp_sign_check(3)",
        notes="Sign-convention regression fixture: with B = [[1,1],[1,-1]] "
        "the two cross terms 2 Re(B11 conj(B22)) = -2 cancel the "
        "off-diagonal sum only if the trace term enters with a plus sign; "
        "the direct del delbar omega computation (and the SKT family "
        "correspondence A->E, C->B11, D->B12, -A_fps->B21, -B_fps->B22) "
        "fixes the minus sign, so the left-hand side is 4 and the identity "
        "metric is not astheno-Kahler here.",
    ),
    "exnilp_mixed(3)": lambda: _exnilp(
        3,
        {(1, 2): 1},
        [
            [GaussianRational(0, 1), Fraction(1, 2)],
            [Fraction(1, 2), GaussianRational(0, 1)],
        ],
        key="exnilp_mixed(3)",
        notes="Nonzero A and B with imaginary diagonal: the left-hand side "
        "is -1/2 (it would be 7/2 with the opposite sign on the trace "
        "term), nonzero either way, so the identity metric is not "
        "astheno-Kahler; a useful negative fixture exercising complex "
        "coefficients.",
    ),
    "product(kodaira,torus(1))": lambda: _product(
        "kodaira",
        "torus(1)",
        extra=[
            ("nilpotent_J", "derived", True),
            ("h01_aeppli", "derived", 3),
            ("gap", "derived", 1),
            ("skt_identity", "derived", True),
            ("astheno_identity", "derived", True),
            ("l_rank_identity", "derived", 1),
            ("torality", "derived", "consistent"),
        ],
        notes="Kodaira-surface structure times a 1-torus: n=3, the identity "
        "metric stays SKT (= astheno here), and the gap of 1 persists "
        "with L-rank 1.",
    ),
}


def catalog_list():
    """The named keys, in suite order."""
    return list(_NAMED)


# ---------------------------------------------------------------------------
# key parsing for parametrized families


def _split_top(s: str):
    parts = []
    depth = 0
    current = []
    for ch in s:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise CatalogKeyError("unbalanced brackets in %.60r" % s)
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [p.strip() for p in parts]


def _parse_matrix(text: str):
    text = text.strip()
    if text == "0":
        return 0
    if not (text.startswith("[[") and text.endswith("]]")):
        raise CatalogKeyError("matrix literal must look like [[...],[...]] or 0")
    rows = _split_top(text[1:-1])
    out = []
    for row in rows:
        row = row.strip()
        if not (row.startswith("[") and row.endswith("]")):
            raise CatalogKeyError("matrix row %.60r must be bracketed" % row)
        out.append([parse_scalar(x) for x in _split_top(row[1:-1])])
    return out


def _exnilp_key(n, *named_args) -> CatalogEntry:
    dim = parse_dimension(n)
    named = {}
    for arg in named_args:
        tag, _, value = arg.partition("=")
        named[tag.strip()] = _parse_matrix(value)
    if set(named) != {"A", "B"}:
        raise CatalogKeyError("exnilp wants A= and B= arguments")
    return _exnilp(dim, named["A"], named["B"], key="exnilp(%s)" % ",".join((n, *named_args)))


# family head -> (argument count, refusal for any other count, builder from
# the argument texts)
_FAMILIES = {
    "torus": (1, "torus wants one dimension", lambda n: _torus(parse_dimension(n))),
    "exnilp_ones": (
        1, "exnilp_ones wants one dimension", lambda n: _exnilp_ones(parse_dimension(n))
    ),
    "fps_skt": (5, "fps_skt wants five scalars", lambda *s: _fps([parse_scalar(a) for a in s])),
    "exnilp": (3, "exnilp wants (n, A=..., B=...)", _exnilp_key),
    "product": (2, "product wants two catalog keys", _product),
}


def catalog_get(key: str) -> CatalogEntry:
    """Look up a named entry or build a parametrized one."""
    key = key.strip()
    builder = _NAMED.get(key)
    if builder is not None:
        return builder()
    head, _, rest = key.partition("(")
    family = _FAMILIES.get(head)
    if family is None or not rest.endswith(")"):
        raise CatalogKeyError(
            "unknown catalog key %.60r; named keys: %s" % (key, ", ".join(_NAMED))
        )
    count, refusal, build = family
    args = _split_top(rest[:-1])
    if len(args) != count:
        raise CatalogKeyError(refusal)
    try:
        return build(*args)
    except (ValueError, IndexError) as exc:
        raise CatalogKeyError("bad arguments in %.60r: %s" % (key, exc)) from None


def run_suite(keys=None):
    """Recompute every fixture of the requested entries (all named entries
    by default).  Returns (ok, summary-dict)."""
    if keys is None:
        keys = catalog_list()
    entries = []
    all_ok = True
    for key in keys:
        entry = catalog_get(key)
        rows = []
        entry_ok = True
        for fx in entry.fixtures:
            computed = _COMPUTE[fx.name](entry)
            ok = computed == fx.expected
            entry_ok &= ok
            rows.append(
                {
                    "name": fx.name,
                    "provenance": fx.provenance,
                    "expected": fx.expected,
                    "computed": computed,
                    "ok": ok,
                }
            )
        all_ok &= entry_ok
        entries.append({"key": entry.key, "ok": entry_ok, "fixtures": rows})
    return all_ok, {"ok": all_ok, "entries": entries}
