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

Every fixture value carries a provenance label:

* ``literature`` — a dimension quoted from published computations;
* ``trivial``    — forced by definitions (binomial counts, zero maps);
* ``derived``    — produced by this package's exact computation and
  cross-checked against an independent brute-force oracle in the tests.

``run_suite`` recomputes every fixture from scratch and compares exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .algebra import AlgebraSpec, direct_sum, validate
from .cohomology import hodge_number, hodge_table, natural_map_rank
from .forms import Form, alpha, alphabar
from .metrics import (
    MetricForm,
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


@dataclass
class Fixture:
    name: str
    provenance: str  # literature | trivial | derived
    expected: object
    compute: object  # callable(entry) -> value comparable to expected


@dataclass
class CatalogEntry:
    key: str
    spec: AlgebraSpec
    metric: MetricForm  # default test metric (diagonal identity)
    fixtures: list
    notes: str = ""


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
    from .metrics import _coefficient_grid

    a = _coefficient_grid(n, A, "A")
    b = _coefficient_grid(n, B, "B")
    dn = Form()
    for i in range(n - 1):
        for j in range(i + 1, n - 1):
            if a[i][j]:
                dn = dn + a[i][j] * (alpha(i + 1) ^ alpha(j + 1))
    for i in range(n - 1):
        for j in range(n - 1):
            if b[i][j]:
                dn = dn + b[i][j] * (alpha(i + 1) ^ alphabar(j + 1))
    return AlgebraSpec("exnilp%d" % n, n, [Form() for _ in range(n - 1)] + [dn])


def ones_matrix(m: int):
    return [[1] * m for _ in range(m)]


# ---------------------------------------------------------------------------
# fixture helpers (each computes one recomputable quantity)


def _fx_jacobi(entry):
    return validate(entry.spec).jacobi_ok


def _fx_nilpotent(entry):
    return validate(entry.spec).nilpotent_J


def _fx_filtration(entry):
    return list(validate(entry.spec).filtration)


def _fx_h01(theory):
    return lambda entry: hodge_number(entry.spec, theory, 0, 1)


def _fx_gap(entry):
    return gap_verdict(entry.spec).gap


def _fx_gap_verdict(entry):
    return gap_verdict(entry.spec).verdict


def _fx_jost_yau(entry):
    return "pass" if jost_yau(entry.spec).passed else "fail"


def _fx_jost_yau_witness(entry):
    w = jost_yau(entry.spec).witness
    return str(w) if w is not None else ""


def _fx_check(cond):
    return lambda entry: check_condition(entry.spec, entry.metric, cond).holds


def _fx_check_witness(cond):
    return lambda entry: str(check_condition(entry.spec, entry.metric, cond).witness)


def _fx_l_rank(entry):
    return l_functional(entry.spec, entry.metric).rank


def _fx_l_values(entry):
    return [str(v) for v in l_functional(entry.spec, entry.metric).values]


def _fx_torality(entry):
    return torality_check(entry.spec)


def _fx_holo_forms(entry):
    return [str(f) for f in holomorphic_one_forms(entry.spec)]


def _fx_bc_table(entry):
    return hodge_table(entry.spec, "bott_chern").entries


def _fx_natural_rank(p, q):
    return lambda entry: natural_map_rank(entry.spec, p, q)


def _fx_betti(entry):
    from .cohomology import derham_betti

    return derham_betti(entry.spec)


def _fx_validity(entry):
    return validate(entry.spec).validity


# ---------------------------------------------------------------------------
# named entries


def _torus_entry(n: int) -> CatalogEntry:
    fixtures = [
        Fixture("jacobi_ok", "trivial", True, _fx_jacobi),
        Fixture("nilpotent_J", "trivial", True, _fx_nilpotent),
        Fixture("filtration", "trivial", [2 * n], _fx_filtration),
        Fixture("h01_bc", "trivial", n, _fx_h01("bott_chern")),
        Fixture("h01_aeppli", "trivial", n, _fx_h01("aeppli")),
        Fixture("gap", "trivial", 0, _fx_gap),
        Fixture("jost_yau", "trivial", "pass", _fx_jost_yau),
        Fixture("kahler_identity", "trivial", True, _fx_check("kahler")),
        Fixture("torality", "trivial", "consistent", _fx_torality),
    ]
    if n <= 4:
        table = [[comb(n, p) * comb(n, q) for q in range(n + 1)] for p in range(n + 1)]
        fixtures.append(Fixture("bc_table", "trivial", table, _fx_bc_table))
    return CatalogEntry(
        key="torus(%d)" % n,
        spec=torus_spec(n),
        metric=diagonal_metric(n),
        fixtures=fixtures,
        notes="Abelian structure: all hodge tables are products of binomial "
        "coefficients, every diagonal metric is Kahler.",
    )


def _iwasawa_entry() -> CatalogEntry:
    fixtures = [
        Fixture("jacobi_ok", "trivial", True, _fx_jacobi),
        Fixture("nilpotent_J", "derived", True, _fx_nilpotent),
        Fixture("filtration", "derived", [4, 6], _fx_filtration),
        Fixture("h01_bc", "literature", 2, _fx_h01("bott_chern")),
        Fixture("h01_aeppli", "literature", 3, _fx_h01("aeppli")),
        Fixture("gap", "literature", 1, _fx_gap),
        Fixture("gap_verdict", "derived", "compatible_gap1", _fx_gap_verdict),
        Fixture("jost_yau", "literature", "fail", _fx_jost_yau),
        Fixture("jost_yau_witness", "derived", "(1)*a3", _fx_jost_yau_witness),
        Fixture("astheno_identity", "derived", False, _fx_check("astheno")),
        Fixture(
            "astheno_witness",
            "derived",
            "(-1i)*a1^a2^~a1^~a2",
            _fx_check_witness("astheno"),
        ),
        Fixture("gauduchon_identity", "derived", True, _fx_check("gauduchon")),
        Fixture("l_rank_identity", "derived", 0, _fx_l_rank),
        Fixture("betti", "derived", [1, 4, 8, 10, 8, 4, 1], _fx_betti),
        Fixture("natural_rank_01", "derived", 2, _fx_natural_rank(0, 1)),
    ]
    return CatalogEntry(
        key="iwasawa",
        spec=iwasawa_spec(),
        metric=diagonal_metric(3),
        fixtures=fixtures,
        notes="Complex Heisenberg structure.  The (0,1) gap is 1 yet no "
        "astheno-Kahler metric exists: a3 is holomorphic but not closed, "
        "and del delbar omega is a nonzero volume-type form for the "
        "identity metric.  The L functional vanishes identically here "
        "(del of every Aeppli (0,1) representative is zero), so rank L "
        "does not account for the gap: that exactness needs astheno.",
    )


def _kodaira_entry() -> CatalogEntry:
    fixtures = [
        Fixture("jacobi_ok", "trivial", True, _fx_jacobi),
        Fixture("nilpotent_J", "derived", True, _fx_nilpotent),
        Fixture("filtration", "derived", [3, 4], _fx_filtration),
        Fixture("h01_bc", "derived", 1, _fx_h01("bott_chern")),
        Fixture("h01_aeppli", "derived", 2, _fx_h01("aeppli")),
        Fixture("gap", "literature", 1, _fx_gap),
        Fixture("gap_verdict", "derived", "compatible_gap1", _fx_gap_verdict),
        Fixture("holomorphic_one_forms", "derived", ["(1)*a1"], _fx_holo_forms),
        Fixture("jost_yau", "derived", "pass", _fx_jost_yau),
        Fixture("skt_identity", "derived", True, _fx_check("skt")),
        Fixture("astheno_identity", "trivial", True, _fx_check("astheno")),
        Fixture("gauduchon_identity", "derived", True, _fx_check("gauduchon")),
        Fixture("l_rank_identity", "derived", 1, _fx_l_rank),
        Fixture("l_values_identity", "derived", ["0", "1i"], _fx_l_values),
        Fixture("torality", "derived", "consistent", _fx_torality),
    ]
    return CatalogEntry(
        key="kodaira",
        spec=kodaira_spec(),
        metric=diagonal_metric(2),
        fixtures=fixtures,
        notes="Primary Kodaira-surface structure: the identity metric is "
        "SKT (n=2 makes astheno trivially true), the (0,1) gap is exactly "
        "1, and the L functional detects it with rank 1.",
    )


def _nakamura_entry() -> CatalogEntry:
    fixtures = [
        Fixture("jacobi_ok", "trivial", True, _fx_jacobi),
        Fixture("nilpotent_J", "derived", False, _fx_nilpotent),
        Fixture("validity", "derived", "ce_only", _fx_validity),
        Fixture("filtration", "derived", [2, 2], _fx_filtration),
        Fixture("h01_bc", "derived", 1, _fx_h01("bott_chern")),
        Fixture("h01_aeppli", "derived", 3, _fx_h01("aeppli")),
        Fixture("gap", "derived", 2, _fx_gap),
        Fixture("gap_verdict", "derived", "excluded", _fx_gap_verdict),
        Fixture("jost_yau", "derived", "fail", _fx_jost_yau),
        Fixture("jost_yau_witness", "derived", "(1)*a2", _fx_jost_yau_witness),
        Fixture("torality", "derived", "not_applicable", _fx_torality),
    ]
    return CatalogEntry(
        key="nakamura_ce",
        spec=nakamura_ce_spec(),
        metric=diagonal_metric(3),
        fixtures=fixtures,
        notes="Completely solvable (not nilpotent) structure: the flag "
        "stalls at [2, 2], so every verdict is about the invariant complex "
        "only (ce_only).  At this level the (0,1) pair is (1, 3) and the "
        "gap of 2 excludes invariant astheno-Kahler metrics; dimensions of "
        "the corresponding compact quotient differ (the invariant complex "
        "does not compute them here).",
    )


def _fps_entry(scalars, *, key=None) -> CatalogEntry:
    A, B, C, D, E = scalars
    lhs = fps_lhs(A, B, C, D, E)
    entry_key = key or "fps_skt(%s)" % ",".join(str(s) for s in scalars)
    fixtures = [
        Fixture("jacobi_ok", "trivial", True, _fx_jacobi),
        Fixture("fps_lhs", "derived", str(lhs), lambda e: str(fps_lhs(A, B, C, D, E))),
        Fixture("skt_identity", "derived", lhs == 0, _fx_check("skt")),
    ]
    if lhs == 0:
        fixtures += [
            Fixture("astheno_identity", "trivial", True, _fx_check("astheno")),
            Fixture("gauduchon_identity", "derived", True, _fx_check("gauduchon")),
        ]
    return CatalogEntry(
        key=entry_key,
        spec=fps_spec(*(GaussianRational(0) + s for s in scalars)),
        metric=diagonal_metric(3),
        fixtures=fixtures,
        notes="Six-dimensional SKT family: the closed-form left-hand side "
        "vanishes exactly when del delbar omega does (identity metric).",
    )


def _fps_named_zero() -> CatalogEntry:
    entry = _fps_entry(
        [
            GaussianRational(0),
            GaussianRational(1),
            GaussianRational(-1),
            GaussianRational(1),
            GaussianRational(1),
        ],
        key="fps_skt(0,1,-1,1,1)",
    )
    entry.fixtures += [
        Fixture("nilpotent_J", "derived", True, _fx_nilpotent),
        Fixture("h01_bc", "derived", 2, _fx_h01("bott_chern")),
        Fixture("h01_aeppli", "derived", 3, _fx_h01("aeppli")),
        Fixture("gap", "derived", 1, _fx_gap),
        Fixture("l_rank_identity", "derived", 1, _fx_l_rank),
        Fixture("torality", "derived", "consistent", _fx_torality),
    ]
    return entry


def _fps_named_one() -> CatalogEntry:
    return _fps_entry(
        [
            GaussianRational(1),
            GaussianRational(0),
            GaussianRational(0),
            GaussianRational(0),
            GaussianRational(0),
        ],
        key="fps_skt(1,0,0,0,0)",
    )


def _exnilp_entry(n, A, B, *, key, extra_fixtures=(), notes="") -> CatalogEntry:
    lhs = exnilp_lhs(n, A, B)
    spec = exnilp_spec(n, A, B)
    fixtures = [
        Fixture("jacobi_ok", "trivial", True, _fx_jacobi),
        Fixture("nilpotent_J", "derived", True, _fx_nilpotent),
        Fixture("exnilp_lhs", "derived", str(lhs), lambda e: str(exnilp_lhs(n, A, B))),
        Fixture("astheno_identity", "derived", lhs == 0, _fx_check("astheno")),
        Fixture("gauduchon_identity", "derived", True, _fx_check("gauduchon")),
    ] + list(extra_fixtures)
    return CatalogEntry(
        key=key,
        spec=spec,
        metric=diagonal_metric(n),
        fixtures=fixtures,
        notes=notes
        or "One non-closed generator over an abelian core; astheno for the "
        "identity metric iff sum|A|^2 + sum|B|^2 = |tr B|^2.",
    )


def _exnilp_ones(n: int) -> CatalogEntry:
    extra = [
        Fixture("gap", "derived", 1, _fx_gap),
        Fixture("l_rank_identity", "derived", 1, _fx_l_rank),
        Fixture("jost_yau", "derived", "pass", _fx_jost_yau),
        Fixture("torality", "derived", "consistent", _fx_torality),
    ]
    return _exnilp_entry(
        n,
        0,
        ones_matrix(n - 1),
        key="exnilp_ones(%d)" % n,
        extra_fixtures=extra,
        notes="All-ones B (rank one), A = 0: the left-hand side vanishes "
        "for every n, the identity metric is astheno-Kahler, and the "
        "(0,1) gap of 1 is detected by the L functional (rank 1), so "
        "h01_aeppli = h01_bc + rank L exactly.",
    )


def _exnilp_sign_check() -> CatalogEntry:
    B = [[1, 1], [1, -1]]
    return _exnilp_entry(
        3,
        0,
        B,
        key="exnilp_sign_check(3)",
        notes="Sign-convention regression fixture: with B = [[1,1],[1,-1]] "
        "the two cross terms 2 Re(B11 conj(B22)) = -2 cancel the "
        "off-diagonal sum only if the trace term enters with a plus sign; "
        "the direct del delbar omega computation (and the SKT family "
        "correspondence A->E, C->B11, D->B12, -A_fps->B21, -B_fps->B22) "
        "fixes the minus sign, so the left-hand side is 4 and the identity "
        "metric is not astheno-Kahler here.",
    )


def _exnilp_mixed() -> CatalogEntry:
    i = GaussianRational(0, 1)
    h = Fraction(1, 2)
    B = [[i, h], [h, i]]
    A = {(1, 2): 1}
    return _exnilp_entry(
        3,
        A,
        B,
        key="exnilp_mixed(3)",
        notes="Nonzero A and B with imaginary diagonal: the left-hand side "
        "is -1/2 (it would be 7/2 with the opposite sign on the trace "
        "term), nonzero either way, so the identity metric is not "
        "astheno-Kahler; a useful negative fixture exercising complex "
        "coefficients.",
    )


def _product_entry(k1: str, k2: str) -> CatalogEntry:
    left = catalog_get(k1)
    right = catalog_get(k2)
    spec = direct_sum(left.spec, right.spec)
    bc = hodge_number(left.spec, "bott_chern", 0, 1) + hodge_number(
        right.spec, "bott_chern", 0, 1
    )
    fixtures = [
        Fixture("jacobi_ok", "trivial", True, _fx_jacobi),
        Fixture("h01_bc_additive", "derived", bc, _fx_h01("bott_chern")),
        Fixture(
            "kunneth_bc",
            "derived",
            True,
            lambda e: kunneth_check(left.spec, right.spec).bc_additive,
        ),
        Fixture(
            "kunneth_aeppli",
            "derived",
            True,
            lambda e: kunneth_check(left.spec, right.spec).aeppli_superadditive,
        ),
    ]
    return CatalogEntry(
        key="product(%s,%s)" % (k1, k2),
        spec=spec,
        metric=diagonal_metric(spec.n),
        fixtures=fixtures,
        notes="Direct sum of %s and %s." % (k1, k2),
    )


def _product_kodaira_torus() -> CatalogEntry:
    entry = _product_entry("kodaira", "torus(1)")
    entry.fixtures += [
        Fixture("nilpotent_J", "derived", True, _fx_nilpotent),
        Fixture("h01_aeppli", "derived", 3, _fx_h01("aeppli")),
        Fixture("gap", "derived", 1, _fx_gap),
        Fixture("skt_identity", "derived", True, _fx_check("skt")),
        Fixture("astheno_identity", "derived", True, _fx_check("astheno")),
        Fixture("l_rank_identity", "derived", 1, _fx_l_rank),
        Fixture("torality", "derived", "consistent", _fx_torality),
    ]
    entry.notes = (
        "Kodaira-surface structure times a 1-torus: n=3, the identity "
        "metric stays SKT (= astheno here), and the gap of 1 persists "
        "with L-rank 1."
    )
    return entry


_NAMED = {
    "torus(1)": lambda: _torus_entry(1),
    "torus(2)": lambda: _torus_entry(2),
    "torus(3)": lambda: _torus_entry(3),
    "torus(4)": lambda: _torus_entry(4),
    "iwasawa": _iwasawa_entry,
    "kodaira": _kodaira_entry,
    "nakamura_ce": _nakamura_entry,
    "fps_skt(0,1,-1,1,1)": _fps_named_zero,
    "fps_skt(1,0,0,0,0)": _fps_named_one,
    "exnilp_ones(3)": lambda: _exnilp_ones(3),
    "exnilp_ones(4)": lambda: _exnilp_ones(4),
    "exnilp_sign_check(3)": _exnilp_sign_check,
    "exnilp_mixed(3)": _exnilp_mixed,
    "product(kodaira,torus(1))": _product_kodaira_torus,
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
                raise CatalogKeyError("unbalanced brackets in %r" % s)
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
            raise CatalogKeyError("matrix row %r must be bracketed" % row)
        out.append([parse_scalar(x) for x in _split_top(row[1:-1])])
    return out


def catalog_get(key: str) -> CatalogEntry:
    """Look up a named entry or build a parametrized one."""
    key = key.strip()
    builder = _NAMED.get(key)
    if builder is not None:
        return builder()
    head, _, rest = key.partition("(")
    if not rest.endswith(")"):
        raise CatalogKeyError(
            "unknown catalog key %r; named keys: %s" % (key, ", ".join(_NAMED))
        )
    args = _split_top(rest[:-1])
    try:
        if head == "torus":
            return _torus_entry(int(args[0]))
        if head == "exnilp_ones":
            return _exnilp_ones(int(args[0]))
        if head == "fps_skt":
            if len(args) != 5:
                raise CatalogKeyError("fps_skt wants five scalars")
            return _fps_entry([parse_scalar(a) for a in args])
        if head == "exnilp":
            if len(args) != 3:
                raise CatalogKeyError("exnilp wants (n, A=..., B=...)")
            n = int(args[0])
            named = {}
            for arg in args[1:]:
                tag, _, value = arg.partition("=")
                named[tag.strip()] = _parse_matrix(value)
            if set(named) != {"A", "B"}:
                raise CatalogKeyError("exnilp wants A= and B= arguments")
            return _exnilp_entry(
                n, named["A"], named["B"], key="exnilp(%s)" % ",".join(args)
            )
        if head == "product":
            if len(args) != 2:
                raise CatalogKeyError("product wants two catalog keys")
            return _product_entry(args[0], args[1])
    except CatalogKeyError:
        raise
    except (ValueError, IndexError) as exc:
        raise CatalogKeyError("bad arguments in %r: %s" % (key, exc)) from None
    raise CatalogKeyError(
        "unknown catalog key %r; named keys: %s" % (key, ", ".join(_NAMED))
    )


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
            computed = fx.compute(entry)
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
