"""Hermitian metric forms and the vanishing-condition checks."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from sympy import I as SYMPY_I
from sympy import Matrix, QQ_I
from sympy.polys.matrices import DomainMatrix

import nilcoh.algebra
import nilcoh.metrics

from nilcoh.algebra import deldelbar, require_complex
from nilcoh.catalog import (
    exnilp_spec,
    fps_spec,
    iwasawa_spec,
    kodaira_spec,
    nakamura_ce_spec,
    torus_spec,
)
from nilcoh.forms import BasisForm, Form, alpha, alphabar
from nilcoh.metrics import (
    MetricForm,
    build_metric,
    check_condition,
    diagonal_metric,
    exnilp_lhs,
    fps_lhs,
    scan_diagonal_metrics,
)
from nilcoh.scalars import GaussianRational

from generators import rational_specs
from oracle import OracleAlgebra, form_to_mv, mv_equal, mv_wedge, scalar_to_sympy


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def test_identity_metric_form():
    m = diagonal_metric(3)
    want = (
        gr(0, 1) * (alpha(1) ^ alphabar(1))
        + gr(0, 1) * (alpha(2) ^ alphabar(2))
        + gr(0, 1) * (alpha(3) ^ alphabar(3))
    )
    assert m.omega == want
    assert m.is_positive()


def test_top_power_is_factorial_volume():
    m = diagonal_metric(3)
    vol = Form({BasisForm((1, 2, 3), (1, 2, 3)): gr(0, 6)})
    assert m.wedge_power(3) == vol
    assert m.wedge_power(0) == Form.scalar(gr(1))


def _random_hermitian(rng, n, kind):
    """A Hermitian matrix with denominators 1..6 of one of three kinds:
    ``mixed`` (about a third of the off-diagonal entries zero),
    ``singular`` (a sum of max(1, n-1) rank-one matrices v v*) and
    ``indefinite`` (diagonally dominant with diagonal signs alternating)."""

    def q(span=3):
        return Fraction(rng.randint(-span, span), rng.randint(1, 6))

    H = [[gr(0)] * n for _ in range(n)]
    if kind == "singular":
        for _ in range(max(1, n - 1)):
            v = [gr(q(), q()) for _ in range(n)]
            for j in range(n):
                for k in range(n):
                    H[j][k] = H[j][k] + v[j] * v[k].conjugate()
        return H
    for j in range(n):
        for k in range(j + 1, n):
            if kind == "indefinite" or rng.random() > 1 / 3:
                H[j][k] = gr(q(), q())
                H[k][j] = H[j][k].conjugate()
        if kind == "indefinite":
            H[j][j] = gr((-1) ** j * (4 * n + rng.randint(1, 5)), 0)
        else:
            H[j][j] = gr(q(5))
    return H


def _hermitian_cases():
    rng = random.Random(20261018)
    for n in range(1, 7):
        for kind in ("mixed", "singular", "indefinite"):
            yield n, kind, _random_hermitian(rng, n, kind)


def _omega(H):
    """i sum H[j][k] a_j ^ ~a_k, straight from the definition."""
    n = len(H)
    return Form(
        {BasisForm((j + 1,), (l + 1,)): gr(0, 1) * H[j][l] for j in range(n) for l in range(n)}
    )


def _sympy_minor_power(H, k):
    """k! i^k (-1)^(k(k-1)/2) sum det H[S,T] a_S ^ ~a_T, with the minors
    taken by sympy over QQ<I>, as a dict monomial -> QQ<I> element."""
    n = len(H)
    D = DomainMatrix.from_Matrix(Matrix([[scalar_to_sympy(z) for z in row] for row in H]))
    D = D.convert_to(QQ_I)
    unit = QQ_I.from_sympy(SYMPY_I**k * (-1) ** (k * (k - 1) // 2) * math.factorial(k))
    out = {}
    for S in itertools.combinations(range(n), k):
        for T in itertools.combinations(range(n), k):
            minor = D.extract(list(S), list(T)).det() if k else QQ_I.one
            if minor:
                key = BasisForm(tuple(j + 1 for j in S), tuple(j + 1 for j in T))
                out[key] = unit * minor
    return out


def test_wedge_power_equals_iterated_wedge():
    for n, kind, H in _hermitian_cases():
        m = MetricForm(H)
        omega = _omega(H)
        iterated = Form.scalar(gr(1))
        for k in range(n + 2):
            assert m.wedge_power(k) == iterated, (n, kind, k)
            iterated = iterated ^ omega


def test_wedge_power_equals_sympy_minors():
    for n, kind, H in _hermitian_cases():
        m = MetricForm(H)
        for k in range(n + 1):
            got = {
                bf: QQ_I.from_sympy(scalar_to_sympy(c)) for bf, c in m.wedge_power(k).terms()
            }
            assert got == _sympy_minor_power(H, k), (n, kind, k)
        assert m.wedge_power(n + 1).is_zero()
        assert m.wedge_power(n + 5).is_zero()


def test_wedge_power_case_coverage():
    kinds = {}
    for n, kind, H in _hermitian_cases():
        m = MetricForm(H)
        kinds.setdefault(kind, []).append(m)
        if kind == "singular" and n > 1:
            assert m.wedge_power(n).is_zero()  # det H = 0
        if kind == "indefinite" and n > 1:
            assert not m.is_positive()
    dens = {z.re.denominator for ms in kinds.values() for m in ms for row in m.H for z in row}
    assert len(dens) > 3  # mixed denominators
    assert any(not z for m in kinds["mixed"] for row in m.H for z in row)  # zero entries


def test_wedge_power_rejects_negative_exponent():
    m = diagonal_metric(2)
    with pytest.raises(ValueError):
        m.wedge_power(-1)


def test_leading_minors_raises_on_complex_minor(monkeypatch):
    # an elimination that ends on a non-real pivot breaks the Hermitian invariant
    true_echelon = nilcoh.metrics._echelon

    def skewed(rows, ncols, reduced):
        pivots, out, last, sign = true_echelon(rows, ncols, reduced)
        return pivots, out, (last[0], last[1] + 1), sign

    monkeypatch.setattr(nilcoh.metrics, "_echelon", skewed)
    with pytest.raises(ArithmeticError):
        diagonal_metric(2).leading_minors()


def test_hermitian_validation():
    i = gr(0, 1)
    with pytest.raises(ValueError):
        build_metric(2, [[gr(1), i], [i, gr(1)]])  # H21 must be conj(H12)
    m = build_metric(2, [[gr(2), i], [-i, gr(1)]])
    assert m.omega.coefficient(BasisForm((1,), (2,))) == gr(0, 1) * i


def test_positivity_via_leading_minors():
    i = gr(0, 1)
    assert build_metric(2, [[gr(2), i], [-i, gr(1)]]).is_positive()
    assert not build_metric(2, [[gr(1), gr(2)], [gr(2), gr(1)]]).is_positive()
    assert not diagonal_metric(2, [Fraction(-1), Fraction(1)]).is_positive()


def test_diagonal_metric_requires_real_entries():
    with pytest.raises(ValueError):
        diagonal_metric(2, [gr(0, 1), gr(1)])


def test_metric_inputs_refuse_floats():
    with pytest.raises(TypeError, match="float"):
        diagonal_metric(2, [0.1, 1])
    with pytest.raises(TypeError, match="float"):
        fps_lhs(0.1, 0, 0, 0, 0)
    assert diagonal_metric(2, ["1/10", 1]) == diagonal_metric(2, [Fraction(1, 10), 1])


def test_dimension_mismatch_is_refused():
    with pytest.raises(ValueError):
        check_condition(iwasawa_spec(), diagonal_metric(2), "skt")
    with pytest.raises(ValueError):
        build_metric(3, [[gr(1)]])


def test_torus_is_kahler():
    for n in (1, 2, 3):
        r = check_condition(torus_spec(n), diagonal_metric(n), "kahler")
        assert r.holds and r.witness.is_zero()


def test_iwasawa_conditions():
    iw = iwasawa_spec()
    m = diagonal_metric(3)
    assert not check_condition(iw, m, "kahler").holds
    assert check_condition(iw, m, "gauduchon").holds
    r = check_condition(iw, m, "astheno")
    assert not r.holds
    assert r.witness == gr(0, -1) * ((alpha(1) ^ alpha(2)) ^ (alphabar(1) ^ alphabar(2)))
    # n = 3: skt and astheno coincide
    assert check_condition(iw, m, "skt").holds == r.holds


def test_kodaira_is_skt_not_kahler():
    ko = kodaira_spec()
    m = diagonal_metric(2)
    assert check_condition(ko, m, "skt").holds
    assert not check_condition(ko, m, "kahler").holds
    # n = 2 means astheno is the degenerate exponent: trivially true
    assert check_condition(ko, m, "astheno").holds


def test_pluriclosed_exponents():
    iw = iwasawa_spec()
    m = diagonal_metric(3)
    assert check_condition(iw, m, "pluriclosed:1").holds  # gauduchon power
    assert not check_condition(iw, m, "pluriclosed:2").holds  # skt power
    assert check_condition(iw, m, "pluriclosed:3").holds  # scalar, degenerate
    assert check_condition(iw, m, "gauduchon").holds == check_condition(
        iw, m, "pluriclosed:1"
    ).holds


def test_ft_pair_reports_first_failure():
    iw = iwasawa_spec()
    m = diagonal_metric(3)
    r = check_condition(iw, m, "ft_pair")
    assert not r.holds
    assert not r.witness.is_zero()
    ko = kodaira_spec()
    assert check_condition(ko, diagonal_metric(2), "ftpair").holds


def test_condition_names_are_validated():
    with pytest.raises(ValueError):
        check_condition(iwasawa_spec(), diagonal_metric(3), "balanced")
    for k in ("x", "", "64", "65"):
        with pytest.raises(ValueError, match="pluriclosed:K needs K in 1..3"):
            check_condition(iwasawa_spec(), diagonal_metric(3), "pluriclosed:" + k)
    # K is read as a dimension: leading zeros are accepted, and dropped from the label
    for k in ("3", "03", "003"):
        padded = check_condition(iwasawa_spec(), diagonal_metric(3), "pluriclosed:" + k)
        assert padded.holds and padded.condition == "pluriclosed:3"
    assert check_condition(iwasawa_spec(), diagonal_metric(3), "pluriclosed:02").condition == (
        "pluriclosed:2"
    )


def test_checks_are_scale_invariant():
    iw = iwasawa_spec()
    for cond in ("kahler", "gauduchon", "skt", "astheno"):
        a = check_condition(iw, diagonal_metric(3), cond).holds
        b = check_condition(iw, diagonal_metric(3, [Fraction(2)] * 3), cond).holds
        assert a == b


def _complex_hermitian(rng, n):
    """A Hermitian matrix with complex off-diagonal entries over
    denominators 2 and 3 and a positive diagonal."""
    def q():
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((2, 3)))

    H = [[gr(0)] * n for _ in range(n)]
    for j in range(n):
        H[j][j] = gr(abs(q()) + n)
        for k in range(j + 1, n):
            H[j][k] = gr(q(), q())
            H[k][j] = H[j][k].conjugate()
    return H


def _oracle_powers(H):
    """omega^0 .. omega^n with omega = i sum H[j][k] a_j ^ ~a_k, as oracle
    multivectors built by repeated wedges."""
    n = len(H)
    omega = {
        (j + 1, -(k + 1)): SYMPY_I * scalar_to_sympy(H[j][k])
        for j in range(n)
        for k in range(n)
        if H[j][k]
    }
    powers = [{(): 1}]
    for _ in range(n):
        powers.append(mv_wedge(powers[-1], omega))
    return powers


def test_check_condition_witnesses_match_oracle():
    """The witness of every condition, for complex H over denominators 2
    and 3 on specs with rational structure constants, is the oracle's d or
    del delbar of omega^k."""
    rng = random.Random(1019)
    seen = set()
    for spec in rational_specs(rng):
        n = spec.n
        H = _complex_hermitian(rng, n)
        met = build_metric(n, H)
        oracle = OracleAlgebra.from_spec(spec, scalar_to_sympy)
        powers = _oracle_powers(H)

        def ddbar(k):
            return oracle.del_mv(oracle.delbar_mv(powers[k]))

        skt = ddbar(1)
        expected = {
            "kahler": oracle.d_mv(powers[1]),
            "gauduchon": ddbar(n - 1),
            "skt": skt,
            "astheno": ddbar(n - 2),
            "ft_pair": skt or ddbar(2),
            "ftpair": skt or ddbar(2),
        }
        expected.update(("pluriclosed:%d" % k, ddbar(n - k)) for k in range(1, n + 1))
        for cond, want in expected.items():
            result = check_condition(spec, met, cond)
            assert mv_equal(form_to_mv(result.witness), want), (spec.d_generators, cond)
            assert result.holds == (not want)
            seen.add(result.holds)
    assert seen == {True, False}


def test_check_condition_builds_no_intermediate_form(monkeypatch):
    """A check goes from the Gaussian-integer power to its witness without
    a Form of omega^k or of a differential in between."""

    def refuse(*args):
        raise AssertionError("intermediate Form")

    # the Jacobi gate differentiates the generator Forms, once per spec
    iw = iwasawa_spec()
    require_complex(iw)
    monkeypatch.setattr(MetricForm, "wedge_power", refuse)
    monkeypatch.setattr(nilcoh.algebra, "_differentiate", refuse)
    met = diagonal_metric(3)
    verdicts = {
        cond: check_condition(iw, met, cond).holds
        for cond in ("kahler", "gauduchon", "skt", "astheno", "ft_pair", "pluriclosed:3")
    }
    assert verdicts == {
        "kahler": False,
        "gauduchon": True,
        "skt": False,
        "astheno": False,
        "ft_pair": False,
        "pluriclosed:3": True,
    }


def test_exnilp_lhs_values():
    # all-ones B has rank one: the condition closes exactly
    assert exnilp_lhs(3, 0, [[1, 1], [1, 1]]) == 0
    assert exnilp_lhs(4, 0, [[1, 1, 1]] * 3) == 0
    # trace term enters negatively: [[1,1],[1,-1]] misses by 4
    assert exnilp_lhs(3, 0, [[1, 1], [1, -1]]) == 4
    i = gr(0, 1)
    h = Fraction(1, 2)
    assert exnilp_lhs(3, {(1, 2): 1}, [[i, h], [h, i]]) == Fraction(-1, 2)
    # pure A contributes |A|^2
    assert exnilp_lhs(3, {(1, 2): gr(2)}, 0) == 4


def test_exnilp_lhs_validation():
    with pytest.raises(ValueError):
        exnilp_lhs(2, 0, 0)  # needs n >= 3
    with pytest.raises(ValueError):
        exnilp_lhs(3, {(2, 1): 1}, 0)  # A must be strictly upper triangular


def test_exnilp_lhs_matches_direct_computation():
    rng = random.Random(101)
    for n in (3, 4):
        m = n - 1
        for _ in range(15):
            A = [
                [
                    gr(rng.randint(-2, 2), rng.randint(-2, 2)) if i < j else gr(0)
                    for j in range(m)
                ]
                for i in range(m)
            ]
            B = [[gr(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(m)] for _ in range(m)]
            spec = exnilp_spec(n, A, B)
            met = diagonal_metric(n)
            direct = deldelbar(spec, met.wedge_power(n - 2))
            assert (exnilp_lhs(n, A, B) == 0) == direct.is_zero()


def test_fps_lhs_values():
    one, zero = gr(1), gr(0)
    assert fps_lhs(zero, one, gr(-1), one, one) == 0
    assert fps_lhs(one, zero, zero, zero, zero) == 1
    # |A|^2 + |D|^2 + |E|^2 + 2 Re(B conj(C))
    assert fps_lhs(gr(1), gr(1), gr(1), gr(1), gr(1)) == 5
    # C purely imaginary relative to B kills the cross term
    assert fps_lhs(zero, gr(2), gr(0, 1), zero, zero) == 0


def test_fps_lhs_matches_direct_computation():
    rng = random.Random(103)
    for _ in range(25):
        coeffs = [gr(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(5)]
        spec = fps_spec(*coeffs)
        met = diagonal_metric(3)
        r = check_condition(spec, met, "skt")
        assert (fps_lhs(*coeffs) == 0) == r.holds


def test_scan_diagonal_metrics():
    iw = iwasawa_spec()
    results = list(scan_diagonal_metrics(iw, [Fraction(1), Fraction(2)], "astheno"))
    assert len(results) == 8
    assert all(not r.holds for _, r in results)
    assert all(len(diag) == 3 for diag, _ in results)
    ko = kodaira_spec()
    results = list(scan_diagonal_metrics(ko, [Fraction(1), Fraction(3)], "skt"))
    assert len(results) == 4 and all(r.holds for _, r in results)


def test_nakamura_identity_not_skt():
    na = nakamura_ce_spec()
    r = check_condition(na, diagonal_metric(3), "skt")
    assert not r.holds
