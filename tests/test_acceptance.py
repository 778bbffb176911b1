"""Acceptance gate: one test (and one printed verdict line) per criterion.

Every check is exact — integer and Gaussian-rational comparisons only —
and every criterion carries a wall-clock budget that is asserted, not just
reported.  Run with ``pytest -v`` to see one PASSED/FAILED line per
criterion; each test also prints its own ``criterion NN PASS/FAIL`` line
with the measured time.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from nilcoh.algebra import validate
from nilcoh.catalog import (
    catalog_get,
    catalog_list,
    exnilp_spec,
    fps_spec,
    iwasawa_spec,
    kodaira_spec,
    nakamura_ce_spec,
    torus_spec,
)
from nilcoh.cohomology import class_representatives, hodge_number, hodge_table
from nilcoh.dsl import parse_structure_file
from nilcoh.algebra import del_
from nilcoh.forms import BasisForm, Form, alpha
from nilcoh.metrics import (
    build_metric,
    check_condition,
    diagonal_metric,
    exnilp_lhs,
    fps_lhs,
)
from nilcoh.obstructions import (
    gap_verdict,
    jost_yau,
    kunneth_check,
    l_functional,
    obstruction_report,
)
from nilcoh.scalars import GaussianRational

from sympy import Matrix, QQ_I
from sympy.polys.matrices import DomainMatrix

from generators import is_abelian, rand_gauss, random_two_step
from oracle import scalar_to_sympy


def _verdict(capsys, number, ok, elapsed, budget, detail):
    line = "criterion %02d %s (%.2fs < %ds) %s" % (
        number,
        "PASS" if ok else "FAIL",
        elapsed,
        budget,
        detail,
    )
    with capsys.disabled():
        print(line)


def predicted_astheno_witness(n, lhs):
    """The closed-form value of del delbar omega^(n-2) for the identity
    metric on a one-generator extension: a single monomial on the first
    n-1 holomorphic and anti-holomorphic generators, scaled by the
    left-hand side times a volume-normalization constant."""
    i = GaussianRational(0, 1)
    c = GaussianRational(-1)
    for _ in range(n - 2):
        c = c * i
    c = c * GaussianRational((n - 2) * math.factorial(n - 3))
    if ((n - 3) * (n - 4) // 2) % 2:
        c = -c
    full = tuple(range(1, n))
    return (c * GaussianRational(lhs)) * Form(
        {BasisForm(full, full): GaussianRational(1)}
    )


def dominant_metric(rng, n):
    """A dense Hermitian matrix with denominators 1..3, positive definite
    by strict diagonal dominance."""
    H = [[None] * n for _ in range(n)]
    for j in range(n):
        H[j][j] = GaussianRational(4 * (n - 1) + rng.randint(1, 3))
        for k in range(j + 1, n):
            den = rng.randint(1, 3)
            z = GaussianRational(
                Fraction(rng.choice((-2, -1, 1, 2)), den), Fraction(rng.randint(-2, 2), den)
            )
            H[j][k] = z
            H[k][j] = z.conjugate()
    return H


def random_exnilp(rng, n):
    """Random A (strictly upper triangular) and B for the exnilp family."""
    m = n - 1
    A = [
        [rand_gauss(rng) if i < j else GaussianRational(0) for j in range(m)]
        for i in range(m)
    ]
    B = [[rand_gauss(rng) for _ in range(m)] for _ in range(m)]
    return A, B


def test_criterion_01_iwasawa_headline_dimensions(capsys):
    t0 = time.perf_counter()
    iw = iwasawa_spec()
    bc = hodge_number(iw, "bott_chern", 0, 1)
    ae = hodge_number(iw, "aeppli", 0, 1)
    elapsed = time.perf_counter() - t0
    ok = (bc, ae) == (2, 3) and elapsed < 1
    _verdict(capsys, 1, ok, elapsed, 1, "iwasawa (0,1) dims bc=%d aeppli=%d" % (bc, ae))
    assert (bc, ae) == (2, 3)
    assert elapsed < 1


def test_criterion_02_jost_yau_on_iwasawa(capsys):
    t0 = time.perf_counter()
    iw = iwasawa_spec()
    r = jost_yau(iw)
    rep = obstruction_report(iw)
    elapsed = time.perf_counter() - t0
    ok = (
        not r.passed
        and r.witness == alpha(3)
        and rep.astheno_excluded
        and "jost_yau" in rep.excluded_by
        and elapsed < 1
    )
    _verdict(
        capsys,
        2,
        ok,
        elapsed,
        1,
        "jost_yau fails with witness %s; obstruct excludes astheno" % r.witness,
    )
    assert not r.passed and r.witness == alpha(3)
    assert rep.astheno_excluded and "jost_yau" in rep.excluded_by
    assert elapsed < 1


def test_criterion_03_surface_dichotomy(capsys):
    t0 = time.perf_counter()
    gk = gap_verdict(kodaira_spec())
    t1 = time.perf_counter()
    gt = gap_verdict(torus_spec(2))
    t2 = time.perf_counter()
    ok = gk.gap == 1 and gt.gap == 0 and (t1 - t0) < 1 and (t2 - t1) < 1
    _verdict(
        capsys,
        3,
        ok,
        t2 - t0,
        2,
        "kodaira gap=%d, torus(2) gap=%d" % (gk.gap, gt.gap),
    )
    assert gk.gap == 1 and gk.verdict == "compatible_gap1"
    assert gt.gap == 0 and gt.verdict == "compatible_gap0"
    assert (t1 - t0) < 1 and (t2 - t1) < 1


def test_criterion_04_astheno_closed_form_equivalence(capsys):
    rng = random.Random(20250825)
    t0 = time.perf_counter()
    draws = 0
    zero_side = 0
    for n in (3, 4, 5):
        m = n - 1
        met = diagonal_metric(n)
        for trial in range(62):
            A = [
                [rand_gauss(rng) if i < j else GaussianRational(0) for j in range(m)]
                for i in range(m)
            ]
            B = [[rand_gauss(rng) for _ in range(m)] for _ in range(m)]
            spec = exnilp_spec(n, A, B)
            lhs = exnilp_lhs(n, A, B)
            r = check_condition(spec, met, "astheno")
            assert (lhs == 0) == r.holds, (n, trial)
            assert r.witness == predicted_astheno_witness(n, lhs), (n, trial)
            draws += 1
            zero_side += lhs == 0
        # rank-one draws land exactly on the zero set
        for trial in range(8):
            v = [rand_gauss(rng) for _ in range(m)]
            B = [[v[i] * v[j].conjugate() for j in range(m)] for i in range(m)]
            spec = exnilp_spec(n, 0, B)
            lhs = exnilp_lhs(n, 0, B)
            r = check_condition(spec, met, "astheno")
            assert lhs == 0 and r.holds, (n, trial)
            assert r.witness.is_zero()
            draws += 1
            zero_side += 1
    elapsed = time.perf_counter() - t0
    ok = draws >= 200 and zero_side >= 20 and elapsed < 60
    _verdict(
        capsys,
        4,
        ok,
        elapsed,
        60,
        "%d draws over n in {3,4,5} (%d on the zero set): lhs=0 iff astheno, "
        "witness equals its predicted multiple" % (draws, zero_side),
    )
    assert draws >= 200 and zero_side >= 20
    assert elapsed < 60


def test_criterion_05_skt_closed_form_equivalence(capsys):
    rng = random.Random(31415)
    t0 = time.perf_counter()
    met = diagonal_metric(3)
    draws = 0
    zero_side = 0
    for trial in range(180):
        coeffs = [rand_gauss(rng) for _ in range(5)]
        spec = fps_spec(*coeffs)
        lhs = fps_lhs(*coeffs)
        r = check_condition(spec, met, "skt")
        assert (lhs == 0) == r.holds, trial
        draws += 1
        zero_side += lhs == 0
    for trial in range(40):
        # solve for C so the cross term cancels the norms exactly
        A, D, E = (rand_gauss(rng) for _ in range(3))
        B = rand_gauss(rng)
        if B.is_zero():
            B = GaussianRational(1)
        K = A.norm() + D.norm() + E.norm()
        t = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        C = B * GaussianRational(Fraction(-K, 2), t) / GaussianRational(B.norm())
        lhs = fps_lhs(A, B, C, D, E)
        r = check_condition(fps_spec(A, B, C, D, E), met, "skt")
        assert lhs == 0 and r.holds, trial
        draws += 1
        zero_side += 1
    elapsed = time.perf_counter() - t0
    ok = draws >= 200 and zero_side >= 40 and elapsed < 30
    _verdict(
        capsys,
        5,
        ok,
        elapsed,
        30,
        "%d draws (%d on the zero set): fps_lhs=0 iff skt" % (draws, zero_side),
    )
    assert draws >= 200 and zero_side >= 40
    assert elapsed < 30


def test_criterion_06_astheno_specs_have_small_gap(capsys):
    t0 = time.perf_counter()
    verified = []
    for key in catalog_list():
        entry = catalog_get(key)
        rep = validate(entry.spec)
        if not rep.jacobi_ok or not entry.metric.is_positive():
            continue
        if not check_condition(entry.spec, entry.metric, "astheno").holds:
            continue
        v = gap_verdict(entry.spec)
        verified.append(key)
        assert v.gap in (0, 1), key
        if rep.nilpotent_J and not is_abelian(entry.spec):
            lf = l_functional(entry.spec, entry.metric)
            assert v.gap == 1, key
            assert lf.rank == 1, key
            assert v.h01_a == v.h01_bc + lf.rank, key
    elapsed = time.perf_counter() - t0
    ok = len(verified) >= 6 and elapsed < 10
    _verdict(
        capsys,
        6,
        ok,
        elapsed,
        10,
        "%d catalog specs with positive astheno metric: gap in {0,1}; "
        "non-abelian nilpotent ones have gap=1=l_rank" % len(verified),
    )
    assert len(verified) >= 6
    assert elapsed < 10


def test_criterion_07_gap_zero_only_for_abelian(capsys):
    rng = random.Random(271828)
    t0 = time.perf_counter()
    draws = 0
    abelian_draws = 0
    for trial in range(110):
        n = rng.randint(2, 4)
        spec = random_two_step(rng, n, name="draw%d" % trial)
        rep = validate(spec)
        assert rep.jacobi_ok and rep.nilpotent_J, trial
        gap = hodge_number(spec, "aeppli", 0, 1) - hodge_number(
            spec, "bott_chern", 0, 1
        )
        if is_abelian(spec):
            abelian_draws += 1
            assert gap == 0, trial
        else:
            assert gap != 0, trial
        draws += 1
    elapsed = time.perf_counter() - t0
    ok = draws >= 100 and abelian_draws >= 5 and elapsed < 60
    _verdict(
        capsys,
        7,
        ok,
        elapsed,
        60,
        "%d random nilpotent draws (%d abelian): gap=0 only when abelian"
        % (draws, abelian_draws),
    )
    assert draws >= 100 and abelian_draws >= 5
    assert elapsed < 60


def test_criterion_08_kunneth_additivity(capsys):
    rng = random.Random(1618)
    t0 = time.perf_counter()
    pairs = 0
    for trial in range(52):
        n_a = rng.randint(1, 3)
        n_b = rng.randint(1, min(3, 5 - n_a))
        a = random_two_step(rng, n_a, name="a%d" % trial)
        b = random_two_step(rng, n_b, name="b%d" % trial)
        r = kunneth_check(a, b)
        assert r.bc_additive, trial
        assert r.bc_sum == r.bc_left + r.bc_right, trial
        assert r.aeppli_superadditive, trial
        assert r.aeppli_sum >= r.aeppli_left + r.aeppli_right, trial
        pairs += 1
    elapsed = time.perf_counter() - t0
    ok = pairs >= 50 and elapsed < 120
    _verdict(
        capsys,
        8,
        ok,
        elapsed,
        120,
        "%d random pairs with n_a+n_b<=5: bc (0,1) adds exactly, aeppli is "
        "superadditive" % pairs,
    )
    assert pairs >= 50
    assert elapsed < 120


def test_criterion_09_table_symmetries_and_duality(capsys):
    t0 = time.perf_counter()
    checked = 0
    for key in catalog_list():
        entry = catalog_get(key)
        spec = entry.spec
        rep = validate(spec)
        if not rep.jacobi_ok:
            continue
        bc = hodge_table(spec, "bott_chern").entries
        ae = hodge_table(spec, "aeppli").entries
        n = spec.n
        for p in range(n + 1):
            for q in range(n + 1):
                assert bc[p][q] == bc[q][p], (key, p, q)
                assert ae[p][q] == ae[q][p], (key, p, q)
                if rep.nilpotent_J:
                    assert bc[p][q] == ae[n - p][n - q], (key, p, q)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == len(catalog_list()) and elapsed < 30
    _verdict(
        capsys,
        9,
        ok,
        elapsed,
        30,
        "%d catalog entries: h(p,q)=h(q,p) for bc/aeppli; nilpotent entries "
        "satisfy bc(p,q)=aeppli(n-p,n-q)" % checked,
    )
    assert checked == len(catalog_list())
    assert elapsed < 30


def test_criterion_10_gap_two_exclusion(capsys):
    t0 = time.perf_counter()
    na = nakamura_ce_spec()
    v = gap_verdict(na)
    rep = obstruction_report(na)
    elapsed = time.perf_counter() - t0
    ok = (
        (v.h01_bc, v.h01_a, v.gap, v.verdict) == (1, 3, 2, "excluded")
        and rep.validity == "ce_only"
        and elapsed < 1
    )
    _verdict(
        capsys,
        10,
        ok,
        elapsed,
        1,
        "nakamura_ce: (0,1) dims (%d,%d), gap %d, %s at %s level"
        % (v.h01_bc, v.h01_a, v.gap, v.verdict, rep.validity),
    )
    assert (v.h01_bc, v.h01_a, v.gap, v.verdict) == (1, 3, 2, "excluded")
    assert rep.validity == "ce_only"
    assert elapsed < 1


def test_criterion_11_l_functional_is_a_complex(capsys):
    t0 = time.perf_counter()
    checked = 0
    for key in catalog_list():
        entry = catalog_get(key)
        spec, metric = entry.spec, entry.metric
        if not validate(spec).jacobi_ok:
            continue
        if not check_condition(spec, metric, "gauduchon").holds:
            continue
        n = spec.n
        power = metric.wedge_power(n - 1)
        volume = BasisForm(tuple(range(1, n + 1)), tuple(range(1, n + 1)))
        for rep in class_representatives(spec, "bott_chern", 0, 1):
            value = (del_(spec, rep) ^ power).coefficient(volume)
            assert value.is_zero(), key
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == len(catalog_list()) and elapsed < 10
    _verdict(
        capsys,
        11,
        ok,
        elapsed,
        10,
        "%d catalog entries: L vanishes on every bott-chern (0,1) "
        "representative for the supplied gauduchon metric" % checked,
    )
    assert checked == len(catalog_list())
    assert elapsed < 10


def test_criterion_12_bott_chern_aeppli_duality_at_n6(capsys):
    t0 = time.perf_counter()
    spec = parse_structure_file("algebra h6 dim 6\nd a6 = (1) * a1 ^ a2\n")
    bc = hodge_table(spec, "bott_chern")
    ae = hodge_table(spec, "aeppli")
    elapsed = time.perf_counter() - t0
    n = spec.n
    dual = all(
        bc.entries[p][q] == ae.entries[n - q][n - p]
        for p in range(n + 1)
        for q in range(n + 1)
    )
    gap = ae.entries[0][1] - bc.entries[0][1]
    ok = dual and bc.validity == "nilpotent_J" and gap == 1 and elapsed < 10
    _verdict(
        capsys,
        12,
        ok,
        elapsed,
        10,
        "d a6 = a1^a2 at n=6: h_bc(p,q)=h_a(n-q,n-p) on all 49 bidegrees, "
        "(0,1) gap %d" % gap,
    )
    assert dual
    assert bc.validity == "nilpotent_J"
    assert gap == 1
    assert elapsed < 10


def test_criterion_13_metric_checks_at_larger_n(capsys):
    rng = random.Random(20261018)
    t0 = time.perf_counter()

    # obstruct at n = 7 with a dense metric.  Nilpotent Lie algebras are
    # unimodular, so every invariant (2n-1)-form is closed and every metric
    # is Gauduchon; L then vanishes on Bott-Chern classes.
    spec7 = exnilp_spec(7, *random_exnilp(rng, 7))
    met7 = build_metric(7, dominant_metric(rng, 7))
    rep = obstruction_report(spec7, met7)
    assert rep.gauduchon
    assert rep.l_values == l_functional(spec7, met7).values
    assert rep.l_rank <= min(1, rep.gap)
    volume7 = BasisForm(tuple(range(1, 8)), tuple(range(1, 8)))
    for bc in class_representatives(spec7, "bott_chern", 0, 1):
        assert (del_(spec7, bc) ^ met7.wedge_power(6)).coefficient(volume7).is_zero()

    # gauduchon and astheno at n = 8 with a dense metric; omega^6 scales by
    # c^6 when H scales by c
    spec8 = exnilp_spec(8, *random_exnilp(rng, 8))
    H8 = dominant_metric(rng, 8)
    met8 = build_metric(8, H8)
    assert check_condition(spec8, met8, "gauduchon").holds
    astheno = check_condition(spec8, met8, "astheno")
    assert not astheno.holds and not astheno.witness.is_zero()  # this draw fails
    half = build_metric(8, [[z * Fraction(1, 2) for z in row] for row in H8])
    assert check_condition(spec8, half, "astheno").witness == astheno.witness * Fraction(1, 64)

    # the top power is 8! i^8 (-1)^28 det H vol, with det H from sympy; the
    # generic wedge ties the two powers below it to the top
    D = DomainMatrix.from_Matrix(Matrix([[scalar_to_sympy(z) for z in row] for row in H8]))
    det = QQ_I.to_sympy(D.convert_to(QQ_I).det())
    volume8 = BasisForm(tuple(range(1, 9)), tuple(range(1, 9)))
    top = met8.wedge_power(8)
    assert len(top) == 1
    assert scalar_to_sympy(top.coefficient(volume8)) == math.factorial(8) * det
    assert met8.wedge_power(7) ^ met8.omega == top
    assert met8.wedge_power(6) ^ met8.omega == met8.wedge_power(7)

    # identity-metric astheno against the closed form at n = 8 (criterion 4
    # stops at n = 5)
    identity = diagonal_metric(8)
    draws = zero_side = 0
    for trial in range(10):
        if trial < 8:
            A, B = random_exnilp(rng, 8)
        else:
            v = [rand_gauss(rng) for _ in range(7)]
            A, B = 0, [[v[i] * v[j].conjugate() for j in range(7)] for i in range(7)]
        lhs = exnilp_lhs(8, A, B)
        r = check_condition(exnilp_spec(8, A, B), identity, "astheno")
        assert (lhs == 0) == r.holds, trial
        assert r.witness == predicted_astheno_witness(8, lhs), trial
        draws += 1
        zero_side += lhs == 0

    elapsed = time.perf_counter() - t0
    ok = zero_side >= 2 and elapsed < 10
    _verdict(
        capsys,
        13,
        ok,
        elapsed,
        10,
        "dense metrics: obstruct at n=7 (L rank %d, gap %d), gauduchon and "
        "astheno at n=8, omega^8 = 8! det H vol; %d identity-metric exnilp "
        "draws at n=8 (%d on the zero set) match exnilp_lhs"
        % (rep.l_rank, rep.gap, draws, zero_side),
    )
    assert zero_side >= 2
    assert elapsed < 10
