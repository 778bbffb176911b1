"""Obstruction battery: gap verdicts, Jost-Yau, L functional, torality, Kunneth."""

import random
from fractions import Fraction

import pytest

from nilcoh.algebra import AlgebraSpec, d, validate
from nilcoh.catalog import (
    catalog_get,
    exnilp_spec,
    fps_spec,
    iwasawa_spec,
    kodaira_spec,
    nakamura_ce_spec,
    ones_matrix,
    torus_spec,
)
from nilcoh.cohomology import class_representatives
from nilcoh.forms import Form, alpha, alphabar
from nilcoh.metrics import diagonal_metric
from nilcoh.obstructions import (
    gap_verdict,
    holomorphic_one_forms,
    jost_yau,
    kunneth_check,
    l_functional,
    obstruction_report,
    torality_check,
)
from nilcoh.scalars import GaussianRational


def test_holomorphic_one_forms():
    assert [str(f) for f in holomorphic_one_forms(kodaira_spec())] == ["(1)*a1"]
    # all three Iwasawa generators are delbar-closed
    iw_forms = holomorphic_one_forms(iwasawa_spec())
    assert len(iw_forms) == 3


def test_jost_yau_worked_examples():
    r = jost_yau(iwasawa_spec())
    assert not r.passed
    assert r.witness == alpha(3)

    assert jost_yau(kodaira_spec()).passed
    assert jost_yau(torus_spec(3)).passed

    r = jost_yau(nakamura_ce_spec())
    assert not r.passed
    assert r.witness == alpha(2)


def test_gap_verdicts():
    v = gap_verdict(torus_spec(2))
    assert (v.h01_bc, v.h01_a, v.gap, v.verdict) == (2, 2, 0, "compatible_gap0")

    v = gap_verdict(kodaira_spec())
    assert (v.h01_bc, v.h01_a, v.gap, v.verdict) == (1, 2, 1, "compatible_gap1")

    v = gap_verdict(iwasawa_spec())
    assert (v.h01_bc, v.h01_a, v.gap, v.verdict) == (2, 3, 1, "compatible_gap1")

    v = gap_verdict(nakamura_ce_spec())
    assert (v.h01_bc, v.h01_a, v.gap, v.verdict) == (1, 3, 2, "excluded")


def test_l_functional_kodaira():
    lf = l_functional(kodaira_spec(), diagonal_metric(2))
    assert [str(v) for v in lf.values] == ["0", "1i"]
    assert lf.rank == 1
    assert len(lf.representatives) == 2


def test_l_functional_vanishes_on_iwasawa():
    lf = l_functional(iwasawa_spec(), diagonal_metric(3))
    assert all(v.is_zero() for v in lf.values)
    assert lf.rank == 0


def test_l_functional_vanishes_on_bott_chern_classes():
    for key in ("kodaira", "iwasawa", "exnilp_ones(3)", "fps_skt(0,1,-1,1,1)"):
        entry = catalog_get(key)
        spec, metric = entry.spec, entry.metric
        n = spec.n
        power = metric.wedge_power(n - 1)
        from nilcoh.algebra import del_
        from nilcoh.forms import BasisForm

        volume = BasisForm(tuple(range(1, n + 1)), tuple(range(1, n + 1)))
        for rep in class_representatives(spec, "bott_chern", 0, 1):
            value = (del_(spec, rep) ^ power).coefficient(volume)
            assert value.is_zero(), key


def test_l_functional_requires_gauduchon():
    # a non-unimodular structure where the identity metric is not gauduchon
    spec = AlgebraSpec(
        "solv", 2, [Form(), (alpha(2) ^ alphabar(1)) + (alpha(1) ^ alphabar(1))]
    )
    assert validate(spec).jacobi_ok
    from nilcoh.metrics import check_condition

    assert not check_condition(spec, diagonal_metric(2), "gauduchon").holds
    with pytest.raises(ValueError):
        l_functional(spec, diagonal_metric(2))
    rep = obstruction_report(spec, diagonal_metric(2))
    assert rep.gauduchon is False and rep.l_rank is None and rep.l_values is None


def test_obstruction_report_checks_gauduchon_once(monkeypatch):
    import nilcoh.obstructions

    true_check = nilcoh.obstructions.check_condition
    checked = []

    def counting(spec, m, cond):
        checked.append(cond)
        return true_check(spec, m, cond)

    monkeypatch.setattr(nilcoh.obstructions, "check_condition", counting)
    rep = obstruction_report(iwasawa_spec(), diagonal_metric(3))
    assert rep.gauduchon and rep.l_rank is not None
    assert checked == ["gauduchon"]


def test_exactness_hook_on_astheno_specs():
    # for non-abelian specs with an astheno identity metric the L rank
    # accounts for the whole gap: h01_a = h01_bc + rank
    for key in ("exnilp_ones(3)", "exnilp_ones(4)", "kodaira"):
        entry = catalog_get(key)
        v = gap_verdict(entry.spec)
        lf = l_functional(entry.spec, entry.metric)
        assert v.h01_a == v.h01_bc + lf.rank, key
        assert lf.rank == 1


def test_torality():
    assert torality_check(torus_spec(3)) == "consistent"
    assert torality_check(iwasawa_spec()) == "consistent"
    assert torality_check(nakamura_ce_spec()) == "not_applicable"


def test_kunneth():
    r = kunneth_check(kodaira_spec(), torus_spec(1))
    assert r.bc_additive
    assert r.aeppli_superadditive
    assert r.bc_sum == r.bc_left + r.bc_right
    r = kunneth_check(iwasawa_spec(), kodaira_spec())
    assert r.bc_additive
    assert r.aeppli_superadditive


def test_obstruction_report_iwasawa():
    rep = obstruction_report(iwasawa_spec(), diagonal_metric(3))
    assert (rep.h01_bc, rep.h01_a, rep.gap) == (2, 3, 1)
    assert rep.gap_verdict == "compatible_gap1"
    assert not rep.jost_yau.passed
    assert rep.astheno_excluded
    assert rep.excluded_by == ["jost_yau"]
    assert rep.validity == "nilpotent_J"
    assert rep.gauduchon is True
    assert rep.l_rank == 0


def test_obstruction_report_nakamura():
    rep = obstruction_report(nakamura_ce_spec())
    assert rep.astheno_excluded
    assert "gap" in rep.excluded_by[0]
    assert rep.validity == "ce_only"
    assert rep.gauduchon is None and rep.l_rank is None


def test_obstruction_report_clean_pass():
    rep = obstruction_report(exnilp_spec(3, 0, ones_matrix(2)), diagonal_metric(3))
    assert not rep.astheno_excluded
    assert rep.excluded_by == []
    assert rep.gap == 1
    assert rep.l_rank == 1


def test_obstruction_report_with_non_gauduchon_metric():
    # the report flags the metric instead of raising, and omits L
    spec = AlgebraSpec(
        "solv", 2, [Form(), (alpha(2) ^ alphabar(1)) + (alpha(1) ^ alphabar(1))]
    )
    rep = obstruction_report(spec, diagonal_metric(2))
    assert rep.gauduchon is False
    assert rep.l_rank is None and rep.l_values is None


def test_obstruction_report_requires_valid_spec():
    bad = AlgebraSpec("bad", 2, [Form(), alpha(1) ^ alphabar(2)])
    with pytest.raises(ValueError):
        obstruction_report(bad)
