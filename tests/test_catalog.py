"""Catalog keys, parametrized families, and the self-checking suite."""

import json

import pytest

from nilcoh import catalog
from nilcoh.catalog import (
    CatalogKeyError,
    catalog_get,
    catalog_list,
    run_suite,
)
from nilcoh.cli import main
from nilcoh.metrics import MetricForm


def test_named_keys_are_stable():
    keys = catalog_list()
    assert keys[0] == "torus(1)"
    assert "iwasawa" in keys
    assert "kodaira" in keys
    assert "nakamura_ce" in keys
    assert "fps_skt(0,1,-1,1,1)" in keys
    assert "exnilp_ones(3)" in keys
    assert "product(kodaira,torus(1))" in keys
    assert len(keys) == len(set(keys))


def test_every_named_entry_builds():
    for key in catalog_list():
        entry = catalog_get(key)
        assert entry.key == key
        assert entry.spec.n == entry.metric.n
        assert entry.fixtures
        provs = {fx.provenance for fx in entry.fixtures}
        assert provs <= {"literature", "trivial", "derived"}


def test_parametrized_torus():
    entry = catalog_get("torus(5)")
    assert entry.spec.n == 5
    assert all(entry.spec.d_alpha(j).is_zero() for j in range(1, 6))
    # leading zeros and surrounding blanks are read
    assert catalog_get("torus( 0005 )").key == entry.key


def test_parametrized_fps():
    entry = catalog_get("fps_skt(1,2i,0,-1/2,1+i)")
    d3 = entry.spec.d_alpha(3)
    assert not d3.is_zero()
    # round-trip through the canonical key
    assert entry.key.startswith("fps_skt(")


def test_parametrized_exnilp_with_matrices():
    entry = catalog_get("exnilp(3,A=0,B=[[1,1],[1,1]])")
    assert entry.spec.n == 3
    fx = {f.name: f for f in entry.fixtures}
    assert fx["exnilp_lhs"].expected == "0"
    assert fx["astheno_identity"].expected is True

    entry = catalog_get("exnilp(3,A=0,B=[[1,1],[1,-1]])")
    fx = {f.name: f for f in entry.fixtures}
    assert fx["exnilp_lhs"].expected == "4"
    assert fx["astheno_identity"].expected is False


def test_parametrized_product_recursive():
    entry = catalog_get("product(iwasawa,torus(1))")
    assert entry.spec.n == 4
    entry = catalog_get("product(product(torus(1),torus(1)),kodaira)")
    assert entry.spec.n == 4


def test_unknown_key_lists_alternatives():
    with pytest.raises(CatalogKeyError) as err:
        catalog_get("does_not_exist")
    assert "iwasawa" in str(err.value)
    with pytest.raises(CatalogKeyError):
        catalog_get("exnilp(3,A=0)")
    with pytest.raises(CatalogKeyError):
        catalog_get("fps_skt(1,2)")
    with pytest.raises(CatalogKeyError):
        catalog_get("exnilp(3,A=0,B=[[1],[1]")


@pytest.mark.parametrize(
    "key, message",
    [
        ("torus(\u0662)", "written in the digits 0-9"),  # ARABIC-INDIC DIGIT TWO
        ("exnilp_ones(\uff13)", "written in the digits 0-9"),  # FULLWIDTH DIGIT THREE
        ("torus(-1)", "written in the digits 0-9"),
        ("torus(%s)" % ("9" * 5000), "of 5000 digits exceeds the limit 64"),
        ("exnilp(%s,A=0,B=0)" % ("1" * 5000), "of 5000 digits exceeds the limit 64"),
    ],
    ids=["arabic-indic", "fullwidth", "sign", "torus-5000-digits", "exnilp-5000-digits"],
)
def test_dimension_in_a_key_takes_ascii_digits_within_the_limit(capsys, key, message):
    with pytest.raises(CatalogKeyError, match=message):
        catalog_get(key)
    assert main(["catalog", "show", key]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.endswith(message + "\n")
    assert len(captured.err.encode()) < 300  # the key is cut short in the message


def test_run_suite_all_green():
    ok, summary = run_suite()
    assert ok
    assert summary["ok"]
    assert len(summary["entries"]) == len(catalog_list())
    for item in summary["entries"]:
        assert item["ok"], item["key"]
        for fx in item["fixtures"]:
            assert fx["ok"], (item["key"], fx["name"])
            assert fx["expected"] == fx["computed"]


def test_run_suite_subset():
    ok, summary = run_suite(["kodaira"])
    assert ok and len(summary["entries"]) == 1


def test_entry_metric_is_one_identity_per_dimension():
    entry = catalog_get("iwasawa")
    assert entry.metric is entry.metric is catalog_get("nakamura_ce").metric
    assert entry.metric.n == 3
    with pytest.raises(AttributeError):
        entry.metric = catalog_get("torus(3)").metric


def test_run_suite_computes_each_wedge_power_once(monkeypatch):
    catalog._identity_metric.cache_clear()
    computed = []
    power = MetricForm._power_from_minors
    monkeypatch.setattr(
        MetricForm,
        "_power_from_minors",
        lambda self, k: computed.append((self.n, k)) or power(self, k),
    )
    assert run_suite()[0]
    assert computed and len(computed) == len(set(computed))


@pytest.fixture
def tampered_kodaira(monkeypatch):
    """Make the suite build ``kodaira`` with its gap recorded as 2, not 1."""
    build = catalog._NAMED["kodaira"]

    def tampered():
        entry = build()
        for k, fx in enumerate(entry.fixtures):
            if fx.name == "gap":
                entry.fixtures[k] = fx._replace(expected=2)
        return entry

    monkeypatch.setitem(catalog._NAMED, "kodaira", tampered)


def test_run_suite_detects_tampering(tampered_kodaira, capsys):
    ok, summary = run_suite(["kodaira", "torus(1)"])
    assert ok is False and summary["ok"] is False
    kodaira, torus = summary["entries"]
    assert kodaira["ok"] is False and torus["ok"] is True
    assert [fx for fx in kodaira["fixtures"] if not fx["ok"]] == [
        {"name": "gap", "provenance": "literature", "expected": 2, "computed": 1, "ok": False}
    ]

    assert main(["catalog", "suite", "kodaira"]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False
