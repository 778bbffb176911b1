"""Every result record is an immutable named tuple with a fixed field
order, so positional construction and attribute reads stay stable."""

import pytest

from nilcoh.algebra import validate
from nilcoh.catalog import catalog_get, iwasawa_spec, kodaira_spec, torus_spec
from nilcoh.cohomology import hodge_table
from nilcoh.metrics import check_condition, diagonal_metric
from nilcoh.obstructions import (
    gap_verdict,
    jost_yau,
    kunneth_check,
    l_functional,
    obstruction_report,
)

# record name -> (a call that returns one, its fields in order)
RECORDS = {
    "ValidationReport": (
        lambda: validate(iwasawa_spec()),
        "failing_generators nilpotent_J filtration",
    ),
    "Fixture": (lambda: catalog_get("iwasawa").fixtures[0], "name provenance expected"),
    "CatalogEntry": (lambda: catalog_get("iwasawa"), "key spec fixtures notes params"),
    "HodgeTable": (lambda: hodge_table(iwasawa_spec(), "bott_chern"), "theory n entries validity"),
    "CheckResult": (
        lambda: check_condition(iwasawa_spec(), diagonal_metric(3), "skt"),
        "condition holds witness",
    ),
    "JostYauResult": (lambda: jost_yau(iwasawa_spec()), "passed witness"),
    "GapVerdict": (lambda: gap_verdict(iwasawa_spec()), "h01_bc h01_a gap verdict"),
    "LFunctional": (
        lambda: l_functional(kodaira_spec(), diagonal_metric(2)),
        "representatives values rank",
    ),
    "KunnethResult": (
        lambda: kunneth_check(kodaira_spec(), torus_spec(1)),
        "bc_left bc_right bc_sum bc_additive aeppli_left aeppli_right aeppli_sum "
        "aeppli_superadditive",
    ),
    "ObstructionReport": (
        lambda: obstruction_report(kodaira_spec(), diagonal_metric(2)),
        "h01_bc h01_a gap gap_verdict jost_yau torality validity astheno_excluded "
        "excluded_by gauduchon l_rank l_values",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_an_immutable_tuple_of_fixed_fields(name):
    make, fields = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    assert record._fields == tuple(fields.split())
    assert type(record)(*record) == record
    assert not hasattr(record, "__dict__")
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
